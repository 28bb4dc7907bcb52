import numpy as np
import pytest

from gstbc.complexity import (
    asymptotic_speedup,
    cost_dense_sic,
    cost_recursive,
    format_flop_report,
    measure_flops,
    published_formula,
    run_flop_report,
)
from gstbc.errors import ConfigInvalid, InvalidDimensions

# frozen closed-form expansions of the per-stage loop counts, evaluated
# by hand for small sizes; any drift in the counted kernels lands here
FROZEN_RECURSIVE = {
    (1, 1): (25, 16),
    (2, 2): (183, 147),
    (2, 4): (295, 259),
    (3, 3): (585, 506),
}

# measured counts of the dense references; the two symbol-wise SIC
# detectors invert systems of the same sizes, so their counts agree
FROZEN_DENSE = {
    "linear_mmse": {(1, 1): (106, 78), (2, 2): (740, 644), (4, 4): (5512, 5160)},
    "osic_symbolwise": {(1, 1): (139, 104), (2, 2): (1274, 1096), (3, 3): (5261, 4752), (4, 4): (14980, 13872)},
    "sic_groupwise": {(1, 1): (139, 104), (2, 2): (1274, 1096), (3, 3): (5261, 4752), (4, 4): (14980, 13872)},
}


def test_cost_recursive_frozen_values():
    for (m, n), (mults, adds) in FROZEN_RECURSIVE.items():
        fc = cost_recursive(m, n)
        assert (fc.real_mults, fc.real_adds) == (mults, adds), (m, n)


def test_cost_recursive_matches_measurement():
    for m, n in ((1, 1), (1, 3), (2, 2), (2, 3), (2, 4), (3, 3), (3, 5), (4, 4), (5, 6)):
        model = cost_recursive(m, n)
        measured = measure_flops(m, n, seed=1)
        assert (model.real_mults, model.real_adds) == (
            measured.real_mults,
            measured.real_adds,
        ), (m, n)


def test_dense_reference_frozen_flops():
    for det, table in FROZEN_DENSE.items():
        for (m, n), (mults, adds) in table.items():
            fc = measure_flops(m, n, detector=det)
            assert (fc.real_mults, fc.real_adds) == (mults, adds), (det, m, n)


def test_measure_flops_seed_independent():
    a = measure_flops(3, 4, seed=0)
    b = measure_flops(3, 4, seed=99)
    assert (a.real_mults, a.real_adds) == (b.real_mults, b.real_adds)


def test_measure_flops_other_detectors():
    for det in ("fixed_order", "linear_mmse", "osic_symbolwise", "sic_groupwise"):
        fc = measure_flops(2, 3, detector=det)
        assert fc.total > 0
    with pytest.raises(ConfigInvalid):
        measure_flops(2, 3, detector="nonsense")


def test_published_formula_dsttd():
    assert published_formula(2, 2) == (179, 152)
    assert published_formula(2, 4) == (291, 264)
    # N-linear term of the measured counts matches the published slopes
    for n in (2, 4, 8):
        pm, pa = published_formula(2, n)
        mm = cost_recursive(2, n)
        m2 = cost_recursive(2, n + 1)
        assert m2.real_mults - mm.real_mults == published_formula(2, n + 1)[0] - pm
        assert m2.real_adds - mm.real_adds == published_formula(2, n + 1)[1] - pa


def test_dsttd_constants_offset_is_fixed():
    # measured per-kind constants are 71 and 35 against the published 67
    # and 40; the N-slope is 56 on both sides for both kinds, so the gap
    # is a constant total offset of minus one operation at every N
    for n in (2, 3, 4, 8, 16):
        fc = cost_recursive(2, n)
        pm, pa = published_formula(2, n)
        assert fc.real_mults == 56 * n + 71
        assert fc.real_adds == 56 * n + 35
        assert (pm, pa) == (56 * n + 67, 56 * n + 40)
        assert fc.total - int(pm + pa) == -1


def test_dense_sic_reference_points():
    n4 = cost_dense_sic(4)
    n8 = cost_dense_sic(8)
    assert n4.total == 858
    assert n8.total == 4566
    # the recursion's totals, the denominators of the DSTTD speedups
    assert cost_recursive(2, 4).total == 554
    assert cost_recursive(2, 8).total == 1002


def test_asymptotic_speedup_value():
    assert asymptotic_speedup() == pytest.approx(48 / (8 + 32 / 3), abs=1e-12)
    assert asymptotic_speedup() == pytest.approx(2.5714, abs=5e-4)


def test_fit_scaling_recovers_leading_coefficients():
    # the leading coefficients, exactly: the count is linear in n with slope
    # 8 m^2 + 12 m (the Gram's 8 m^2 n leads) and cubic in m with third
    # difference 64 = 6 (8 + 8/3), the growth's 8 m^3 and the deflation's
    # 8/3 m^3, for mults and adds alike
    for m in range(1, 13):
        for n in (m, m + 3):
            assert cost_recursive(m, n + 1).real_mults - cost_recursive(m, n).real_mults == 8 * m * m + 12 * m
    for n in (1, 8, 20):
        for m in range(1, 10):
            counts = [cost_recursive(m + d, n) for d in range(4)]
            for kind in ("real_mults", "real_adds"):
                c = [getattr(fc, kind) for fc in counts]
                assert c[3] - 3 * c[2] + 3 * c[1] - c[0] == 64, (m, n, kind)


def test_fit_square_cubic_merges_coefficients():
    # on square shapes (n = m) the two leading terms merge into one cubic:
    # the third difference is 6 (8 + 32/3) = 112, for mults and adds alike
    for m in range(1, 13):
        counts = [cost_recursive(m + d, m + d) for d in range(4)]
        for kind in ("real_mults", "real_adds"):
            c = [getattr(fc, kind) for fc in counts]
            assert c[3] - 3 * c[2] + 3 * c[1] - c[0] == 112, (m, kind)


def test_flop_report_roundtrip():
    rep = run_flop_report(2, 4)
    assert (rep.measured_mults, rep.measured_adds) == (295, 259)
    assert rep.formula_mults == 291
    assert rep.deviation is not None
    text = format_flop_report(rep)
    assert "291" in text and "554" in text and "speedup 1.549" in text

    free = run_flop_report(3, 3, detector="osic_symbolwise")
    assert free.formula_mults is None and free.deviation is None
    assert "measured" in format_flop_report(free)

    with pytest.raises(InvalidDimensions):
        run_flop_report(4, 2)
