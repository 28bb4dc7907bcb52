import numpy as np
import pytest

from gstbc.complexity import (
    asymptotic_speedup,
    cost_dense_sic,
    cost_recursive,
    dsttd_speedup,
    fit_scaling,
    fit_square_cubic,
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
    (2, 2): (185, 147),
    (2, 4): (297, 259),
    (3, 3): (591, 506),
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
    # measured per-kind constants are 73 and 35 against the published 67
    # and 40; the N-slope is 56 on both sides for both kinds, so the gap
    # is a constant total offset of one operation at every N
    for n in (2, 3, 4, 8, 16):
        fc = cost_recursive(2, n)
        pm, pa = published_formula(2, n)
        assert fc.real_mults == 56 * n + 73
        assert fc.real_adds == 56 * n + 35
        assert (pm, pa) == (56 * n + 67, 56 * n + 40)
        assert fc.total - int(pm + pa) == 1


def test_dense_sic_reference_points():
    n4 = cost_dense_sic(4)
    n8 = cost_dense_sic(8)
    assert n4.total == 858
    assert n8.total == 4566
    assert dsttd_speedup(4) == pytest.approx(858 / 556, abs=1e-12)
    assert dsttd_speedup(8) == pytest.approx(4566 / 1004, abs=1e-12)


def test_asymptotic_speedup_value():
    assert asymptotic_speedup() == pytest.approx(48 / (8 + 32 / 3), abs=1e-12)
    assert asymptotic_speedup() == pytest.approx(2.5714, abs=5e-4)


def test_fit_scaling_recovers_leading_coefficients():
    fitted = fit_scaling(ms=(4, 8, 12, 16))
    assert fitted["m2n_coefficient"] == pytest.approx(8.0, rel=0.01)
    assert fitted["m3_coefficient"] == pytest.approx(32 / 3, rel=0.01)


def test_fit_square_cubic_merges_coefficients():
    # on square-only data the two leading terms are indistinguishable;
    # the cubic coefficient of the merged fit is their sum
    coeff = fit_square_cubic(ms=(4, 8, 12, 16))
    assert coeff == pytest.approx(8 + 32 / 3, rel=0.01)


def test_flop_report_roundtrip():
    rep = run_flop_report(2, 4)
    assert (rep.measured_mults, rep.measured_adds) == (297, 259)
    assert rep.formula_mults == 291
    assert rep.deviation is not None
    text = format_flop_report(rep)
    assert "291" in text and "556" in text and "speedup 1.543" in text

    free = run_flop_report(3, 3, detector="osic_symbolwise")
    assert free.formula_mults is None and free.deviation is None
    assert "measured" in format_flop_report(free)

    with pytest.raises(InvalidDimensions):
        run_flop_report(4, 2)
