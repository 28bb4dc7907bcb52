"""End-to-end acceptance checks.

Each test prints one [ACCEPTANCE] verdict line (run with -s to see them
all; under default capture the line still shows for failures).  The
Monte Carlo checks near the end take a few minutes combined.
"""

import math

import numpy as np

from gstbc.alamouti import sbm_from_dense, sbm_to_dense
from gstbc.channel import ChannelMatrix, NoiseSpec, equivalent_channel_batch, generate_channel, transmit
from gstbc.complexity import asymptotic_speedup, cost_dense_sic, measure_flops
from gstbc.detectors import (
    deflate_covariance,
    detect_gstbc,
    detect_sic_groupwise_symbolwise,
    init_covariance,
    init_gram,
)
from gstbc.errors import StructureViolation
from gstbc.modulation import qpsk_modulate
from gstbc.sim import DETECTORS as engines
from gstbc.sim import SimConfig, run_ber_sweep, snr_at_ber


def _report(cid: str, desc: str, ok: bool, detail: str):
    print(f"[ACCEPTANCE] {cid} {desc}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid} {desc}: {detail}"


def _draw_channel(rng, n_rx, layers):
    g = (rng.standard_normal((n_rx, 2 * layers)) + 1j * rng.standard_normal((n_rx, 2 * layers))) / math.sqrt(2)
    return ChannelMatrix(g)


def _draw_instance(rng, layers, n_rx, sigma_n2):
    h = _draw_channel(rng, n_rx, layers)
    bits = rng.integers(0, 2, size=4 * layers)
    s = qpsk_modulate(bits)
    x = transmit(h, s, NoiseSpec(sigma_n2=sigma_n2, seed=int(rng.integers(1 << 40))))
    return h, s, x


def test_c1_covariance_recursion_vs_dense_inverse():
    worst = 0.0
    for layers in range(1, 9):
        for n_rx in range(layers, 9):
            rng = np.random.default_rng([1, layers, n_rx])
            for _ in range(100):
                rbar = init_gram(_draw_channel(rng, n_rx, layers), 0.1)
                dense = sbm_to_dense(rbar)
                got = sbm_to_dense(init_covariance(rbar))
                want = np.linalg.inv(dense)
                rel = np.linalg.norm(got - want) / np.linalg.norm(want)
                worst = max(worst, rel)
    _report(
        "C1", "covariance recursion vs dense inverse, M=1..8 N=M..8",
        worst <= 1e-10, f"max rel Frobenius err {worst:.3e} vs 1e-10",
    )


def _traced_instances(count, layers, n_rx, alpha, sigma_n2, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        h, s, x = _draw_instance(rng, layers, n_rx, sigma_n2)
        yield s, detect_gstbc(h, x, alpha, record_trace=True)


def test_c2_deflation_matches_leading_inverse():
    worst = 0.0
    depths = 0
    for _, res in _traced_instances(1000, 4, 4, 0.05, 0.05, [2, 4, 4]):
        for step in res.trace:
            ws = step.workspace
            if ws.m == 1:
                continue
            got = sbm_to_dense(deflate_covariance(ws))
            lead = sbm_to_dense(ws.Rbar)[: 2 * ws.m - 2, : 2 * ws.m - 2]
            want = np.linalg.inv(lead)
            worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
            depths += 1
    _report(
        "C2", "deflation vs inverse of leading Gram block, 1000 x (4,4)",
        worst <= 1e-9, f"{depths} depths, max rel err {worst:.3e} vs 1e-9",
    )


def test_c3_structure_preserved_at_every_depth():
    checked = 0
    failure = None
    for _, res in _traced_instances(1000, 4, 4, 0.05, 0.05, [3, 4, 4]):
        for step in res.trace:
            for mat in (step.workspace.Rbar, step.workspace.Qbar):
                try:
                    back = sbm_from_dense(sbm_to_dense(mat), tol=1e-9)
                except StructureViolation as e:
                    failure = str(e)
                    break
                if back != mat:
                    failure = "roundtrip drifted"
                    break
                checked += 1
            if failure:
                break
        if failure:
            break
    _report(
        "C3", "scalar-diagonal/Alamouti structure at every depth",
        failure is None, failure or f"{checked} matrices re-admitted at tol 1e-9",
    )


def test_c4_compressed_recursion_equals_dense_groupwise_sic():
    mismatches = 0
    total = 0
    for layers in (2, 4):
        rng = np.random.default_rng([4, layers])
        sigma_n2 = 0.05  # Eb/N0 = 10 dB at unit symbol energy
        for _ in range(10_000):
            h, _, x = _draw_instance(rng, layers, layers, sigma_n2)
            a = detect_gstbc(h, x, sigma_n2)
            b = detect_sic_groupwise_symbolwise(h, x, sigma_n2)
            total += 1
            if not np.array_equal(a.decisions, b.decisions):
                mismatches += 1
    _report(
        "C4", "hard decisions equal dense group-wise SIC, 2x10^4 instances",
        mismatches == 0, f"{mismatches} mismatches in {total}",
    )


def test_c5_noiseless_estimate_identity():
    alpha = 1e-3
    worst_id = 0.0
    worst_cross = 0.0
    worst_pair = 0.0
    for layers in (3, 4):
        for s, res in _traced_instances(50, layers, layers, alpha, 0.0, [5, layers]):
            s = np.asarray(s)
            for step in res.trace:
                ws = step.workspace
                q = sbm_to_dense(ws.Qbar)
                z = np.asarray(ws.z)
                remaining = np.empty(2 * ws.m, dtype=np.complex128)
                for j in range(ws.m):
                    remaining[2 * j] = s[2 * ws.p[j]]
                    remaining[2 * j + 1] = s[2 * ws.p[j] + 1]
                eye_minus = np.eye(2 * ws.m) - alpha * q
                err = np.abs(q @ z - eye_minus @ remaining).max()
                worst_id = max(worst_id, err)
                for j in range(ws.m):
                    worst_cross = max(
                        worst_cross,
                        abs(eye_minus[2 * j, 2 * j + 1]),
                        abs(eye_minus[2 * j + 1, 2 * j]),
                    )
                est = q @ z
                worst_pair = max(
                    worst_pair, abs(step.y1 - est[-2]), abs(step.y2 - est[-1])
                )
    ok = worst_id <= 1e-9 and worst_cross <= 1e-12 and worst_pair <= 1e-9
    _report(
        "C5", "noiseless soft estimates equal (I - alpha Q)s per depth",
        ok,
        f"identity err {worst_id:.3e} vs 1e-9, within-layer cross {worst_cross:.3e} "
        f"vs 1e-12, emitted pair err {worst_pair:.3e}",
    )


def test_c6a_leading_coefficients_from_measured_counts():
    # the measured count is linear in N with slope 8M^2 + 12M, whose
    # leading coefficient is that of M^2 N, and cubic in M with third
    # difference 64 = 6 (32/3) at fixed N, so the M^3 coefficient is 32/3
    slopes = {m: measure_flops(m, m + 1).real_mults - measure_flops(m, m).real_mults for m in (4, 8, 12, 16)}
    counts = [measure_flops(m, 16) for m in (13, 14, 15, 16)]
    third = {}
    for kind in ("real_mults", "real_adds"):
        c = [getattr(fc, kind) for fc in counts]
        third[kind] = c[3] - 3 * c[2] + 3 * c[1] - c[0]
    ok = all(s == 8 * m * m + 12 * m for m, s in slopes.items()) and set(third.values()) == {64}
    _report(
        "C6a", "leading coefficients 8 (M^2N) and 32/3 (M^3), exact",
        ok,
        f"N-slopes {slopes} vs 8M^2 + 12M, third differences in M at N = 16 {third} vs 64",
    )


def test_c6b_dsttd_receive_terms_exact():
    constants = {n: measure_flops(2, n).real_mults - (8 * 4 * n + 8 * 2 * n + 8 * n) for n in (2, 4, 8)}
    ok = len(set(constants.values())) == 1
    const = constants[2]
    _report(
        "C6b", "DSTTD mult count 56N + constant with exact N-terms",
        ok,
        f"constants per N: {constants}; measured constant {const} vs published 67 "
        "(documented counting-convention offset)",
    )


def test_c6c_three_layer_mult_count():
    measured = measure_flops(3, 3).real_mults
    rel = abs(measured - 570) / 570.0
    _report(
        "C6c", "M=N=3 measured real mults within 5% of 570",
        rel <= 0.05, f"measured {measured}, deviation {rel:.2%}",
    )


def test_c7_speedup_ratios():
    asym = asymptotic_speedup()
    s4, s8 = (cost_dense_sic(n).total / measure_flops(2, n).total for n in (4, 8))
    ok = (
        abs(asym - 2.571) <= 0.01
        and abs(s4 - 1.54) / 1.54 <= 0.05
        and abs(s8 - 4.55) / 4.55 <= 0.05
    )
    _report(
        "C7", "speedup ratios 2.571 asymptotic, 1.54/4.55 DSTTD",
        ok, f"asymptotic {asym:.4f}, N=4 {s4:.4f}, N=8 {s8:.4f}",
    )


def test_c8a_dsttd_2x2_ber_gaps():
    cfg = SimConfig(
        layers=2, n_rx=2, snr_db=(4.0, 6.0, 8.0, 10.0, 12.0),
        detectors=("proposed", "fixed_order", "osic_symbolwise"),
        trials=1_000_000, seed=2022,
    )
    records = run_ber_sweep(cfg)
    target = 1e-3
    s_prop = snr_at_ber(records, "proposed", target)
    s_fixed = snr_at_ber(records, "fixed_order", target)
    s_osic = snr_at_ber(records, "osic_symbolwise", target)
    gain_vs_fixed = s_fixed - s_prop
    loss_vs_osic = s_prop - s_osic
    ok = gain_vs_fixed >= 1.0 and loss_vs_osic <= 0.8
    _report(
        "C8a", "2x2 at BER 1e-3: >=1.0 dB before fixed order, <=0.8 dB after symbol-wise",
        ok,
        f"crossings prop {s_prop:.3f} / fixed {s_fixed:.3f} / osic {s_osic:.3f} dB; "
        f"gain {gain_vs_fixed:.3f} dB, loss {loss_vs_osic:.3f} dB",
    )


def test_c8b_4x4_ber_gap():
    cfg = SimConfig(
        layers=4, n_rx=4, snr_db=(0.0, 2.0, 4.0, 6.0),
        detectors=("proposed", "osic_symbolwise"),
        trials=400_000, seed=2023,
    )
    records = run_ber_sweep(cfg)
    s_prop = snr_at_ber(records, "proposed", 1e-3)
    s_osic = snr_at_ber(records, "osic_symbolwise", 1e-3)
    loss = s_prop - s_osic
    _report(
        "C8b", "4x4 at BER 1e-3: <=0.6 dB after symbol-wise ordering",
        loss <= 0.6, f"crossings prop {s_prop:.3f} / osic {s_osic:.3f} dB; loss {loss:.3f} dB",
    )


def test_c8c_dsttd_n8_all_detector_spread():
    cfg = SimConfig(
        layers=2, n_rx=8, snr_db=(-6.0, -4.0, -2.0, 0.0),
        detectors=("proposed", "fixed_order", "linear_mmse", "osic_symbolwise", "sic_groupwise"),
        trials=1_000_000, seed=2024,
    )
    records = run_ber_sweep(cfg)
    crossings = {d: snr_at_ber(records, d, 1e-4) for d in cfg.detectors}
    detail = ", ".join(f"{d} {v:.3f}" for d, v in crossings.items())
    # only the ordered-SIC detectors are held to the spread: fixed_order
    # lacks the ordering gain (~0.3 dB at N = 8, the size of the bound) and
    # linear_mmse also lacks the cancellation, so those two are checked by
    # rank instead; fixed_order's first layer is exactly the linear MMSE
    # filter, so only cancellation separates it from linear_mmse
    ordered = ("proposed", "sic_groupwise", "osic_symbolwise")
    worst = max(crossings[d] for d in ordered)
    spread = worst - min(crossings[d] for d in ordered)
    ordering_margin = crossings["fixed_order"] - worst
    cancel_margin = crossings["linear_mmse"] - crossings["fixed_order"]
    ok = spread <= 0.3 and ordering_margin > 0.0 and cancel_margin > 0.0
    _report(
        "C8c", "2x8 at BER 1e-4: ordered-SIC spread <=0.3 dB, "
        "ordered SIC < fixed_order < linear_mmse",
        ok,
        f"ordered-SIC spread {spread:.3f} dB; fixed_order behind worst ordered "
        f"{ordering_margin:.3f} dB; linear_mmse behind fixed_order "
        f"{cancel_margin:.3f} dB; crossings (dB): {detail}",
    )


def test_c9_noiseless_exact_recovery():
    bad = {}
    for name, fn in engines.items():
        errors = 0
        for layers, count, seed in ((2, 5000, 91), (4, 5000, 92)):
            rng = np.random.default_rng([9, seed])
            h = (rng.standard_normal((count, layers, 2 * layers)) + 1j * rng.standard_normal((count, layers, 2 * layers))) / math.sqrt(2)
            bits = rng.integers(0, 2, size=(count, 4 * layers))
            s = ((1 - 2 * bits[:, 0::2]) + 1j * (1 - 2 * bits[:, 1::2])) / math.sqrt(2)
            x = np.einsum("bij,bj->bi", equivalent_channel_batch(h), s)
            out = fn(h, x, alpha=1e-9)
            errors += int(np.sum(out.decisions != s))
        if errors:
            bad[name] = errors
    _report(
        "C9", "noiseless exact recovery, 10^4 instances per detector",
        not bad, f"symbol errors by detector: {bad or 'none'}",
    )
