import numpy as np
import pytest

from gstbc.alamouti import sbm_to_dense
from gstbc.channel import ChannelMatrix, NoiseSpec, equivalent_channel_batch, generate_channel, keyed_generator, transmit
from gstbc.detectors import (
    SCALAR_DETECTORS,
    DetectorWorkspace,
    cancel_layer,
    deflate_covariance,
    detect_fixed_order,
    detect_gstbc,
    detect_linear_mmse,
    detect_osic_symbolwise,
    detect_sic_groupwise_symbolwise,
    init_covariance,
    init_gram,
    matched_filter,
    permute_workspace,
)
from gstbc.errors import InvalidDimensions, NonPositiveAlpha
from gstbc.modulation import qpsk_modulate


def random_instance(rng, layers, n_rx, sigma_n2=0.1):
    h = generate_channel(n_rx, layers, seed=int(rng.integers(1 << 30)))
    bits = rng.integers(0, 2, size=4 * layers)
    s = qpsk_modulate(bits)
    x = transmit(h, s, NoiseSpec(sigma_n2=sigma_n2, seed=int(rng.integers(1 << 30))))
    return h, s, x


def test_matched_filter_matches_numpy():
    rng = np.random.default_rng(21)
    for _ in range(10):
        h, _, x = random_instance(rng, 3, 4)
        hp = equivalent_channel_batch(np.asarray(h.gains))
        got = np.array(matched_filter(h, x))
        assert np.allclose(got, hp.conj().T @ np.asarray(x.entries), atol=1e-12)


def test_init_gram_matches_dense_oracle():
    rng = np.random.default_rng(22)
    for _ in range(10):
        layers = int(rng.integers(1, 5))
        n_rx = int(rng.integers(layers, 7))
        h, _, _ = random_instance(rng, layers, n_rx)
        hp = equivalent_channel_batch(np.asarray(h.gains))
        alpha = float(rng.uniform(0.01, 1.0))
        got = sbm_to_dense(init_gram(h, alpha))
        want = hp.conj().T @ hp + alpha * np.eye(2 * layers)
        assert np.allclose(got, want, atol=1e-10)


def test_init_covariance_matches_dense_inverse():
    rng = np.random.default_rng(23)
    for _ in range(30):
        layers = int(rng.integers(1, 6))
        n_rx = int(rng.integers(layers, 8))
        h, _, _ = random_instance(rng, layers, n_rx)
        rbar = init_gram(h, 0.05)
        got = sbm_to_dense(init_covariance(rbar))
        want = np.linalg.inv(sbm_to_dense(rbar))
        assert np.allclose(got, want, atol=1e-9)


def test_deflate_inverts_leading_gram():
    rng = np.random.default_rng(24)
    for _ in range(20):
        layers = int(rng.integers(2, 6))
        h, _, _ = random_instance(rng, layers, layers + 1)
        rbar = init_gram(h, 0.05)
        qbar = init_covariance(rbar)
        ws = DetectorWorkspace(layers, rbar, qbar, (0j,) * (2 * layers), tuple(range(layers)))
        got = sbm_to_dense(deflate_covariance(ws))
        want = np.linalg.inv(sbm_to_dense(rbar)[: 2 * layers - 2, : 2 * layers - 2])
        assert np.allclose(got, want, atol=1e-9)


def test_cancel_layer_preserves_inverse_identity():
    rng = np.random.default_rng(25)
    h, s, x = random_instance(rng, 4, 4)
    rbar = init_gram(h, 0.1)
    qbar = init_covariance(rbar)
    z = matched_filter(h, x)
    ws = DetectorWorkspace(4, rbar, qbar, z, (0, 1, 2, 3))
    for _ in range(3):
        ws = cancel_layer(ws, 0.5 + 0.5j, -0.5 + 0.5j)
        prod = sbm_to_dense(ws.Rbar) @ sbm_to_dense(ws.Qbar)
        assert np.allclose(prod, np.eye(2 * ws.m), atol=1e-9)


def test_permute_workspace_rejects_bad_index():
    rng = np.random.default_rng(26)
    h, _, x = random_instance(rng, 3, 3)
    rbar = init_gram(h, 0.1)
    ws = DetectorWorkspace(3, rbar, init_covariance(rbar), matched_filter(h, x), (0, 1, 2))
    for bad in (0, 1, 3, 8):
        with pytest.raises(InvalidDimensions):
            permute_workspace(ws, bad)


def test_noiseless_recovery_all_detectors():
    rng = np.random.default_rng(27)
    for name, det in SCALAR_DETECTORS.items():
        for _ in range(20):
            layers = int(rng.integers(1, 5))
            n_rx = int(rng.integers(layers, 7))
            h, s, x = random_instance(rng, layers, n_rx, sigma_n2=0.0)
            res = det(h, x, alpha=1e-9)
            assert np.array_equal(res.decisions, np.asarray(s)), name


def test_gstbc_matches_groupwise_sic_reference():
    # the compressed recursion against an independent dense recomputation
    # of the same detection rule: decisions and order must coincide
    rng = np.random.default_rng(28)
    for _ in range(60):
        layers = int(rng.integers(2, 5))
        n_rx = int(rng.integers(layers, 7))
        h, _, x = random_instance(rng, layers, n_rx, sigma_n2=0.3)
        a = detect_gstbc(h, x, alpha=0.05)
        b = detect_sic_groupwise_symbolwise(h, x, alpha=0.05)
        assert a.order == b.order
        assert np.array_equal(a.decisions, b.decisions)
        assert np.allclose(a.soft, b.soft, atol=1e-8)


def test_ordering_prefers_strong_layer():
    # scale layer 1's gains up: its post-MMSE error shrinks, so the
    # ordered detector must take it first while fixed order will not
    h = generate_channel(3, 3, seed=3)
    g = np.asarray(h.gains).copy()
    g[:, 2:4] *= 10.0
    h = type(h)(g)
    s = qpsk_modulate([0, 1, 0, 0, 1, 1, 0, 1, 1, 0, 0, 1])
    x = transmit(h, s, NoiseSpec(sigma_n2=0.05, seed=9))
    ordered = detect_gstbc(h, x, alpha=0.05)
    fixed = detect_fixed_order(h, x, alpha=0.05)
    assert ordered.order[0] == 1
    assert fixed.order == (2, 1, 0)


def test_single_layer_detectors_agree():
    # one layer: the two equivalent columns are orthogonal, so cancelling
    # either symbol cannot move the other and every rule collapses to the
    # same linear estimate
    rng = np.random.default_rng(29)
    for _ in range(20):
        h, _, x = random_instance(rng, 1, int(rng.integers(1, 4)), sigma_n2=0.5)
        results = [det(h, x, alpha=0.1) for det in SCALAR_DETECTORS.values()]
        for res in results[1:]:
            assert np.array_equal(res.decisions, results[0].decisions)
            assert np.allclose(res.soft, results[0].soft, atol=1e-9)


def test_trace_snapshots_cover_every_depth():
    rng = np.random.default_rng(30)
    h, _, x = random_instance(rng, 4, 4)
    res = detect_gstbc(h, x, alpha=0.1, record_trace=True)
    assert res.trace is not None and len(res.trace) == 4
    for step in res.trace:
        prod = sbm_to_dense(step.workspace.Rbar) @ sbm_to_dense(step.workspace.Qbar)
        assert np.allclose(prod, np.eye(2 * step.workspace.m), atol=1e-8)
    assert detect_gstbc(h, x, alpha=0.1).trace is None


def _poisoned(a, at, value):
    out = a.copy()
    out[at] = value
    return out


def test_input_validation():
    # one input contract: every detector raises the same error type for
    # each malformed input (the batch engines too, see
    # test_every_entry_point_rejects_malformed_input)
    rng = np.random.default_rng(31)
    h, _, x = random_instance(rng, 2, 2)
    g, xv = np.asarray(h.gains), np.asarray(x.entries)
    cases = [
        (g[0], xv, 0.1, InvalidDimensions),  # no antenna axis
        (g[None], xv, 0.1, InvalidDimensions),  # a block axis
        (g[:, :3], xv, 0.1, InvalidDimensions),  # odd column count
        (g[:0], xv[:0], 0.1, InvalidDimensions),  # N = 0
        (g[:, :0], xv, 0.1, InvalidDimensions),  # M = 0
        (g, np.zeros(5, dtype=np.complex128), 0.1, InvalidDimensions),
        (g, xv[None], 0.1, InvalidDimensions),
        (_poisoned(g, (1, 2), np.nan), xv, 0.1, InvalidDimensions),
        (_poisoned(g, (0, 3), np.inf), xv, 0.1, InvalidDimensions),
        (g, _poisoned(xv, 1, complex("nan")), 0.1, InvalidDimensions),
        (g, _poisoned(xv, 2, -np.inf), 0.1, InvalidDimensions),
    ] + [(g, x, alpha, NonPositiveAlpha) for alpha in (0.0, -1.0, np.nan, np.inf)]
    for det in SCALAR_DETECTORS.values():
        for gains, samples, alpha, error in cases:
            with pytest.raises(error):
                det(ChannelMatrix(gains), samples, alpha=alpha)
        # no receive antenna: rejected before any row loop reads a first row
        with pytest.raises(InvalidDimensions, match="N, M >= 1"):
            det(ChannelMatrix(np.zeros((0, 4))), np.zeros(0), alpha=0.1)


def test_stage_functions_check_their_input():
    # matched_filter and init_gram, called directly, reject what
    # _check_input rejects on one instance, and a block of gains
    rng = np.random.default_rng(34)
    h, _, x = random_instance(rng, 2, 2)
    g, xv = np.asarray(h.gains), np.asarray(x.entries)
    gb, xb = np.stack([g, 2 * g, 3 * g], axis=-1), np.stack([xv, xv, -xv], axis=-1)
    bad_gains = [g[0], g[:, :3], g[:0], g[:, :0], _poisoned(g, (1, 2), np.nan), _poisoned(g, (0, 3), np.inf),
                 g[None], gb, gb[:, :3], gb[:0], gb[:, :0], gb[None], _poisoned(gb, (1, 2, 0), np.nan)]
    for gains in bad_gains:
        with pytest.raises(InvalidDimensions, match="N x 2M|finite"):
            init_gram(ChannelMatrix(gains), 0.1)
        samples = xb if gains.ndim == 3 else xv
        with pytest.raises(InvalidDimensions, match="N x 2M|finite"):
            matched_filter(ChannelMatrix(gains), samples[: 2 * len(gains)] if gains.ndim > 1 else samples)
    for samples in (xv[:3], xv[None], _poisoned(xv, 1, np.nan)):
        with pytest.raises(InvalidDimensions, match="2N|finite"):
            matched_filter(h, samples)
    for alpha in (0.0, -1.0, np.nan, np.inf, np.complex128(0.1 + 0.5j)):
        with pytest.raises(NonPositiveAlpha):
            init_gram(h, alpha)
    # 1-D gains of length 4 are not read as N = 4
    with pytest.raises(InvalidDimensions, match="N x 2M with N, M >= 1, got \\(4,\\)"):
        matched_filter(ChannelMatrix(g[0]), xv[:2])


def test_flop_counts_are_input_independent():
    rng = np.random.default_rng(32)
    for name, det in SCALAR_DETECTORS.items():
        seen = set()
        for _ in range(4):
            h, _, x = random_instance(rng, 3, 4, sigma_n2=0.2)
            res = det(h, x, alpha=0.07)
            seen.add((res.flops.real_mults, res.flops.real_adds))
        assert len(seen) == 1, name


def test_ordering_is_free():
    rng = np.random.default_rng(33)
    h, _, x = random_instance(rng, 4, 5)
    a = detect_gstbc(h, x, alpha=0.1)
    b = detect_fixed_order(h, x, alpha=0.1)
    assert (a.flops.real_mults, a.flops.real_adds) == (b.flops.real_mults, b.flops.real_adds)
