import numpy as np
import pytest

from gstbc.batch import PreparedBlock, detect_fixed_order_batch, detect_gstbc_batch, equivalent_channel_batch
from gstbc.alamouti import AlamoutiBlock, StructuredHermitianBlockMatrix, sbm_swap_blocks, sbm_to_dense
from gstbc.channel import ChannelMatrix, EquivalentChannel, build_equivalent
from gstbc.complexity import cost_recursive
from gstbc.detectors import (
    SCALAR_DETECTORS,
    DetectorWorkspace,
    init_covariance,
    init_gram,
    matched_filter,
    permute_workspace,
)
from gstbc.errors import InvalidDimensions, NonPositiveAlpha, SingularPivot
from gstbc.flops import FlopCounter, flop_scope
from gstbc.sim import DETECTORS as BATCH_PAIRS
from gstbc.sim import sigma_n2_for_snr


def random_batch(rng, count, layers, n_rx, sigma_n2):
    h = (rng.standard_normal((count, n_rx, 2 * layers)) + 1j * rng.standard_normal((count, n_rx, 2 * layers))) / np.sqrt(2)
    s = (1 - 2 * rng.integers(0, 2, size=(count, 2 * layers))) + 1j * (1 - 2 * rng.integers(0, 2, size=(count, 2 * layers)))
    s = s / np.sqrt(2)
    hp = equivalent_channel_batch(h)
    noise = np.sqrt(sigma_n2 / 2) * (
        rng.standard_normal((count, 2 * n_rx)) + 1j * rng.standard_normal((count, 2 * n_rx))
    )
    x = np.einsum("bij,bj->bi", hp, s) + noise
    return h, s, x


def test_equivalent_channel_batch_matches_scalar():
    rng = np.random.default_rng(41)
    h, _, _ = random_batch(rng, 7, 3, 4, 0.0)
    batched = equivalent_channel_batch(h)
    for b in range(7):
        single = np.asarray(build_equivalent(ChannelMatrix(h[b])).array)
        assert np.array_equal(batched[b], single)


@pytest.mark.parametrize("name", sorted(BATCH_PAIRS))
def test_batch_matches_scalar_decisions(name):
    # same instances through the vectorized engine and the counted scalar
    # reference; hard decisions must agree everywhere (fixed seeds keep
    # floating-point order ties off the boundary)
    rng = np.random.default_rng(42)
    batch_fn = BATCH_PAIRS[name]
    scalar_fn = SCALAR_DETECTORS[name]
    for layers, n_rx in ((2, 2), (2, 4), (3, 3), (4, 4)):
        h, _, x = random_batch(rng, 50, layers, n_rx, sigma_n2=0.1)
        out = batch_fn(h, x, alpha=0.05)
        for b in range(50):
            ref = scalar_fn(ChannelMatrix(h[b]), x[b], alpha=0.05)
            assert np.array_equal(out.decisions[b], ref.decisions), (name, layers, n_rx, b)


@pytest.mark.parametrize("name", ["proposed", "fixed_order", "linear_mmse"])
def test_batch_soft_matches_scalar(name):
    # the structured engines follow the scalar arithmetic closely enough
    # to compare soft values, not only decisions
    rng = np.random.default_rng(43)
    h, _, x = random_batch(rng, 30, 3, 4, sigma_n2=0.2)
    out = BATCH_PAIRS[name](h, x, alpha=0.05)
    for b in range(30):
        ref = SCALAR_DETECTORS[name](ChannelMatrix(h[b]), x[b], alpha=0.05)
        assert np.allclose(out.soft[b], ref.soft, atol=1e-8), (name, b)


def test_batch_noiseless_recovery():
    rng = np.random.default_rng(44)
    for name, fn in BATCH_PAIRS.items():
        h, s, x = random_batch(rng, 40, 2, 3, sigma_n2=0.0)
        out = fn(h, x, alpha=1e-9)
        assert np.array_equal(out.decisions, s), name


def test_shared_prepared_block_matches_fresh_calls():
    # every detector reads the same prepared block in either order and
    # returns bytewise what a call that prepares its own block returns, so
    # no detector may write the cached inverse or matched filter
    rng = np.random.default_rng(55)
    h, _, x = random_batch(rng, 60, 3, 4, sigma_n2=0.3)
    fresh = {name: fn(h, x, 0.15) for name, fn in BATCH_PAIRS.items()}
    for names in (list(BATCH_PAIRS), list(BATCH_PAIRS)[::-1]):
        block = PreparedBlock(h, x, 0.15)
        for name in names:
            out = BATCH_PAIRS[name](h, x, 0.15, prepared=block)
            assert out.decisions.tobytes() == fresh[name].decisions.tobytes(), name
            assert out.soft.tobytes() == fresh[name].soft.tobytes(), name


def test_prepared_block_must_hold_the_call_block():
    rng = np.random.default_rng(56)
    h, _, x = random_batch(rng, 4, 2, 2, 0.1)
    block = PreparedBlock(h, x, 0.1)
    for fn in BATCH_PAIRS.values():
        with pytest.raises(ValueError, match="different"):
            fn(h.copy(), x, 0.1, prepared=block)
        with pytest.raises(ValueError, match="different"):
            fn(h, x, 0.2, prepared=block)


def test_batch_rejects_bad_alpha():
    rng = np.random.default_rng(45)
    h, _, x = random_batch(rng, 3, 2, 2, 0.1)
    for fn in BATCH_PAIRS.values():
        with pytest.raises(NonPositiveAlpha):
            fn(h, x, alpha=0.0)


def test_batch_single_instance_shapes():
    rng = np.random.default_rng(46)
    h, _, x = random_batch(rng, 1, 4, 6, 0.1)
    out = detect_gstbc_batch(h, x, alpha=0.1)
    assert out.decisions.shape == (1, 8)
    assert out.soft.shape == (1, 8)


def test_osic_symbolwise_breaks_structural_ties_like_scalar():
    # while only whole layers are gone, both symbols of each remaining layer
    # have equal inverse diagonals; both routes must resolve that tie by the
    # lowest-index rule, not by rounding, on every instance
    rng = np.random.default_rng(48)
    sigma_n2 = sigma_n2_for_snr(-6.0)
    h, _, x = random_batch(rng, 300, 4, 4, sigma_n2)
    out = BATCH_PAIRS["osic_symbolwise"](h, x, alpha=sigma_n2)
    for b in range(300):
        ref = SCALAR_DETECTORS["osic_symbolwise"](ChannelMatrix(h[b]), x[b], alpha=sigma_n2)
        assert np.array_equal(out.decisions[b], ref.decisions), b


def test_batch_rejects_non_finite_input():
    rng = np.random.default_rng(49)
    h, _, x = random_batch(rng, 3, 2, 2, 0.1)
    nan_h = h.copy()
    nan_h[1, 0, 2] = complex("nan")
    nan_x = x.copy()
    nan_x[2, 1] = complex("nan")
    for fn in BATCH_PAIRS.values():
        with pytest.raises(InvalidDimensions):
            fn(nan_h, x, alpha=0.1)
        with pytest.raises(InvalidDimensions):
            fn(h, nan_x, alpha=0.1)


@pytest.mark.parametrize("layers, n_rx", [(2, 2), (2, 8), (4, 4), (8, 8)])
def test_batch_recursion_counts_one_instance(layers, n_rx):
    # the batch route runs the counted recursion over (B,) arrays, so a
    # scope around a block call sees exactly one instance's cost
    rng = np.random.default_rng(50)
    h, _, x = random_batch(rng, 5, layers, n_rx, 0.1)
    want = cost_recursive(layers, n_rx)
    for fn in (detect_gstbc_batch, detect_fixed_order_batch):
        counter = FlopCounter()
        with flop_scope(counter):
            fn(h, x, alpha=0.1)
        assert counter == want, fn.__name__


def test_batch_guard_counts_failing_instances():
    # one instance with a silent layer and a vanishing regularizer: the
    # block fails, and the message says how many instances did
    rng = np.random.default_rng(51)
    h, _, x = random_batch(rng, 3, 2, 2, 0.1)
    h[1, :, 2:4] = 0
    for fn in (detect_gstbc_batch, detect_fixed_order_batch):
        with pytest.raises(SingularPivot, match="1 of 3 instances"):
            fn(h, x, alpha=1e-20)


def test_permute_workspace_rejects_bad_block_indices():
    # the per-instance swap of a batch-last workspace checks every index
    rng = np.random.default_rng(52)
    h, _, x = random_batch(rng, 4, 3, 3, 0.1)
    hp = ChannelMatrix(np.ascontiguousarray(h.transpose(1, 2, 0)))
    rbar = init_gram(hp, 0.1)
    ws = DetectorWorkspace(3, rbar, init_covariance(rbar), matched_filter(hp, x.T), (0, 1, 2))
    for bad in (0, 1, 3, 8):
        index = np.full(4, 2)
        index[2] = bad
        with pytest.raises(InvalidDimensions):
            permute_workspace(ws, index)


def _batch_last(h):
    return ChannelMatrix(np.ascontiguousarray(h.transpose(1, 2, 0)))


def _instance(a, b):
    """Instance b of a batch-last compressed matrix, as Python numbers."""
    return StructuredHermitianBlockMatrix(
        a.m,
        tuple(d[b].item() for d in a.diag),
        tuple(AlamoutiBlock(u.a1[b].item(), u.a2[b].item()) for u in a.upper),
    )


def _same_bits(x, y):
    return np.asarray(x, dtype=np.complex128).tobytes() == np.asarray(y, dtype=np.complex128).tobytes()


def test_front_end_reads_the_gains():
    # on a batch-last block the matched filter and the Gram are, per
    # instance, H'^H x' and H'^H H' + alpha I of the equivalent channel,
    # and an equivalent-channel input gives bitwise the same entries
    rng = np.random.default_rng(53)
    h, _, x = random_batch(rng, 6, 3, 4, 0.1)
    hp = equivalent_channel_batch(h)
    z = matched_filter(_batch_last(h), x.T)
    rbar = init_gram(_batch_last(h), 0.1)
    eq = EquivalentChannel(np.ascontiguousarray(hp.transpose(1, 2, 0)))
    assert all(_same_bits(a, b) for a, b in zip(z, matched_filter(eq, x.T)))
    other = init_gram(eq, 0.1)
    assert all(_same_bits(a, b) for a, b in zip(other.diag, rbar.diag))
    assert all(_same_bits(u, v) for a, b in zip(other.upper, rbar.upper) for u, v in zip(a, b))
    for b in range(6):
        dense = np.conj(hp[b]).T
        assert np.allclose([v[b] for v in z], dense @ x[b], rtol=1e-13, atol=1e-13)
        gram = dense @ hp[b] + 0.1 * np.eye(6)
        assert np.allclose(sbm_to_dense(_instance(rbar, b)), gram, rtol=1e-13, atol=1e-13)
        # one instance: the gains and the built equivalent channel agree bitwise
        one = ChannelMatrix(h[b])
        assert matched_filter(one, x[b]) == matched_filter(build_equivalent(one), x[b])
        assert init_gram(one, 0.1) == init_gram(build_equivalent(one), 0.1)


def test_block_swap_matches_scalar_swap():
    # the per-instance swap equals, instance by instance and bitwise, the
    # scalar swap of the same workspace, k == last included
    rng = np.random.default_rng(54)
    m, count = 4, 40
    h, _, x = random_batch(rng, count, m, 4, 0.1)
    rbar = init_gram(_batch_last(h), 0.1)
    z = matched_filter(_batch_last(h), x.T)
    ws = DetectorWorkspace(m, rbar, init_covariance(rbar), z, tuple(range(m)))
    k = rng.integers(0, m, size=count)
    k[:m] = np.arange(m)
    swapped = permute_workspace(ws, 2 * (k + 1))
    for b in range(count):
        kb, last = int(k[b]), m - 1
        zb = [v[b].item() for v in z]
        zb[2 * kb : 2 * kb + 2], zb[2 * last :] = zb[2 * last :], zb[2 * kb : 2 * kb + 2]
        pb = list(range(m))
        pb[kb], pb[last] = pb[last], pb[kb]
        for got, want in ((swapped.Rbar, sbm_swap_blocks(_instance(rbar, b), kb, last)),
                          (swapped.Qbar, sbm_swap_blocks(_instance(ws.Qbar, b), kb, last))):
            assert all(_same_bits(d[b], e) for d, e in zip(got.diag, want.diag)), b
            assert all(_same_bits(u.a1[b], v.a1) and _same_bits(u.a2[b], v.a2)
                       for u, v in zip(got.upper, want.upper)), b
        assert all(_same_bits(v[b], w) for v, w in zip(swapped.z, zb)), b
        assert [int(np.broadcast_to(q, k.shape)[b]) for q in swapped.p] == pb, b
