import numpy as np
import pytest

from gstbc import batch
from gstbc.batch import PreparedBlock, detect_fixed_order_batch, detect_gstbc_batch
from gstbc.alamouti import AlamoutiBlock, StructuredHermitianBlockMatrix, sbm_swap_blocks, sbm_to_dense
from gstbc.channel import ChannelMatrix, equivalent_channel_batch
from gstbc.complexity import cost_recursive
from gstbc.detectors import SCALAR_DETECTORS, permute_workspace
from gstbc.errors import TIE_REL_TOL, InvalidDimensions, NonPositiveAlpha, SingularPivot
from gstbc.flops import FlopCounter, flop_scope
from gstbc.sim import DETECTORS as BATCH_PAIRS
from gstbc.modulation import qpsk_slice_array
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
        assert np.array_equal(batched[b], equivalent_channel_batch(h[b]))


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


@pytest.mark.parametrize("name", sorted(BATCH_PAIRS))
def test_batch_soft_matches_scalar(name):
    # every engine follows its counted scalar reference closely enough to
    # compare soft values, not only decisions: the SIC references' batch
    # estimates come from the inverse's update, the scalar ones from a
    # fresh inverse and the cancelled matched filter at every step
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


def test_every_entry_point_rejects_non_finite_alpha():
    # an infinite regularizer is no MMSE problem; all ten entry points name
    # the bad alpha instead of failing a pivot or slicing zeros
    rng = np.random.default_rng(44)
    h, _, x = random_batch(rng, 3, 2, 2, 0.1)
    for alpha in (np.inf, np.nan):
        for name in BATCH_PAIRS:
            with pytest.raises(NonPositiveAlpha, match="finite"):
                BATCH_PAIRS[name](h, x, alpha=alpha)
            with pytest.raises(NonPositiveAlpha, match="finite"):
                SCALAR_DETECTORS[name](ChannelMatrix(h[0]), x[0], alpha=alpha)


def test_batch_rejects_a_block_without_receive_antennas():
    h = np.zeros((3, 0, 4), dtype=np.complex128)
    x = np.zeros((3, 0), dtype=np.complex128)
    for fn in BATCH_PAIRS.values():
        with pytest.raises(InvalidDimensions, match="N, M >= 1"):
            fn(h, x, alpha=0.1)


@pytest.mark.parametrize("layers, n_rx", [(1, 1), (2, 8), (4, 4)])
def test_empty_block_returns_empty_results(layers, n_rx):
    h = np.zeros((0, n_rx, 2 * layers), dtype=np.complex128)
    x = np.zeros((0, 2 * n_rx), dtype=np.complex128)
    for name, fn in BATCH_PAIRS.items():
        out = fn(h, x, alpha=0.1)
        assert out.decisions.shape == out.soft.shape == (0, 2 * layers), name


def test_linear_mmse_builds_no_dense_front_end():
    # the linear equalizer solves with the factor alone; only the SIC
    # references need the inverse
    rng = np.random.default_rng(61)
    h, _, x = random_batch(rng, 5, 3, 4, 0.1)
    block = PreparedBlock(h, x, 0.1)
    batch.detect_linear_mmse_batch(h, x, 0.1, prepared=block)
    assert "cholesky" in vars(block)
    assert "dense_inverse" not in vars(block)


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


def _poisoned(a, at, value):
    out = a.copy()
    out[at] = value
    return out


def test_every_entry_point_rejects_malformed_input():
    # one input contract for both routes: each malformed block raises the
    # same error type from every batch engine as its last instance does
    # from the scalar detector of the same name
    rng = np.random.default_rng(49)
    h, _, x = random_batch(rng, 3, 2, 2, 0.1)
    cases = [
        (h[..., :3], x, 0.1, InvalidDimensions),  # odd column count
        (h[:, :0], x[:, :0], 0.1, InvalidDimensions),  # N = 0
        (h[..., :0], x, 0.1, InvalidDimensions),  # M = 0
        (h, x[:, :3], 0.1, InvalidDimensions),  # sample count
        (_poisoned(h, (2, 0, 2), np.nan), x, 0.1, InvalidDimensions),
        (_poisoned(h, (2, 1, 3), np.inf), x, 0.1, InvalidDimensions),
        (h, _poisoned(x, (2, 1), complex("nan")), 0.1, InvalidDimensions),
        (h, _poisoned(x, (2, 3), -np.inf), 0.1, InvalidDimensions),
    ] + [(h, x, alpha, NonPositiveAlpha) for alpha in (0.0, -1.0, np.nan, np.inf)]
    for name in BATCH_PAIRS:
        # each route refuses the other's number of leading axes
        with pytest.raises(InvalidDimensions):
            BATCH_PAIRS[name](h[0], x[0], alpha=0.1)
        with pytest.raises(InvalidDimensions):
            SCALAR_DETECTORS[name](ChannelMatrix(h), x[0], alpha=0.1)
        for hb, xb, alpha, error in cases:
            with pytest.raises(error):
                BATCH_PAIRS[name](hb, xb, alpha=alpha)
            with pytest.raises(error):
                SCALAR_DETECTORS[name](ChannelMatrix(hb[-1]), xb[-1], alpha=alpha)


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
    # the per-instance swap of a block's workspace checks every index
    rng = np.random.default_rng(52)
    h, _, x = random_batch(rng, 4, 3, 3, 0.1)
    ws = PreparedBlock(h, x, 0.1).workspace
    for bad in (0, 1, 3, 8):
        index = np.full(4, 2)
        index[2] = bad
        with pytest.raises(InvalidDimensions):
            permute_workspace(ws, index)


def _instance(a, b):
    """Instance b of a block's compressed matrix, as Python numbers."""
    return StructuredHermitianBlockMatrix(
        a.m,
        tuple(d[b].item() for d in a.diag),
        tuple(AlamoutiBlock(u.a1[b].item(), u.a2[b].item()) for u in a.upper),
    )


def _same_bits(x, y):
    return np.asarray(x, dtype=np.complex128).tobytes() == np.asarray(y, dtype=np.complex128).tobytes()


def test_front_end_reads_the_gains():
    # over a block the compressed matched filter and Gram are, per
    # instance, H'^H x' and H'^H H' + alpha I of the equivalent channel
    rng = np.random.default_rng(53)
    h, _, x = random_batch(rng, 6, 3, 4, 0.1)
    hp = equivalent_channel_batch(h)
    rbar, z = PreparedBlock(h, x, 0.1).compressed
    for b in range(6):
        dense = np.conj(hp[b]).T
        assert np.allclose([v[b] for v in z], dense @ x[b], rtol=1e-13, atol=1e-13)
        gram = dense @ hp[b] + 0.1 * np.eye(6)
        assert np.allclose(sbm_to_dense(_instance(rbar, b)), gram, rtol=1e-13, atol=1e-13)


def test_block_swap_matches_scalar_swap():
    # the per-instance swap equals, instance by instance and bitwise, the
    # scalar swap of the same workspace, k == last included
    rng = np.random.default_rng(54)
    m, count = 4, 40
    h, _, x = random_batch(rng, count, m, 4, 0.1)
    ws = PreparedBlock(h, x, 0.1).workspace
    rbar, z = ws.Rbar, ws.z
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


def _sic_order(q, live, groupwise, step, j):
    """The symbol that each instance detects next, from the diagonal of
    the downdated inverse `q` over the `live` symbols."""
    idx = np.arange(q.shape[-1])
    diag = np.where(live, np.real(q[:, idx, idx]), np.inf)
    if groupwise and step % 2:
        return j - 1
    if groupwise:
        return 2 * np.argmin(diag[:, 1::2], axis=1) + 1
    near = diag.min(axis=1, keepdims=True) * (1.0 + TIE_REL_TOL)
    return np.argmax(diag <= near, axis=1)


def _downdate(q, rows, j):
    """Downdate every instance's inverse `q` in place by its symbol j,
    zeroing row and column j; returns column j and the pivot before it."""
    qj = q[rows, :, j]
    qjj = np.real(qj[rows, j])
    assert np.all(qjj > 0)
    q -= qj[:, :, None] * (np.conj(qj) / qjj[:, None])[:, None, :]
    q[rows, j, :] = 0
    q[rows, :, j] = 0
    return qj, qjj


def _explicit_downdate_sic(block, groupwise):
    """The SIC kernel with the inverse downdated in full at every step and
    the estimates u = Q z updated through its column: the oracle
    `batch._masked_sic` must match bit for bit."""
    q = block.dense_inverse.copy()
    u = np.einsum("bik,kb->bi", block.dense_inverse, np.asarray(block.compressed[1]))
    b, two_m = u.shape
    rows = np.arange(b)
    live = np.ones((b, two_m), dtype=bool)
    decisions = np.empty((b, two_m), dtype=np.complex128)
    soft = np.empty((b, two_m), dtype=np.complex128)
    j = None
    for step in range(two_m):
        j = _sic_order(q, live, groupwise, step, j)
        y = u[rows, j]
        d = qpsk_slice_array(y)
        decisions[rows, j] = d
        soft[rows, j] = y
        qj, qjj = _downdate(q, rows, j)
        u -= qj * ((y - d) / qjj)[:, None]
        live[rows, j] = False
    return decisions, soft


def _cancelling_sic(h, x, alpha, groupwise):
    """Dense SIC that cancels each decision from the matched filter through
    the Gram column, z -= G[:, j] d, and estimates from the row of the
    downdated inverse, with G = H'^H H' + alpha I and z = H'^H x' of the
    equivalent channel and the inverse from numpy."""
    hp = equivalent_channel_batch(h)
    hh = np.conj(hp).swapaxes(1, 2)
    b, two_m = hp.shape[0], hp.shape[2]
    g = hh @ hp + alpha * np.eye(two_m)
    z = (hh @ x[:, :, None])[:, :, 0]
    q = np.linalg.inv(g)
    rows = np.arange(b)
    live = np.ones((b, two_m), dtype=bool)
    decisions = np.empty((b, two_m), dtype=np.complex128)
    soft = np.empty((b, two_m), dtype=np.complex128)
    j = None
    for step in range(two_m):
        j = _sic_order(q, live, groupwise, step, j)
        y = np.einsum("bk,bk->b", q[rows, j, :], z)
        d = qpsk_slice_array(y)
        decisions[rows, j] = d
        soft[rows, j] = y
        z -= g[rows, :, j] * d[:, None]
        _downdate(q, rows, j)
        live[rows, j] = False
    return decisions, soft


# soft values of `_masked_sic` against `_cancelling_sic`, relative to the
# instance's largest soft value: the two differ by the rounding of the
# Gram, the inverse and the update, which grows with the Gram's condition.
# Over 1,632,000 symbols at (1, 1) to (8, 8) and -6, 0 and 10 dB the
# largest was 4.2e-13 at 0 dB and 2.0e-12 at (8, 8) and 10 dB, with no
# decision flipped
SIC_SOFT_REL = 1e-11


@pytest.mark.parametrize("layers, n_rx", [(1, 1), (2, 2), (2, 8), (4, 4), (8, 8)])
@pytest.mark.parametrize("snr_db", [-6.0, 0.0])
def test_masked_sic_equals_explicit_downdate(layers, n_rx, snr_db):
    # the kernel keeps each downdate as a rank-one term and rebuilds only
    # the column and diagonal it reads; the result is bitwise that of the
    # full downdate, ties at -6 dB included, on a block that is not a
    # whole number of front-end chunks.  Cancelling each decision through
    # the Gram instead gives the same decisions and, to rounding, the same
    # soft values
    rng = np.random.default_rng(57)
    sigma_n2 = sigma_n2_for_snr(snr_db)
    h, _, _ = random_batch(rng, 1, layers, n_rx, sigma_n2)
    h, _, x = random_batch(rng, 2 * batch._chunk_len(h) + 7, layers, n_rx, sigma_n2)
    block = PreparedBlock(h, x, sigma_n2)
    for groupwise in (False, True):
        out = batch._masked_sic(block, groupwise)
        decisions, soft = _explicit_downdate_sic(block, groupwise)
        assert out.decisions.tobytes() == decisions.tobytes(), groupwise
        assert out.soft.tobytes() == soft.tobytes(), groupwise
        decisions, soft = _cancelling_sic(h, x, sigma_n2, groupwise)
        assert np.array_equal(out.decisions, decisions), groupwise
        err = np.abs(out.soft - soft).max(axis=1)
        assert np.all(err <= SIC_SOFT_REL * np.abs(soft).max(axis=1)), (groupwise, err.max())


def _workspace_bytes(ws):
    arrays = [*ws.z, *ws.Rbar.diag, *ws.Qbar.diag]
    arrays += [a for m in (ws.Rbar, ws.Qbar) for u in m.upper for a in u]
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("layers, n_rx", [(2, 8), (8, 8)])
def test_chunked_front_ends_equal_whole_block(layers, n_rx, monkeypatch):
    # the front ends are built chunk by chunk into the final arrays; each
    # entry is bitwise what the same product over the whole block in one
    # chunk gives, and the compressed entries written out are H'^H H' +
    # alpha I and H'^H x' of the equivalent channel to rounding
    rng = np.random.default_rng(58)
    h, _, _ = random_batch(rng, 1, layers, n_rx, 0.1)
    k = batch._chunk_len(h)
    idx = np.arange(2 * layers)
    for count in (1, k - 1, k, 2 * k + 7):
        h, _, x = random_batch(rng, count, layers, n_rx, 0.1)
        block = PreparedBlock(h, x, 0.1)
        rbar, z = block.compressed
        with monkeypatch.context() as patch:
            patch.setattr(batch, "CHUNK_BYTES", h.nbytes)
            whole = PreparedBlock(h, x, 0.1)
            assert _workspace_bytes(block.workspace) == _workspace_bytes(whole.workspace), count
        hp = equivalent_channel_batch(h)
        hh = np.conj(hp).swapaxes(1, 2)
        want_g = hh @ hp
        want_g[:, idx, idx] += 0.1
        want_z = (hh @ x[:, :, None])[:, :, 0]
        g = np.array([sbm_to_dense(_instance(rbar, b)) for b in range(count)])
        for got, want in ((g, want_g), (np.array(z).T, want_z)):
            err = np.abs(got - want).reshape(count, -1).max(axis=1)
            assert np.all(err <= 1e-13 * np.abs(want).reshape(count, -1).max(axis=1)), count
        assert not any(a.flags.writeable for a in (*rbar.diag, *z))
        with pytest.raises(ValueError):
            z[0][0] = 0


@pytest.mark.parametrize("name", sorted(BATCH_PAIRS))
def test_batch_overflowing_instance_raises(name):
    # gains of 1e160 overflow the Gram to inf; with warnings silenced, as
    # a library caller leaves them, every engine still fails loudly and
    # names the one failing instance
    rng = np.random.default_rng(59)
    h, _, x = random_batch(rng, 3, 2, 2, 0.1)
    h[1] *= 1e160
    x[1] *= 1e160
    messages = {
        "linear_mmse": "linear MMSE estimate is not finite in 1 of 3 instances, worst nan",
        "osic_symbolwise": "downdate pivot is not positive in 1 of 3 instances, worst nan",
        "sic_groupwise": "downdate pivot is not positive in 1 of 3 instances, worst nan",
    }
    with np.errstate(all="ignore"), pytest.raises(SingularPivot, match=messages.get(name, "in 1 of 3 instances")):
        BATCH_PAIRS[name](h, x, alpha=1e-3)


@pytest.mark.parametrize("name", sorted(BATCH_PAIRS))
def test_batch_singular_gram_raises_singular_pivot(name):
    # one instance whose layer 0 repeats layer 1: at alpha 1e-30 its
    # regularized Gram is singular to working precision, and LAPACK's
    # error comes out as the library's own
    rng = np.random.default_rng(60)
    h, _, x = random_batch(rng, 3, 2, 2, 0.1)
    h[1, :, 0:2] = h[1, :, 2:4]
    match = "in 1 of 3 instances"
    if name in ("linear_mmse", "osic_symbolwise", "sic_groupwise"):
        match = "regularized Gram is singular in 1 of 3 instances"
    with pytest.raises(SingularPivot, match=match):
        BATCH_PAIRS[name](h, x, alpha=1e-30)
