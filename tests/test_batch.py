import weakref

import numpy as np
import pytest

from gstbc import batch
from gstbc.batch import PreparedBlock, detect_fixed_order_batch, detect_gstbc_batch
from gstbc.alamouti import AlamoutiBlock, StructuredHermitianBlockMatrix, sbm_from_dense, sbm_to_dense
from gstbc.channel import ChannelMatrix, equivalent_channel_batch
from gstbc.complexity import cost_recursive
from gstbc.detectors import SCALAR_DETECTORS, DetectorWorkspace, permute_workspace
from gstbc.errors import TIE_REL_TOL, InvalidDimensions, NonPositiveAlpha, SingularPivot
from gstbc.flops import FlopCounter, cost, flop_scope
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
            out = BATCH_PAIRS[name](None, None, 0.15, prepared=block)
            assert out.decisions.tobytes() == fresh[name].decisions.tobytes(), name
            assert out.soft.tobytes() == fresh[name].soft.tobytes(), name


def test_prepared_call_passes_no_gains_and_the_block_alpha():
    # a call with prepared= passes h = x = None and the block's alpha; a
    # call that passes the block's own gains or samples, or another
    # alpha, is refused; an array alpha is refused by the rule too, not by
    # numpy's ambiguous truth value
    rng = np.random.default_rng(56)
    h, _, x = random_batch(rng, 4, 2, 2, 0.1)
    block = PreparedBlock(h, x, 0.1)
    for fn in BATCH_PAIRS.values():
        for args in ((h, x, 0.1), (h, None, 0.1), (None, x, 0.1), (h.copy(), x, 0.1), (None, None, 0.2),
                     (None, None, np.array([0.1])), (None, None, np.array([0.1, 0.2]))):
            with pytest.raises(ValueError, match="passes h = x = None and the prepared block's alpha"):
                fn(*args, prepared=block)


def test_block_without_gains_answers_from_its_entries():
    # a block holds no gains, so each detector answers from its compressed
    # entries bytewise what a fresh call returns, and its first call on the
    # block still charges N for the front end, as a fresh call does
    rng = np.random.default_rng(59)
    h, _, x = random_batch(rng, 30, 3, 5, sigma_n2=0.2)
    for name, fn in BATCH_PAIRS.items():
        block = PreparedBlock(h, x, 0.2)
        assert not hasattr(block, "h") and not hasattr(block, "x")
        with flop_scope(FlopCounter()) as prepared:
            out = fn(None, None, 0.2, prepared=block)
        with flop_scope(FlopCounter()) as fresh:
            want = fn(h, x, 0.2)
        assert prepared == fresh, name
        assert out.decisions.tobytes() == want.decisions.tobytes(), name
        assert out.soft.tobytes() == want.soft.tobytes(), name


def test_prepared_block_holds_no_gains():
    # a block keeps its compressed entries, not the gains or samples they
    # came from
    rng = np.random.default_rng(60)
    h, _, x = random_batch(rng, 8, 3, 4, 0.1)
    refs = weakref.ref(h), weakref.ref(x)
    block = PreparedBlock(h, x, 0.1)
    del h, x
    assert [r() for r in refs] == [None, None]
    assert BATCH_PAIRS["proposed"](None, None, 0.1, prepared=block).decisions.shape == (8, 6)


@pytest.mark.parametrize("kind", [np.float32, np.float16, np.float64, np.array])
def test_numpy_real_alpha_answers_as_its_float(kind):
    # a NumPy real scalar or 0-d array alpha gives, on both routes, the
    # decisions, soft values and flop counts of the Python float of the
    # same value
    rng = np.random.default_rng(62)
    alpha = kind(0.1)
    for layers, n_rx in ((2, 2), (4, 4)):
        h, _, x = random_batch(rng, 3, layers, n_rx, 0.1)
        for name in BATCH_PAIRS:
            calls = [(BATCH_PAIRS[name], h, x)]
            calls += [(SCALAR_DETECTORS[name], ChannelMatrix(h[b]), x[b]) for b in range(3)]
            for fn, g, xv in calls:
                with flop_scope(FlopCounter()) as got_flops:
                    got = fn(g, xv, alpha)
                with flop_scope(FlopCounter()) as want_flops:
                    want = fn(g, xv, float(alpha))
                assert got.decisions.tobytes() == want.decisions.tobytes(), (name, kind)
                assert got.soft.tobytes() == want.soft.tobytes(), (name, kind)
                assert got_flops == want_flops, (name, kind)


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
    batch.detect_linear_mmse_batch(None, None, 0.1, prepared=block)
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
    ] + [(h, x, alpha, NonPositiveAlpha) for alpha in (0.0, -1.0, np.nan, np.inf, 0.1 + 0.5j, np.complex128(0.1 + 0.5j),
                                                      True, np.True_, np.array([0.1]), np.array([0.1, 0.2]), "0.1",
                                                      10**400)]
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


@pytest.mark.parametrize("layers, n_rx", [(1, 1), (2, 8), (4, 4), (8, 8)])
def test_batch_references_count_their_factor(layers, n_rx):
    # of the dense references only the factor charges: one instance's
    # rank-one updates, sbm_sub_outer over the leading k blocks for k =
    # M - 1 down to 1
    rng = np.random.default_rng(63)
    h, _, x = random_batch(rng, 5, layers, n_rx, 0.1)
    want = FlopCounter()
    for k in range(1, layers):
        n = k * (k - 1) // 2
        mults, adds = cost(cmul=4 * n, cadd=2 * n + 2 * n, rmul=4 * k, radd=4 * k)
        want.real_mults += mults
        want.real_adds += adds
    for name in ("linear_mmse", "osic_symbolwise", "sic_groupwise"):
        with flop_scope(FlopCounter()) as counter:
            BATCH_PAIRS[name](h, x, alpha=0.1)
        assert counter == want, name


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


def _writeable_copy(ws):
    """`ws` with every entry a writeable copy and the positions arrays."""
    def copy(a):
        upper = tuple(AlamoutiBlock(u.a1.copy(), u.a2.copy()) for u in a.upper)
        return StructuredHermitianBlockMatrix(a.m, tuple(d.copy() for d in a.diag), upper)

    p = tuple(np.full(len(ws.z[0]), q) for q in ws.p)
    return DetectorWorkspace(ws.m, copy(ws.Rbar), copy(ws.Qbar), tuple(v.copy() for v in ws.z), p)


def _workspace_arrays(ws):
    """The entries of `ws` but its positions."""
    return [*ws.z, *ws.Rbar.diag, *ws.Qbar.diag, *(a for m in (ws.Rbar, ws.Qbar) for u in m.upper for a in u)]


def _assert_swapped(ws, k, swapped):
    """Instance b of `swapped`, and the scalar swap of instance b of `ws`,
    are bitwise the dense permutation P^T A P that trades block k[b] with
    the last."""
    m, last = ws.m, ws.m - 1
    for b in range(len(k)):
        kb = int(k[b])
        zb = [v[b].item() for v in ws.z]
        zb[2 * kb : 2 * kb + 2], zb[2 * last :] = zb[2 * last :], zb[2 * kb : 2 * kb + 2]
        pb = list(range(m))
        pb[kb], pb[last] = pb[last], pb[kb]
        perm = list(range(2 * m))
        perm[2 * kb : 2 * kb + 2], perm[2 * last :] = perm[2 * last :], perm[2 * kb : 2 * kb + 2]
        one = DetectorWorkspace(m, _instance(ws.Rbar, b), _instance(ws.Qbar, b),
                                tuple(v[b].item() for v in ws.z), tuple(range(m)))
        scalar = permute_workspace(one, 2 * (kb + 1))
        for got, by_scalar, a in ((swapped.Rbar, scalar.Rbar, one.Rbar), (swapped.Qbar, scalar.Qbar, one.Qbar)):
            want = sbm_from_dense(sbm_to_dense(a)[np.ix_(perm, perm)], tol=0)
            for each in (_instance(got, b), by_scalar):
                assert all(_same_bits(d, e) for d, e in zip(each.diag, want.diag, strict=True)), b
                assert all(_same_bits(u.a1, v.a1) and _same_bits(u.a2, v.a2)
                           for u, v in zip(each.upper, want.upper, strict=True)), b
        for z in ([v[b] for v in swapped.z], scalar.z):
            assert all(_same_bits(v, w) for v, w in zip(z, zb, strict=True)), b
        assert [int(np.broadcast_to(q, k.shape)[b]) for q in swapped.p] == pb == list(scalar.p), b


def test_block_swap_matches_scalar_swap():
    # the per-instance swap and the scalar swap of the same workspace
    # equal, instance by instance and bitwise, the dense permutation, with
    # k drawn over every block,
    # all equal to the last, or one group only.  A prepared start is
    # read-only and stays as it was; a workspace of writeable entries is
    # swapped in place, into its own arrays
    rng = np.random.default_rng(54)
    count = 40
    for m in (1, 2, 3, 5, 8):
        h, _, x = random_batch(rng, count, m, m, 0.1)
        ws = PreparedBlock(h, x, 0.1).workspace
        before = _workspace_bytes(ws)
        drawn = rng.integers(0, m, size=count)
        drawn[:m] = np.arange(m)
        for k in (drawn, np.full(count, m - 1), np.full(count, (m - 1) // 2)):
            _assert_swapped(ws, k, permute_workspace(ws, 2 * (k + 1)))
            assert _workspace_bytes(ws) == before, (m, k)
            own = _writeable_copy(ws)
            arrays = [*_workspace_arrays(own), *own.p]
            swapped = permute_workspace(own, 2 * (k + 1))
            _assert_swapped(ws, k, swapped)
            assert all(a is b for a, b in zip([*_workspace_arrays(swapped), *swapped.p], arrays, strict=True)), (m, k)
            assert _workspace_bytes(ws) == before, (m, k)


@pytest.mark.parametrize("layers, n_rx", [(1, 1), (3, 4)])
def test_every_front_end_is_read_only(layers, n_rx):
    # every detector on a block shares its front ends, so none may write
    # them: the swap copies a read-only entry before its first write
    rng = np.random.default_rng(61)
    h, _, x = random_batch(rng, 5, layers, n_rx, 0.1)
    block = PreparedBlock(h, x, 0.1)
    (rbar, z), (inv_diag, cols) = block.compressed, block.cholesky
    arrays = [*rbar.diag, *(a for u in rbar.upper for a in u), *z, *_workspace_arrays(block.workspace)]
    arrays += [*inv_diag, *(a for col in cols for u in col for a in u)]
    arrays.append(block.dense_inverse)
    assert not any(a.flags.writeable for a in arrays)


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
    return [np.asarray(a).tobytes() for a in _workspace_arrays(ws)]


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
        g = sbm_to_dense(rbar)
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
