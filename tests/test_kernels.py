"""Property tests of the recursion's matrix-level kernels.

Each kernel in `gstbc.alamouti` must equal, bit for bit and count for
count, the per-block helper composition it stands for, on Python numbers
(one instance) and on (B,) arrays (a block of B instances), for m = 1..8.
The interchange, on either route, must equal the dense permutation
P^T A P, instance by instance.
Entries are drawn with signed zeros and exact ties among them, where a
regrouped sum or a dropped sign would show.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gstbc.alamouti import (
    AlamoutiBlock,
    StructuredHermitianBlockMatrix,
    ab_add,
    ab_adjoint_mul,
    ab_mul,
    ab_mul_adjoint,
    ab_scale_real,
    ab_sub,
    sbm_from_dense,
    sbm_leading,
    sbm_matvec,
    sbm_sub_outer,
    sbm_to_dense,
)
from gstbc.batch import PreparedBlock
from gstbc.channel import ChannelMatrix
from gstbc.detectors import (
    DetectorWorkspace,
    _recurse,
    _start_workspace,
    cancel_layer,
    estimate_layer,
    permute_workspace,
    select_layer,
)
from gstbc.flops import FlopCounter, cost, flop_scope
from gstbc.modulation import qpsk_slice, qpsk_slice_array

SETTINGS = settings(max_examples=60, deadline=None)
B = 3

SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 0.5])


def draw_entries(rng, count, batch):
    """`count` complex entries: Python numbers, or (B,) arrays if `batch`.
    A third of the parts are exact values, so ties and signed zeros occur."""
    shape = (2, count, B) if batch else (2, count)
    parts = rng.uniform(-4.0, 4.0, shape)
    pick = rng.random(shape) < 1 / 3
    parts[pick] = rng.choice(SPECIAL, size=pick.sum())
    z = parts[0] + 1j * parts[1]
    return list(z) if batch else z.tolist()


@st.composite
def matrices(draw):
    """(m, batch, a StructuredHermitianBlockMatrix, m block pairs)."""
    m = draw(st.integers(1, 8))
    batch = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_up = m * (m - 1) // 2
    e = draw_entries(rng, 2 * n_up + 2 * m, batch)
    d = rng.uniform(0.5, 4.0, (m, B) if batch else m)
    diag = tuple(d) if batch else tuple(d.tolist())
    upper = tuple(AlamoutiBlock(e[2 * k], e[2 * k + 1]) for k in range(n_up))
    v = [AlamoutiBlock(e[2 * n_up + 2 * k], e[2 * n_up + 2 * k + 1]) for k in range(m)]
    return m, batch, StructuredHermitianBlockMatrix(m, diag, upper), v


def same(got, want):
    """Bitwise equality of nested blocks, entry by entry."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, tuple):
            same(g, w)
        else:
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def counted(fn, *args, **kw):
    c = FlopCounter()
    with flop_scope(c):
        out = fn(*args, **kw)
    return out, c


def matvec_by_helpers(a, v):
    out = []
    for i in range(a.m):
        acc = None
        for j in range(a.m):
            if j == i:
                term = ab_scale_real(a.diag[i], v[i])
            elif i < j:
                term = ab_mul(a.block(i, j), v[j])
            else:
                term = ab_adjoint_mul(a.block(j, i), v[j])
            acc = term if acc is None else ab_add(acc, term)
        out.append(acc)
    return out


def sub_outer_by_helpers(a, x, y, border):
    """The off-diagonal rows, counted; the diagonal is read apart."""
    k = len(x)
    rows = [[ab_sub(a.block(i, j), ab_mul_adjoint(x[i], y[j])) for j in range(i + 1, k)] for i in range(k)]
    if border is not None:
        for i in range(k):
            rows[i].append(border[i])
        rows.append([])
    return tuple(tuple(r) for r in rows)


def diag_by_helpers(a, x, y):
    """Each diagonal scalar less the real part of the first entry of
    `ab_mul_adjoint(x[i], y[i])`, on Python numbers: over a block instance
    by instance, as numpy's complex product may round otherwise than the
    real products that the kernel makes."""
    def one(pick):
        return [pick(d) - ab_mul_adjoint(AlamoutiBlock(pick(x1), pick(x2)), AlamoutiBlock(pick(y1), pick(y2))).a1.real
                for d, (x1, x2), (y1, y2) in zip(a.diag, x, y)]

    if not isinstance(a.diag[0], np.ndarray):
        return tuple(one(lambda e: e))
    per = [one(lambda e, b=b: e[b].item()) for b in range(B)]
    return tuple(np.array(col) for col in zip(*per))


def instance(a, b):
    """Instance b of a block's compressed matrix, as Python numbers."""
    return StructuredHermitianBlockMatrix(
        a.m,
        tuple(d[b].item() for d in a.diag),
        tuple(AlamoutiBlock(u.a1[b].item(), u.a2[b].item()) for u in a.upper),
    )


def swap_by_dense(a, t):
    """P^T A P for P the permutation that trades block t with the last,
    compressed again with every entry taken as stored."""
    perm = list(range(2 * a.m))
    perm[2 * t : 2 * t + 2], perm[-2:] = perm[-2:], perm[2 * t : 2 * t + 2]
    return sbm_from_dense(sbm_to_dense(a)[np.ix_(perm, perm)], tol=0)


@SETTINGS
@given(matrices())
def test_matvec_equals_helper_sums(case):
    _, _, a, v = case
    got, c_got = counted(sbm_matvec, a, v)
    want, c_want = counted(matvec_by_helpers, a, v)
    same(got, want)
    assert c_got == c_want


@SETTINGS
@given(matrices(), st.booleans(), st.integers(0, 7))
def test_sub_outer_equals_helper_differences(case, grow, cut):
    # the growth step reads all k rows and appends its border; the
    # deflation reads the leading k of m blocks
    m, _, a, v = case
    k = m if grow else max(1, m - (cut % m))
    x, y = v[:k], [AlamoutiBlock(p.a2, p.a1) for p in v[:k]]
    border = y if grow else None
    (diag, rows), c_got = counted(sbm_sub_outer, a, x, y, border=border)
    want, c_want = counted(sub_outer_by_helpers, a, x, y, border)
    same(rows, want)
    # diagonal scalar i loses the real part of the helper product's first
    # entry, charged as two real parts of products (2 mults and 1 add
    # each), their sum and the difference
    same(diag, diag_by_helpers(a, x, y))
    mults, adds = cost(rmul=4 * k, radd=4 * k)
    assert c_got == FlopCounter(c_want.real_mults + mults, c_want.real_adds + adds)


@SETTINGS
@given(matrices(), st.integers(0, 7))
def test_swap_equals_entrywise_permutation(case, t):
    # one instance, or a block whose instances all choose block t: the
    # block route swaps the drawn (writeable) entries in place, so the
    # oracle is taken first, and its Gram is a copy
    m, batch, a, v = case
    t %= m
    z = tuple(e for p in v for e in p)
    if batch:
        gram = StructuredHermitianBlockMatrix(m, tuple(d.copy() for d in a.diag),
                                              tuple(AlamoutiBlock(u.a1.copy(), u.a2.copy()) for u in a.upper))
        want = [swap_by_dense(instance(a, b), t) for b in range(B)]
        got, c = counted(permute_workspace, DetectorWorkspace(m, gram, a, z, tuple(range(m))), np.full(B, 2 * (t + 1)))
        got = [instance(got.Qbar, b) for b in range(B)]
    else:
        want = [swap_by_dense(a, t)]
        got, c = counted(permute_workspace, DetectorWorkspace(m, a, a, z, tuple(range(m))), 2 * (t + 1))
        # the kept rows match the flat triangle
        assert got.Qbar.upper_rows() == StructuredHermitianBlockMatrix(m, got.Qbar.diag, got.Qbar.upper).upper_rows()
        got = [got.Qbar]
    for g, w in zip(got, want, strict=True):
        same(g.diag, w.diag)
        same(g.upper, w.upper)
    assert c == FlopCounter()


@SETTINGS
@given(matrices(), st.integers(1, 8))
def test_leading_equals_entrywise_submatrix(case, k):
    m, _, a, _ = case
    k = min(k, m)
    got, c = counted(sbm_leading, a, k)
    same(got.diag, a.diag[:k])
    same(got.upper, tuple(a.block(i, j) for i in range(k) for j in range(i + 1, k)))
    assert c == FlopCounter()


def workspace(a, v):
    """A workspace over `a` as both matrices, with v as the matched filter."""
    z = tuple(e for p in v for e in p)
    return DetectorWorkspace(a.m, a, a, z, tuple(range(a.m)))


@SETTINGS
@given(matrices())
def test_estimate_equals_helper_products(case):
    m, _, a, v = case
    ws = workspace(a, v)
    got, c_got = counted(estimate_layer, ws)

    def by_helpers():
        y = ab_scale_real(a.diag[m - 1], v[m - 1])
        for j in range(m - 1):
            y = ab_add(y, ab_adjoint_mul(a.block(j, m - 1), v[j]))
        return y

    want, c_want = counted(by_helpers)
    same(got, want)
    assert c_got == c_want


@SETTINGS
@given(matrices(), st.sampled_from([1, -1]), st.sampled_from([1, -1]))
def test_cancel_equals_helper_products(case, r1, r2):
    m, batch, a, v = case
    if m == 1:
        return
    ws = workspace(a, v)
    s1, s2 = complex(r1, r2), complex(r2, -r1)
    if batch:
        s1, s2 = np.full(B, s1), np.full(B, s2)
    got = cancel_layer(ws, s1, s2)
    # the matched filter loses the Gram column times the pair
    z = []
    for j in range(m - 1):
        z += ab_sub(v[j], ab_mul(a.block(j, m - 1), AlamoutiBlock(s1, s2)))
    same(got.z, tuple(z))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.5, -0.0, 0.0, float("nan"), float("inf")]), st.floats()), min_size=1, max_size=8))
def test_select_layer_loop_is_argmin(diag):
    # exact ties go to the first, a NaN wins at its first place
    m = len(diag)
    q = StructuredHermitianBlockMatrix(m, tuple(diag), (None,) * (m * (m - 1) // 2))
    assert select_layer(DetectorWorkspace(m, None, q, (), ())) == 2 * (np.argmin(diag) + 1)


def snapshot(ws):
    parts = [repr((ws.m, ws.p))]
    for mat in (ws.Rbar, ws.Qbar):
        parts += [np.asarray(e).tobytes() for e in mat.diag]
        parts += [np.asarray(e).tobytes() for blk in mat.upper for e in blk]
    parts += [np.asarray(e).tobytes() for e in ws.z]
    return parts


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(0, 3), st.integers(0, 2**31))
def test_recurse_leaves_its_start_unchanged(m, extra, seed):
    # one start serves several detectors, so the loop may write only into
    # what it allocated itself
    rng = np.random.default_rng(seed)
    n = m + extra
    g = rng.standard_normal((B, n, 2 * m)) + 1j * rng.standard_normal((B, n, 2 * m))
    x = rng.standard_normal((B, 2 * n)) + 1j * rng.standard_normal((B, 2 * n))
    starts = [(_start_workspace(ChannelMatrix(g[0]), x[0], 0.3), qpsk_slice),
              (PreparedBlock(g, x, 0.3).workspace, qpsk_slice_array)]
    for ws, slicer in starts:
        before = snapshot(ws)
        for ordered in (True, False):
            _recurse(ws, slicer, ordered, record_trace=True)
            assert snapshot(ws) == before
