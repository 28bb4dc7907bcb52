"""Property tests of the recursion's matrix-level kernels.

Each kernel in `gstbc.alamouti` must equal, bit for bit and count for
count, the per-block helper composition it stands for, on Python numbers
(one instance) and on (B,) arrays (a block of B instances), for m = 1..8.
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
    ab_adjoint,
    ab_adjoint_mul,
    ab_mul,
    ab_mul_adjoint,
    ab_scale_real,
    ab_sub,
    sbm_leading,
    sbm_matvec,
    sbm_sub_outer,
    sbm_swap_blocks,
)
from gstbc.batch import PreparedBlock
from gstbc.channel import ChannelMatrix
from gstbc.detectors import (
    DetectorWorkspace,
    _recurse,
    _start_workspace,
    cancel_layer,
    estimate_layer,
    select_layer,
)
from gstbc.flops import FlopCounter, flop_scope
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
    k = len(x)
    rows = [[ab_sub(a.block(i, j), ab_mul_adjoint(x[i], y[j])) for j in range(i + 1, k)] for i in range(k)]
    if border is not None:
        for i in range(k):
            rows[i].append(border[i])
        rows.append([])
    return tuple(tuple(r) for r in rows)


def swap_by_entries(a, i, j):
    # every entry read through the permutation, the lower triangle as the
    # adjoint of the stored block
    perm = list(range(a.m))
    perm[i], perm[j] = perm[j], perm[i]
    diag = tuple(a.diag[p] for p in perm)
    upper = tuple(
        a.block(perm[r], perm[c]) if perm[r] < perm[c] else ab_adjoint(a.block(perm[c], perm[r]))
        for r in range(a.m) for c in range(r + 1, a.m)
    )
    return diag, upper


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
    got, c_got = counted(sbm_sub_outer, a.upper_rows(), x, y, border=border)
    want, c_want = counted(sub_outer_by_helpers, a, x, y, border)
    same(got, want)
    assert c_got == c_want


@SETTINGS
@given(matrices(), st.integers(0, 7), st.integers(0, 7))
def test_swap_equals_entrywise_permutation(case, i, j):
    m, _, a, _ = case
    i, j = i % m, j % m
    got, c = counted(sbm_swap_blocks, a, i, j)
    diag, upper = swap_by_entries(a, i, j)
    same(got.diag, diag)
    same(got.upper, upper)
    assert c == FlopCounter()
    # the kept rows match the flat triangle
    assert got.upper_rows() == StructuredHermitianBlockMatrix(m, got.diag, got.upper).upper_rows()


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
