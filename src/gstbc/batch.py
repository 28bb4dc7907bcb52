"""Detector engines over blocks of instances, for Monte Carlo runs.

All engines take the physical channel `h` of shape (B, N, 2M) and the
stacked received block `x` of shape (B, 2N), check them as the scalar
detectors do (`channel._check_input`), and return (B, 2M) decisions
and soft values.  `DETECTORS`, which `gstbc.sim` re-exports, names them.

Every engine reads its block through a `PreparedBlock`, which checks the
block and builds the recursion's compressed Gram and matched filter
(`_compressed`) when it is made, and keeps no gains or samples: every
other front end is built from those entries on first use (the
recursion's starting state, the block factor of the regularized Gram,
and that Gram's inverse).  A sweep builds one per slice of a drawn block
(at most `sim.SLICE_SIZE` instances) and passes it as `prepared=`, with
h = x = None and the block's alpha, to every detector, so the front ends
are computed once per slice.  A call without `prepared` builds its own
block, so both calls run the same code.

The compressed entries come from one batched product per chunk of instances
(`CHUNK_BYTES` of gains each), P = h^T conj([h | x1 | conj(x2)]) with
x1, x2 the two slots' samples.  The column-pair orthogonality of the
equivalent channel makes every block of its Gram Alamouti, so a block's
two parts and a diagonal scalar are each a sum or difference of two
entries of P, and so is each matched-filter entry: that is about half the
dense Gram's products, and no equivalent channel is ever built.  The
compressed entries are stored batch-last, one (B,) array each.

`proposed` and `fixed_order` run the counted recursion of
`gstbc.detectors` itself over those (B,) entries, from `init_covariance`
on; building the start charges what `matched_filter` and `init_gram`
charge, so a `flop_scope` around an unprepared call counts one instance
exactly.  The dense references share one factor of the regularized Gram
G, grown over Alamouti blocks of (B,) entries by the recursion's rank-one
update but from none of its state (`PreparedBlock.cholesky`), and one
block solve on it (`PreparedBlock.solve`), which gives `linear_mmse` and
the inverse Q = G^-1 (`PreparedBlock.dense_inverse`).  No LAPACK routine
is called: for the small Grams of a sweep its per-instance call costs
more than the arithmetic.  A `flop_scope` around a dense reference
counts only the factor's rank-one updates, sum_{k=1}^{M-1} (8k^2 - 4k)
real mults and as many adds per instance.  The two symbol-wise SIC
references share `_masked_sic`, which makes the decisions of
`detectors._dense_sic` without re-inverting: it forms the estimates
u = Q z once and, after each detected symbol, downdates Q by rank one
and updates u through the same column of Q.  It keeps the downdates as
rank-one terms and applies them only to the (B, 2M) column and diagonal
that the next step reads, so the shared inverse is never copied or
rewritten and no Gram is read.  Every engine slices to QPSK.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import detectors
from .alamouti import AlamoutiBlock, StructuredHermitianBlockMatrix, sbm_from_rows, sbm_sub_outer, sbm_to_dense
from .channel import _check_input
from .errors import PIVOT_REL_TOL, TIE_REL_TOL, SingularPivot
from .flops import charge
from .modulation import qpsk_slice_array

# bytes of gains per chunk of instances when a block's front ends are
# built: the chunk's conjugated gains and its product then stay in a 2 MiB
# L2 cache.  Of 32 KiB to 1 MiB, this built the compressed entries and a
# dense Gram expanded from them within 10% of the fastest at (2, 8),
# (4, 4), (8, 8) and (16, 16)
CHUNK_BYTES = 128 * 1024


@dataclass
class BatchDetection:
    decisions: np.ndarray  # (B, 2M) hard constellation points
    soft: np.ndarray  # (B, 2M) pre-slicing estimates


def _chunk_len(h) -> int:
    """Instances per chunk of a block with gains `h` (B, N, 2M)."""
    return max(1, CHUNK_BYTES // (h.itemsize * h.shape[1] * h.shape[2]))


def _product_index(m: int) -> tuple:
    """Where the compressed entries' terms sit in the flattened product
    P (2M x (2M + 2)) of `_compressed`, and where they go.

    Returns the flat positions of P[2j, 2i], P[2i+1, 2j+1], P[2j, 2i+1],
    P[2i, 2j+1] over the pairs i < j (row-major, as `upper` holds them),
    then of P[k, k], P[k, 2M] and P[k, 2M+1] over k < 2M, and the slices
    of that list that each group takes.
    """
    i, j = np.triu_indices(m, 1)
    k = np.arange(2 * m)
    width = 2 * m + 2
    groups = [2 * j * width + 2 * i, (2 * i + 1) * width + 2 * j + 1, 2 * j * width + 2 * i + 1,
              2 * i * width + 2 * j + 1, k * width + k, k * width + 2 * m, k * width + 2 * m + 1]
    bounds = np.cumsum([0] + [len(g) for g in groups])
    return np.concatenate(groups), [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _compressed(h, x, alpha) -> tuple:
    """The compressed regularized Gram (a `StructuredHermitianBlockMatrix`)
    and the matched filter's 2M entries of a checked block, each entry a
    read-only (B,) array.

    Per instance, with a = h[:, 0::2], b = h[:, 1::2], x1 = x[0::2]
    and x2 = x[1::2], one product P = h^T conj([h | x1 | conj(x2)])
    holds every sum needed.  Block (i, j) of the Gram is Alamouti with
    a1 = a_i^H a_j + conj(b_i^H b_j) = P[2j, 2i] + P[2i+1, 2j+1] and
    a2 = b_i^H a_j - a_i^T conj(b_j) = P[2j, 2i+1] - P[2i, 2j+1]; its
    diagonal scalar i is Re(P[2i, 2i]) + Re(P[2i+1, 2i+1]) + alpha;
    and the matched filter's pair i is (a_i^H x1 + b_i^T x2,
    b_i^H x1 - a_i^T x2) = (conj(P[2i, 2M]) + P[2i+1, 2M+1],
    conj(P[2i+1, 2M]) - P[2i, 2M+1]).  The products are made a chunk
    of instances at a time and each entry is stored batch-last, one
    (B,) row.
    """
    b, n, two_m = h.shape
    m = two_m // 2
    step = _chunk_len(h)
    index, (p1, q1, p2, q2, sq, f, y) = _product_index(m)
    diag = np.empty((m, b))
    a1 = np.empty((m * (m - 1) // 2, b), dtype=np.complex128)
    a2 = np.empty_like(a1)
    z = np.empty((two_m, b), dtype=np.complex128)
    rhs = np.empty((min(step, b), n, two_m + 2), dtype=np.complex128)
    prod = np.empty((min(step, b), two_m, two_m + 2), dtype=np.complex128)
    for lo in range(0, b, step):
        hc, xc = h[lo : lo + step], x[lo : lo + step]
        c = len(hc)
        np.conjugate(hc, out=rhs[:c, :, :two_m])
        np.conjugate(xc[:, 0::2], out=rhs[:c, :, two_m])
        rhs[:c, :, two_m + 1] = xc[:, 1::2]
        p = np.matmul(hc.swapaxes(1, 2), rhs[:c], out=prod[:c])
        t = np.take(p.reshape(c, -1), index, axis=1, mode="clip")
        np.add(t[:, p1], t[:, q1], out=a1[:, lo : lo + c].T)
        np.subtract(t[:, p2], t[:, q2], out=a2[:, lo : lo + c].T)
        d = t[:, sq].real
        np.add(d[:, 0::2], d[:, 1::2], out=diag[:, lo : lo + c].T)
        fc = np.conjugate(t[:, f])
        np.add(fc[:, 0::2], t[:, y][:, 1::2], out=z[0::2, lo : lo + c].T)
        np.subtract(fc[:, 1::2], t[:, y][:, 0::2], out=z[1::2, lo : lo + c].T)
    diag += alpha
    for a in (diag, a1, a2, z):
        a.flags.writeable = False
    return StructuredHermitianBlockMatrix(m, tuple(diag), tuple(map(AlamoutiBlock, a1, a2))), tuple(z)


class PreparedBlock:
    """The compressed front end of one checked block, and the front ends
    its detectors share.

    Built from the physical channels `h` (B, N, 2M), the stacked samples
    `x` (B, 2N) and `alpha`, which it checks, and from which it builds
    `compressed`, the recursion's compressed regularized Gram and matched
    filter (`_compressed`).  It keeps no gains or samples: the other
    front ends are built from `compressed` on first use and then kept for
    every later detector on the same block: `workspace`, the recursion's
    starting state; `cholesky`, the Gram's block factor U U^H, which
    `solve` solves with for `linear_mmse`; `dense_inverse`, the Gram's
    inverse from those solves, which the SIC references downdate.  Every
    array is marked read-only: detectors share them, and the recursion's
    swap copies an entry before it writes one.  A Gram with a vanishing
    factor pivot raises `SingularPivot`.
    """

    def __init__(self, h, x, alpha):
        _check_input(h, x, alpha, 1)
        self.alpha = alpha
        # N, which the flop charge of `workspace` reads
        self.n_rx = h.shape[1]
        self.compressed = _compressed(h, x, alpha)

    @cached_property
    def workspace(self) -> detectors.DetectorWorkspace:
        """The recursion's starting state.  Building it charges, per
        instance, what `matched_filter` and `init_gram` charge."""
        rbar, z = self.compressed
        charge(*detectors._matched_filter_cost(self.n_rx, rbar.m))
        charge(*detectors._gram_cost(self.n_rx, rbar.m))
        ws = detectors._grow_workspace(rbar, z)
        for a in (*ws.Qbar.diag, *(x for u in ws.Qbar.upper for x in u)):
            a.flags.writeable = False
        return ws

    @cached_property
    def cholesky(self) -> tuple:
        """The factor G = U U^H of each instance's regularized Gram G, as
        (inv_diag, cols) of (B,) entries: U is block upper triangular, its
        diagonal block k is I / inv_diag[k], and cols[k] holds its k
        Alamouti blocks U[i, k], i < k.

        The last layer goes first.  With S the Schur complement still to
        factor (at first the compressed Gram), d its last diagonal scalar
        and b its last block column, U's column is u = b / sqrt(d), and S
        becomes its leading blocks less u u^H, by `sbm_sub_outer`, which
        charges.  A pivot d at or below PIVOT_REL_TOL times the instance's
        mean diagonal (the rule of `dense.gj_inverse_hpd`) raises
        `SingularPivot` once every layer is done, naming how many instances
        failed.  A NaN or +inf pivot passes, for the guards of the
        estimates and the downdate pivots to name.
        """
        s = self.compressed[0]
        m, b = s.m, len(s.diag[0])
        tol = PIVOT_REL_TOL * np.maximum(sum(s.diag) / m, 1e-300)
        bad = np.zeros(b, dtype=bool)
        inv_diag, cols = [None] * m, [None] * m
        for k in reversed(range(m)):
            d = s.diag[k]
            if not (d > tol).all():
                # NaN and +inf pass; a failed pivot is set to 1 so that
                # the other layers run quietly before the error
                fail = (d <= tol) & (d < np.inf)
                bad |= fail
                d = np.where(fail, 1.0, d)
            inv_diag[k] = r = 1.0 / np.sqrt(d)
            cols[k] = u = tuple(AlamoutiBlock(a1 * r, a2 * r) for a1, a2 in (row[-1] for row in s.upper_rows()[:k]))
            if k:
                s = sbm_from_rows(k, *sbm_sub_outer(s, u, u))
        if bad.any():
            raise SingularPivot(f"regularized Gram is singular in {np.count_nonzero(bad)} of {b} instances")
        for a in (*inv_diag, *(x for col in cols for blk in col for x in blk)):
            a.flags.writeable = False
        return tuple(inv_diag), tuple(cols)

    def solve(self, z) -> list:
        """The leading symbol pairs of G^-1 z, as many as `z` lists: its
        pairs past those are zero, a tail that the solve skips.  U y = z is
        solved from the last pair up, then U^H s = y from the first.  A
        block times a pair is the first column of their product."""
        r, cols = self.cholesky
        n, tmp = len(z), np.empty(len(r[0]), dtype=np.complex128)
        y = [None] * n
        for i in reversed(range(n)):
            y1, y2 = (np.full(len(tmp), c, dtype=np.complex128) for c in z[i])
            for (u1, u2), (v1, v2) in zip((col[i] for col in cols[i + 1 : n]), y[i + 1 :]):
                y1 -= np.multiply(u1, v1, out=tmp)
                y1 += np.multiply(np.conjugate(u2, out=tmp), v2, out=tmp)
                y2 -= np.multiply(u2, v1, out=tmp)
                y2 -= np.multiply(np.conjugate(u1, out=tmp), v2, out=tmp)
            y[i] = (y1 * r[i], y2 * r[i])
        s = []
        for i in range(n):
            y1, y2 = y[i]
            for (u1, u2), (v1, v2) in zip(cols[i], s):
                y1 -= np.multiply(np.conjugate(u1, out=tmp), v1, out=tmp)
                y1 -= np.multiply(np.conjugate(u2, out=tmp), v2, out=tmp)
                y2 -= np.multiply(u1, v2, out=tmp)
                y2 += np.multiply(u2, v1, out=tmp)
            s.append((y1 * r[i], y2 * r[i]))
        return s

    @cached_property
    def dense_inverse(self) -> np.ndarray:
        """The regularized Gram's inverse G^-1, batch-first (B, 2M, 2M).

        G^-1 is blockwise Alamouti, with real scalar diagonal blocks, as G
        is.  The solve of the unit pair (1, 0) at layer k gives the first
        column, so the whole, of its blocks (i, k), i <= k (of block (k, k)
        the real scalar), and `sbm_to_dense` expands them once.
        """
        m = len(self.cholesky[0])
        cols = [self.solve([(0.0, 0.0)] * k + [(1.0, 0.0)]) for k in range(m)]
        diag = tuple(np.real(col[k][0]) for k, col in enumerate(cols))
        upper = tuple(AlamoutiBlock(*cols[j][i]) for i in range(m) for j in range(i + 1, m))
        q = sbm_to_dense(StructuredHermitianBlockMatrix(m, diag, upper))
        q.flags.writeable = False
        return q


def _prepare(h, x, alpha, prepared) -> PreparedBlock:
    """A new block of (h, x, alpha) if `prepared` is None, else `prepared`,
    which holds no gains: a call that passes it passes h = x = None and
    the block's alpha."""
    if prepared is None:
        return PreparedBlock(h, x, alpha)
    if h is not None or x is not None or prepared.alpha != alpha:
        raise ValueError("a call with prepared= passes h = x = None and the prepared block's alpha")
    return prepared


def _recursive_block(h, x, alpha, ordered, prepared):
    ws = _prepare(h, x, alpha, prepared).workspace
    decisions, soft, _, _ = detectors._recurse(ws, qpsk_slice_array, ordered, record_trace=False)
    return BatchDetection(decisions, soft)


def detect_gstbc_batch(h, x, alpha, prepared=None) -> BatchDetection:
    """`detectors.detect_gstbc` over a block."""
    return _recursive_block(h, x, alpha, True, prepared)


def detect_fixed_order_batch(h, x, alpha, prepared=None) -> BatchDetection:
    """`detectors.detect_fixed_order` over a block."""
    return _recursive_block(h, x, alpha, False, prepared)


def detect_linear_mmse_batch(h, x, alpha, prepared=None) -> BatchDetection:
    """Batched mirror of `detectors.detect_linear_mmse`."""
    block = _prepare(h, x, alpha, prepared)
    z = block.compressed[1]
    pairs = block.solve(list(zip(z[0::2], z[1::2])))
    soft = np.ascontiguousarray(np.transpose([c for pair in pairs for c in pair]))
    ok = np.isfinite(soft).all(axis=1)
    if not ok.all():
        detectors._block_guard(ok, "linear MMSE estimate is not finite", np.abs(soft).max(axis=1), np.max)
    return BatchDetection(qpsk_slice_array(soft), soft)


def _masked_sic(block, groupwise):
    """Dense MMSE-SIC over all 2M symbols with one inverse per block.

    The block's regularized Gram G is inverted once, Q = G^-1 from the
    factor's solves (`PreparedBlock.dense_inverse`), and u = Q z, the
    MMSE estimates of the undetected symbols from the current inverse Q
    and the matched filter z, is formed once.  At each step the chosen
    symbol j is estimated as y = u[j] and sliced to d.  Q is then
    downdated by rank one, Q <- Q - v w^T with v = Q[:, j] and w =
    conj(v) / q_jj, which leaves the inverse of G without row and column j
    (the dense form of `deflate_covariance`), and the estimates follow with
    u -= v (y - d) / q_jj.  That is exactly cancelling d through the Gram
    column, z -= G[:, j] d, and re-estimating: from G Q = I, the downdated
    inverse times G[:, j] is -v / q_jj.  The detected symbol drops out.

    Q itself is never formed.  Each downdate is kept as its term (v, w),
    and a step builds only what it reads: column j, gathered from the
    block's inverse with the terms applied oldest first, and the diagonal,
    updated after every downdate.  A live entry (i, k) thus goes through
    the same subtractions, in the same order, as in a Q downdated in full,
    so the order and the downdates are bitwise those of that form.  The
    last symbol needs no downdate.

    `groupwise` takes the layer with the smallest second-symbol diagonal,
    its second symbol first, then its first symbol.  Otherwise the best
    remaining symbol goes next, diagonals within TIE_REL_TOL of the
    minimum tying to the lowest index, as in the scalar reference.
    """
    q = block.dense_inverse
    u = np.einsum("bik,kb->bi", q, np.array(block.compressed[1]))
    b, two_m = u.shape
    rows = np.arange(b)
    # flat offset into a (B, 2M) array of instance b's entry 0
    row_0 = rows * two_m
    qdiag = q.diagonal(axis1=1, axis2=2).copy()
    live = np.ones((b, two_m), dtype=bool)
    v_terms = np.empty((two_m - 1, b, two_m), dtype=np.complex128)
    w_terms = np.empty_like(v_terms)
    decisions = np.empty((b, two_m), dtype=np.complex128)
    soft = np.empty((b, two_m), dtype=np.complex128)
    for step in range(two_m):
        diag = np.where(live, np.real(qdiag), np.inf)
        if groupwise and step % 2:
            j = j - 1
        elif groupwise:
            j = 2 * np.argmin(diag[:, 1::2], axis=1) + 1
        else:
            # a minimum over the short symbol axis, as one (B,) op per column
            near = reduce(np.minimum, diag.T)[:, None] * (1.0 + TIE_REL_TOL)
            j = np.argmax(diag <= near, axis=1)
        at_j = row_0 + j
        y = u.reshape(-1)[at_j]
        d = qpsk_slice_array(y)
        decisions.reshape(-1)[at_j] = d
        soft.reshape(-1)[at_j] = y
        qjj = np.real(qdiag.reshape(-1)[at_j])
        detectors._block_guard(qjj > 0, "downdate pivot is not positive", qjj, np.min)
        if step == two_m - 1:
            break
        # column j of the Hermitian inverse is the conjugate of row j
        v = np.conjugate(q[rows, j], out=v_terms[step])
        w_j = w_terms[:step, rows, j]
        for t in range(step):
            v -= v_terms[t] * w_j[t][:, None]
        w = w_terms[step]
        np.divide(np.conj(v), qjj[:, None], out=w)
        qdiag -= v * w
        u -= v * ((y - d) / qjj)[:, None]
        live.reshape(-1)[at_j] = False
    return BatchDetection(decisions, soft)


def detect_osic_symbolwise_batch(h, x, alpha, prepared=None) -> BatchDetection:
    """Batched mirror of `detectors.detect_osic_symbolwise`."""
    return _masked_sic(_prepare(h, x, alpha, prepared), False)


def detect_sic_groupwise_batch(h, x, alpha, prepared=None) -> BatchDetection:
    """Batched mirror of `detectors.detect_sic_groupwise_symbolwise`."""
    return _masked_sic(_prepare(h, x, alpha, prepared), True)


DETECTORS = {
    "proposed": detect_gstbc_batch,
    "fixed_order": detect_fixed_order_batch,
    "linear_mmse": detect_linear_mmse_batch,
    "osic_symbolwise": detect_osic_symbolwise_batch,
    "sic_groupwise": detect_sic_groupwise_batch,
}
