"""Detector engines over blocks of instances, for Monte Carlo runs.

All engines take the physical channel `h` of shape (B, N, 2M) and the
stacked received block `x` of shape (B, 2N), check them with the scalar
detectors' check (`detectors._check_input`), and return (B, 2M) decisions
and soft values.

Every engine reads its block through a `PreparedBlock`, which checks the
block once and computes each front end on first use: the recursion's
compressed Gram and matched filter and its starting state, the Cholesky
factor of the regularized Gram, and that Gram's inverse.  A sweep builds
one per slice of a drawn block (at most `sim.SLICE_SIZE` instances) and
passes it as `prepared=` to every detector, so the front ends are
computed once per slice and only one slice's are held; a call without it
builds its own, so both calls run the same code.

The compressed entries come from one batched product per chunk of instances
(`CHUNK_BYTES` of gains each), P = h^T conj([h | x1 | conj(x2)]) with
x1, x2 the two slots' samples.  The column-pair orthogonality of the
equivalent channel makes every block of its Gram Alamouti, so a block's
two parts and a diagonal scalar are each a sum or difference of two
entries of P, and so is each matched-filter entry: that is about half the
dense Gram's products, and no equivalent channel is ever built.  The
compressed entries are stored batch-last, one (B,) array each, and every
other front end is built from them.

`proposed` and `fixed_order` run the counted recursion of
`gstbc.detectors` itself over those (B,) entries, from `init_covariance`
on; building the start charges what `matched_filter` and `init_gram`
charge, so a `flop_scope` around an unprepared call counts one
instance.  The dense references share one factor, G = L L^H of the
regularized Gram (`PreparedBlock.cholesky`), grown over (B,) entries read
straight from the compressed ones, as the recursion's are; no LAPACK
routine is called, since for the small Grams of a sweep its per-instance
call costs more than the arithmetic.  `linear_mmse` is two triangular
solves on that factor.  The two symbol-wise SIC references share
`_masked_sic`, which makes the decisions of `detectors._dense_sic`
without re-inverting: it forms the estimates u = Q z once from the
block's inverse Q = L^-H L^-1 (`PreparedBlock.dense_inverse`) and, after
each detected symbol, downdates Q by rank one and updates u through the
same column of Q.  It keeps the downdates as rank-one terms and applies
them only to the (B, 2M) column and diagonal that the next step reads, so
the shared inverse is never copied or rewritten and no Gram is read.
Every engine slices to QPSK.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import detectors
from .alamouti import AlamoutiBlock, StructuredHermitianBlockMatrix
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
    P (2M x (2M + 2)) of `PreparedBlock.compressed`, and where they go.

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


class PreparedBlock:
    """One checked block and the front ends its detectors share.

    Built from the physical channels `h` (B, N, 2M), the stacked samples
    `x` (B, 2N) and `alpha`, which it checks once.  Each front end is
    computed on first use and then kept for every later detector on the
    same block: `compressed`, the recursion's compressed regularized Gram
    and matched filter, built from one product per chunk of instances;
    `workspace`, the recursion's starting state grown from them;
    `cholesky`, the Gram's factor L L^H, read from the compressed entries,
    which `linear_mmse` solves with; `dense_inverse`, the Gram's inverse
    from that factor, which the SIC references downdate.  Detectors only
    read these; the arrays are marked read-only.  A Gram with a vanishing
    factor pivot raises `SingularPivot`.
    """

    def __init__(self, h, x, alpha):
        detectors._check_input(h, x, alpha, 1)
        self.h = h
        self.x = x
        self.alpha = alpha

    @cached_property
    def _entries(self) -> tuple:
        """The compressed front end's entries, batch-last: the diagonal
        scalars (M, B), the a1 and a2 parts of the upper blocks (each
        (M(M - 1)/2, B), row-major) and the matched filter (2M, B).

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
        h, x = self.h, self.x
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
        diag += self.alpha
        for a in (diag, a1, a2, z):
            a.flags.writeable = False
        return diag, a1, a2, z

    @cached_property
    def compressed(self) -> tuple:
        """The compressed regularized Gram (a `StructuredHermitianBlockMatrix`)
        and the matched filter's 2M entries, each entry a (B,) array."""
        diag, a1, a2, z = self._entries
        return StructuredHermitianBlockMatrix(len(diag), tuple(diag), tuple(map(AlamoutiBlock, a1, a2))), tuple(z)

    @cached_property
    def workspace(self) -> detectors.DetectorWorkspace:
        """The recursion's starting state.  Building it charges, per
        instance, what `matched_filter` and `init_gram` charge."""
        rbar, z = self.compressed
        n = self.h.shape[1]
        charge(*detectors._matched_filter_cost(n, rbar.m))
        charge(*detectors._gram_cost(n, rbar.m))
        return detectors._grow_workspace(rbar, z)

    @cached_property
    def cholesky(self) -> tuple:
        """The factor G = L L^H of each instance's regularized Gram G, as
        (rows, inv_diag): rows[i][k] is L[i, k] for k < i and inv_diag[i]
        is 1 / L[i, i], each a (B,) array.

        The factor is grown a column at a time (Crout order): with d_j =
        G[j, j] - sum_k |L[j, k]|^2 the column's pivot, L[j, j] = sqrt(d_j)
        and L[i, j] = (G[i, j] - sum_k L[i, k] conj(L[j, k])) / L[j, j] for
        i > j.  G is never written out: each G[i, j] below the diagonal is
        read from the compressed entries (`_gram_lower`), and G[j, j] is a
        diagonal scalar.  A pivot at or below PIVOT_REL_TOL times the
        instance's mean diagonal (the rule of `dense.gj_inverse_hpd`)
        raises `SingularPivot` once every column is done, naming how many
        instances failed.  A NaN or +inf pivot passes: it reaches the
        estimates and the downdate pivots, whose guards name it.
        """
        rbar = self.compressed[0]
        n, b = 2 * rbar.m, len(rbar.diag[0])
        tol = PIVOT_REL_TOL * np.maximum(sum(rbar.diag) / rbar.m, 1e-300)
        bad = np.zeros(b, dtype=bool)
        # row i of L and its conjugate, grown one entry per column
        rows = [[] for _ in range(n)]
        conj_rows = [[] for _ in range(n)]
        inv_diag = []
        tmp = np.empty(b, dtype=np.complex128)
        for j in range(n):
            d = rbar.diag[j // 2].copy()
            for x, cx in zip(rows[j], conj_rows[j]):
                d -= np.multiply(x, cx, out=tmp).real
            if not (d > tol).all():
                # NaN and +inf pass; a failed pivot is set to 1 so that
                # the other columns run quietly before the error
                fail = (d <= tol) & (d < np.inf)
                bad |= fail
                d[fail] = 1.0
            r = np.divide(1.0, np.sqrt(d, out=d), out=d)
            inv_diag.append(r)
            for i in range(j + 1, n):
                acc = _gram_lower(rbar, i, j)
                for x, cx in zip(rows[i], conj_rows[j]):
                    acc -= np.multiply(x, cx, out=tmp)
                acc *= r
                rows[i].append(acc)
                conj_rows[i].append(np.conjugate(acc))
        if bad.any():
            raise SingularPivot(f"regularized Gram is singular in {np.count_nonzero(bad)} of {b} instances")
        for a in (*inv_diag, *(x for row in rows for x in row)):
            a.flags.writeable = False
        return tuple(map(tuple, rows)), tuple(inv_diag)

    @cached_property
    def dense_inverse(self) -> np.ndarray:
        """The regularized Gram's inverse G^-1 = L^-H L^-1 from `cholesky`,
        batch-first (B, 2M, 2M).

        W = L^-1 is lower triangular: W[c, c] = 1 / L[c, c] and, below it,
        W[j, c] = -(sum_{c <= k < j} L[j, k] W[k, c]) / L[j, j].  Entry
        (i, c), i <= c, of the inverse is sum_{j >= c} conj(W[j, i]) W[j, c]
        and entry (c, i) its conjugate, so the diagonal is real.
        """
        rows, r = self.cholesky
        n, b = len(r), len(r[0])
        tmp = np.empty(b, dtype=np.complex128)
        # w[c] is column c of W below the diagonal: w[c][j - c - 1] = W[j, c]
        w = [[] for _ in range(n)]
        for j in range(n):
            for c in range(j):
                acc = rows[j][c] * r[c]
                for x, y in zip(rows[j][c + 1 :], w[c]):
                    acc += np.multiply(x, y, out=tmp)
                acc *= -r[j]
                w[c].append(acc)
        q = np.empty((b, n, n), dtype=np.complex128)
        for i in range(n):
            conj_col = [np.conjugate(x) for x in w[i]]
            acc = r[i] * r[i]
            for x, cx in zip(w[i], conj_col):
                acc += np.multiply(x, cx, out=tmp).real
            q[:, i, i] = acc
            for c in range(i + 1, n):
                acc = conj_col[c - i - 1] * r[c]
                for x, y in zip(conj_col[c - i :], w[c]):
                    acc += np.multiply(x, y, out=tmp)
                q[:, i, c] = acc
                np.conjugate(acc, out=q[:, c, i])
        q.flags.writeable = False
        return q


def _gram_lower(rbar, i, j) -> np.ndarray:
    """Entry (i, j), i > j, of the dense Gram whose compressed form is
    `rbar`, as a new (B,) array.  It sits in the adjoint of upper block
    (j // 2, i // 2), [[conj(a1), conj(a2)], [-a2, a1]], or is the zero
    below a diagonal block's diagonal."""
    (li, pi), (lj, pj) = divmod(i, 2), divmod(j, 2)
    if li == lj:
        return np.zeros(len(rbar.diag[0]), dtype=np.complex128)
    a1, a2 = rbar.upper_rows()[lj][li - lj - 1]
    if pj == 0:
        return np.conjugate(a1) if pi == 0 else np.negative(a2)
    return np.conjugate(a2) if pi == 0 else a1.copy()


def _prepare(h, x, alpha, prepared) -> PreparedBlock:
    """`prepared` if it was built from this very block, else a new block."""
    if prepared is None:
        return PreparedBlock(h, x, alpha)
    if prepared.h is not h or prepared.x is not x or prepared.alpha != alpha:
        raise ValueError("prepared block was built from a different (h, x, alpha)")
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
    rows, r = block.cholesky
    z = block.compressed[1]
    n, b = len(r), len(r[0])
    tmp = np.empty(b, dtype=np.complex128)
    # L y = z, then L^H s = y for conj(s), over y in place: conj(s)[j] =
    # (conj(y[j]) - sum_{k > j} L[k, j] conj(s)[k]) / L[j, j]
    y = []
    for j in range(n):
        acc = z[j].copy()
        for l_jk, y_k in zip(rows[j], y):
            acc -= np.multiply(l_jk, y_k, out=tmp)
        acc *= r[j]
        y.append(acc)
    soft = np.empty((b, n), dtype=np.complex128)
    for j in reversed(range(n)):
        acc = np.conjugate(y[j], out=y[j])
        for k in range(j + 1, n):
            acc -= np.multiply(rows[k][j], y[k], out=tmp)
        acc *= r[j]
        np.conjugate(acc, out=soft[:, j])
    ok = np.isfinite(soft).all(axis=1)
    if not ok.all():
        detectors._block_guard(ok, "linear MMSE estimate is not finite", np.abs(soft).max(axis=1), np.max)
    return BatchDetection(qpsk_slice_array(soft), soft)


def _masked_sic(block, groupwise):
    """Dense MMSE-SIC over all 2M symbols with one inverse per block.

    The block's regularized Gram G is inverted once, and u = Q z, the
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
    u = np.einsum("bik,kb->bi", q, np.asarray(block.compressed[1]))
    b, two_m = u.shape
    rows = np.arange(b)
    idx = np.arange(two_m)
    # flat offsets into the (B, 2M, 2M) inverse of instance b's column 0,
    # and into a (B, 2M) array of instance b's entry 0
    col_0 = (rows * two_m * two_m)[:, None] + idx * two_m
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
        v = v_terms[step]
        np.take(q.reshape(-1), col_0 + j[:, None], out=v)
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
