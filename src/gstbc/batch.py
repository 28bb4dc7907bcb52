"""Detector engines over blocks of instances, for Monte Carlo runs.

All engines take the physical channel `h` of shape (B, N, 2M) and the
stacked received block `x` of shape (B, 2N), check them with the scalar
detectors' check (`detectors._check_input`), and return (B, 2M) decisions
and soft values.

Every engine reads its block through a `PreparedBlock`, which checks the
block once and computes each front end on first use: the recursion's
starting state, the dense Gram with its matched filter, and that Gram's
inverse.  A sweep builds one per slice of a drawn block (at most
`sim.SLICE_SIZE` instances) and passes it as `prepared=` to every
detector, so the front ends are computed once per slice and only one
slice's are held; a call without it builds its own, so both calls run the
same code.  The dense front end and the recursion's batch-last copy are
built chunk by chunk of instances (`CHUNK_BYTES` of gains each) into the
final arrays, so no whole-block equivalent channel or its conjugate is
ever held.

`proposed` and `fixed_order` run the counted recursion of
`gstbc.detectors` itself over the gains stored batch-last, (N, 2M, B), so
each compressed entry is a (B,) array and a `flop_scope` around an
unprepared call counts one instance; no equivalent channel is built for
it.  The dense references are whole-array numpy: `linear_mmse` solves
once, and the two symbol-wise SIC references share `_masked_sic`, the
batch twin of `detectors._dense_sic`, which downdates the block's inverse
by rank one after each detected symbol.  It keeps the downdates as
rank-one terms and applies them only to the (B, 2M) row, column and
diagonal that the next step reads, so the shared inverse is never copied
or rewritten.  Every engine slices to QPSK.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import detectors
from .channel import ChannelMatrix, equivalent_channel_batch
from .errors import TIE_REL_TOL, SingularPivot
from .modulation import qpsk_slice_array

# bytes of gains per chunk of instances when a block's front ends are
# built: the chunk's equivalent channel, its conjugate and its Gram then
# take about a third of a 2 MiB L2 cache.  Of 16 KiB to 512 KiB, this built
# both front ends fastest at (2, 8), (4, 4) and (8, 8), and within 10% of
# the fastest at (16, 16)
CHUNK_BYTES = 128 * 1024


@dataclass
class BatchDetection:
    decisions: np.ndarray  # (B, 2M) hard constellation points
    soft: np.ndarray  # (B, 2M) pre-slicing estimates


def _chunk_len(h) -> int:
    """Instances per chunk of a block with gains `h` (B, N, 2M)."""
    return max(1, CHUNK_BYTES // (h.itemsize * h.shape[1] * h.shape[2]))


class PreparedBlock:
    """One checked block and the front ends its detectors share.

    Built from the physical channels `h` (B, N, 2M), the stacked samples
    `x` (B, 2N) and `alpha`, which it checks once.  Each front end is
    computed on first use and then kept for every later detector on the
    same block: `workspace`, the recursion's starting state over the
    batch-last gains; `dense`, the regularized Gram and matched filter of
    the equivalent channel; `dense_inverse`, that Gram's inverse.
    Detectors only read these; the dense arrays are marked read-only.  A
    Gram that LAPACK finds singular raises `SingularPivot`.
    """

    def __init__(self, h, x, alpha):
        detectors._check_input(h, x, alpha, 1)
        self.h = h
        self.x = x
        self.alpha = alpha

    @cached_property
    def workspace(self) -> detectors.DetectorWorkspace:
        h, x = self.h, self.x
        b, step = len(h), _chunk_len(h)
        h_last = np.empty(h.shape[1:] + (b,), dtype=h.dtype)
        x_last = np.empty(x.shape[1:] + (b,), dtype=x.dtype)
        for lo in range(0, b, step):
            h_last[:, :, lo : lo + step] = h[lo : lo + step].transpose(1, 2, 0)
            x_last[:, lo : lo + step] = x[lo : lo + step].T
        return detectors._start_workspace(ChannelMatrix(h_last), x_last, self.alpha)

    @cached_property
    def dense(self) -> tuple:
        """Regularized Gram H'^H H' + alpha I and matched filter H'^H x'."""
        h, x = self.h, self.x
        b, _, two_m = h.shape
        step = _chunk_len(h)
        g = np.empty((b, two_m, two_m), dtype=np.complex128)
        z = np.empty((b, two_m), dtype=np.complex128)
        idx = np.arange(two_m)
        for lo in range(0, b, step):
            hp = equivalent_channel_batch(h[lo : lo + step])
            hh = np.conj(hp).swapaxes(1, 2)
            gc = np.matmul(hh, hp, out=g[lo : lo + step])
            gc[:, idx, idx] += self.alpha
            np.matmul(hh, x[lo : lo + step, :, None], out=z[lo : lo + step, :, None])
        g.flags.writeable = z.flags.writeable = False
        return g, z

    @cached_property
    def dense_inverse(self) -> np.ndarray:
        g = self.dense[0]
        try:
            q = np.linalg.inv(g)
        except np.linalg.LinAlgError as err:
            raise _singular_gram(g) from err
        q.flags.writeable = False
        return q


def _singular_gram(g) -> SingularPivot:
    """The error for a block of Grams that LAPACK could not factor: the
    same LU finds a zero determinant in each singular instance."""
    sign, _ = np.linalg.slogdet(g)
    return SingularPivot(f"regularized Gram is singular in {np.count_nonzero(sign == 0)} of {len(g)} instances")


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
    g, z = _prepare(h, x, alpha, prepared).dense
    try:
        soft = np.linalg.solve(g, z[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as err:
        raise _singular_gram(g) from err
    ok = np.isfinite(soft).all(axis=1)
    if not ok.all():
        detectors._block_guard(ok, "linear MMSE estimate is not finite", np.abs(soft).max(axis=1), np.max)
    return BatchDetection(qpsk_slice_array(soft), soft)


def _masked_sic(block, groupwise):
    """Dense MMSE-SIC over all 2M symbols with one inverse per block.

    The block's regularized Gram G is inverted once.  At each step the
    chosen symbol j is estimated from row j of the current inverse Q and
    the running matched filter z, sliced, and cancelled through the Gram
    column, z -= G[:, j] d.  Q is then downdated by rank one,
    Q <- Q - v w^T with v = Q[:, j] and w = conj(v) / q_jj, which leaves
    the inverse of G without row and column j (the dense form of
    `deflate_covariance`); the detected symbol drops out.

    Q itself is never formed.  Each downdate is kept as its term (v, w),
    and a step builds only what it reads: row j and column j, gathered
    from the block's inverse with the terms applied oldest first, and the
    diagonal, updated after every downdate.  A live entry (i, k) thus goes
    through the same subtractions, in the same order, as in a Q downdated
    in full, so the results are bitwise those of that form; the row read
    for an estimate holds zeros at the detected symbols, as a Q with their
    rows and columns zeroed would.  The last symbol needs no downdate.

    `groupwise` takes the layer with the smallest second-symbol diagonal,
    its second symbol first, then its first symbol.  Otherwise the best
    remaining symbol goes next, diagonals within TIE_REL_TOL of the
    minimum tying to the lowest index, as in the scalar reference.
    """
    g, z = block.dense
    q = block.dense_inverse
    z = z.copy()
    b, two_m = z.shape
    rows = np.arange(b)
    idx = np.arange(two_m)
    # flat offsets into the (B, 2M, 2M) arrays: instance b's column 0, and
    # instance b's row 0 counted in rows of 2M
    col_0 = (rows * two_m * two_m)[:, None] + idx * two_m
    row_0 = rows * two_m
    q_rows = q.reshape(b * two_m, two_m)
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
        col_j = col_0 + j[:, None]
        row = np.take(q_rows, at_j, axis=0)
        v_j = v_terms[:step, rows, j]
        for t in range(step):
            row -= v_j[t][:, None] * w_terms[t]
        row[~live] = 0
        y = np.einsum("bk,bk->b", row, z)
        d = qpsk_slice_array(y)
        decisions.reshape(-1)[at_j] = d
        soft.reshape(-1)[at_j] = y
        z -= g.reshape(-1)[col_j] * d[:, None]
        qjj = np.real(qdiag.reshape(-1)[at_j])
        detectors._block_guard(qjj > 0, "downdate pivot is not positive", qjj, np.min)
        if step == two_m - 1:
            break
        v = v_terms[step]
        np.take(q.reshape(-1), col_j, out=v)
        w_j = w_terms[:step, rows, j]
        for t in range(step):
            v -= v_terms[t] * w_j[t][:, None]
        w = w_terms[step]
        np.divide(np.conj(v), qjj[:, None], out=w)
        qdiag -= v * w
        live.reshape(-1)[at_j] = False
    return BatchDetection(decisions, soft)


def detect_osic_symbolwise_batch(h, x, alpha, prepared=None) -> BatchDetection:
    """Batched mirror of `detectors.detect_osic_symbolwise`."""
    return _masked_sic(_prepare(h, x, alpha, prepared), False)


def detect_sic_groupwise_batch(h, x, alpha, prepared=None) -> BatchDetection:
    """Batched mirror of `detectors.detect_sic_groupwise_symbolwise`."""
    return _masked_sic(_prepare(h, x, alpha, prepared), True)
