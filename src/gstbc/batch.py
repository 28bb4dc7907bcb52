"""Detector engines over blocks of instances, for Monte Carlo runs.

All engines take the physical channel `h` of shape (B, N, 2M) and the
stacked received block `x` of shape (B, 2N), check them as the scalar
detectors do, and return (B, 2M) decisions and soft values.

Every engine reads its block through a `PreparedBlock`, which checks the
block once and computes each front end on first use: the recursion's
starting state, the dense Gram with its matched filter, and that Gram's
inverse.  A sweep builds one per drawn block and passes it as `prepared=`
to every detector, so the front ends are computed once per block; a call
without it builds its own, so both calls run the same code.

`proposed` and `fixed_order` run the counted recursion of
`gstbc.detectors` itself over the gains stored batch-last, (N, 2M, B), so
each compressed entry is a (B,) array and a `flop_scope` around an
unprepared call counts one instance; no equivalent channel is built for
it.  The dense references are whole-array numpy: `linear_mmse` solves
once, and the two symbol-wise SIC references share `_masked_sic`, the
batch twin of `detectors._dense_sic`, which downdates a copy of the
block's inverse by rank one after each detected symbol.  Every engine
slices to QPSK.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import detectors
from .channel import ChannelMatrix, equivalent_channel_batch
from .errors import TIE_REL_TOL, InvalidDimensions, NonPositiveAlpha, SingularPivot
from .modulation import qpsk_slice_array


@dataclass
class BatchDetection:
    decisions: np.ndarray  # (B, 2M) hard constellation points
    soft: np.ndarray  # (B, 2M) pre-slicing estimates


def _check_block(h, x, alpha):
    """The checks of the scalar detectors, over a block."""
    if h.ndim != 3 or h.shape[2] % 2 or h.shape[2] == 0:
        raise InvalidDimensions(f"channel block must be B x N x 2M, got {h.shape}")
    if x.shape != (h.shape[0], 2 * h.shape[1]):
        raise InvalidDimensions(f"received block must be B x 2N, got {x.shape} for channels {h.shape}")
    if not alpha > 0:
        raise NonPositiveAlpha(f"alpha must be > 0, got {alpha}")
    if not (np.isfinite(h).all() and np.isfinite(x).all()):
        raise InvalidDimensions("channel gains and received samples must be finite")


class PreparedBlock:
    """One checked block and the front ends its detectors share.

    Built from the physical channels `h` (B, N, 2M), the stacked samples
    `x` (B, 2N) and `alpha`, which it checks once.  Each front end is
    computed on first use and then kept for every later detector on the
    same block: `workspace`, the recursion's starting state over the
    batch-last gains; `dense`, the regularized Gram and matched filter of
    the equivalent channel; `dense_inverse`, that Gram's inverse.
    Detectors only read these; the dense arrays are marked read-only.
    """

    def __init__(self, h, x, alpha):
        _check_block(h, x, alpha)
        self.h = h
        self.x = x
        self.alpha = alpha

    @cached_property
    def workspace(self) -> detectors.DetectorWorkspace:
        return detectors._start_workspace(
            ChannelMatrix(np.ascontiguousarray(self.h.transpose(1, 2, 0))),
            np.ascontiguousarray(self.x.T),
            self.alpha,
        )

    @cached_property
    def dense(self) -> tuple:
        """Regularized Gram H'^H H' + alpha I and matched filter H'^H x'."""
        hp = equivalent_channel_batch(self.h)
        hh = np.conj(hp).swapaxes(1, 2)
        g = hh @ hp
        idx = np.arange(g.shape[1])
        g[:, idx, idx] += self.alpha
        z = (hh @ self.x[:, :, None])[:, :, 0]
        g.flags.writeable = z.flags.writeable = False
        return g, z

    @cached_property
    def dense_inverse(self) -> np.ndarray:
        q = np.linalg.inv(self.dense[0])
        q.flags.writeable = False
        return q


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
    soft = np.linalg.solve(g, z[:, :, None])[:, :, 0]
    return BatchDetection(qpsk_slice_array(soft), soft)


def _masked_sic(block, groupwise):
    """Dense MMSE-SIC over all 2M symbols with one inverse per block.

    The block's regularized Gram G is inverted once; its inverse and the
    matched filter z are copied here, since both are updated in place.  At
    each step the chosen symbol j is estimated from row j of the inverse
    and the running matched filter z, sliced, and cancelled through the
    Gram column, z -= G[:, j] d.  The inverse is then downdated by rank one,
    Q <- Q - q_j q_j^H / q_jj, which leaves the inverse of G without row
    and column j (the dense form of `deflate_covariance`), and row and
    column j are zeroed so the detected symbol drops out.

    `groupwise` takes the layer with the smallest second-symbol diagonal,
    its second symbol first, then its first symbol.  Otherwise the best
    remaining symbol goes next, diagonals within TIE_REL_TOL of the
    minimum tying to the lowest index, as in the scalar reference.
    """
    g, z = block.dense
    z = z.copy()
    q = block.dense_inverse.copy()
    b, two_m = z.shape
    rows = np.arange(b)
    idx = np.arange(two_m)
    live = np.ones((b, two_m), dtype=bool)
    decisions = np.empty((b, two_m), dtype=np.complex128)
    soft = np.empty((b, two_m), dtype=np.complex128)
    for step in range(two_m):
        diag = np.where(live, np.real(q[:, idx, idx]), np.inf)
        if groupwise and step % 2:
            j = j - 1
        elif groupwise:
            j = 2 * np.argmin(diag[:, 1::2], axis=1) + 1
        else:
            near = diag.min(axis=1, keepdims=True) * (1.0 + TIE_REL_TOL)
            j = np.argmax(diag <= near, axis=1)
        y = np.einsum("bk,bk->b", q[rows, j, :], z)
        d = qpsk_slice_array(y)
        decisions[rows, j] = d
        soft[rows, j] = y
        z -= g[rows, :, j] * d[:, None]
        qj = q[rows, :, j]
        qjj = np.real(qj[rows, j])
        if not np.all(qjj > 0):
            raise SingularPivot("downdate pivot is not positive in a batch element")
        q -= qj[:, :, None] * (np.conj(qj) / qjj[:, None])[:, None, :]
        q[rows, j, :] = 0
        q[rows, :, j] = 0
        live[rows, j] = False
    return BatchDetection(decisions, soft)


def detect_osic_symbolwise_batch(h, x, alpha, prepared=None) -> BatchDetection:
    """Batched mirror of `detectors.detect_osic_symbolwise`."""
    return _masked_sic(_prepare(h, x, alpha, prepared), False)


def detect_sic_groupwise_batch(h, x, alpha, prepared=None) -> BatchDetection:
    """Batched mirror of `detectors.detect_sic_groupwise_symbolwise`."""
    return _masked_sic(_prepare(h, x, alpha, prepared), True)
