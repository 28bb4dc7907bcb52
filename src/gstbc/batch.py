"""Detector engines over blocks of instances, for Monte Carlo runs.

All engines take the physical channel `h` of shape (B, N, 2M) and the
stacked received block `x` of shape (B, 2N), check them as the scalar
detectors do, and return (B, 2M) decisions and soft values.

`proposed` and `fixed_order` run the counted recursion of
`gstbc.detectors` itself over the gains stored batch-last, (N, 2M, B), so
each compressed entry is a (B,) array and a `flop_scope` around a call
counts one instance; no equivalent channel is built for it.  The dense
references are whole-array numpy: `linear_mmse` solves once, and the two
symbol-wise SIC references share `_masked_sic`, which inverts the
regularized Gram once and downdates it by rank one after each detected
symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _recursive_block(h, x, alpha, slicer, ordered):
    _check_block(h, x, alpha)
    res = detectors._detect_recursive(
        ChannelMatrix(np.ascontiguousarray(h.transpose(1, 2, 0))),
        np.ascontiguousarray(x.T),
        alpha,
        slicer,
        ordered,
        record_trace=False,
    )
    return BatchDetection(res.decisions, res.soft)


def detect_gstbc_batch(h, x, alpha, slicer=qpsk_slice_array) -> BatchDetection:
    """`detectors.detect_gstbc` over a block."""
    return _recursive_block(h, x, alpha, slicer, True)


def detect_fixed_order_batch(h, x, alpha, slicer=qpsk_slice_array) -> BatchDetection:
    """`detectors.detect_fixed_order` over a block."""
    return _recursive_block(h, x, alpha, slicer, False)


def _dense_system(h, x, alpha):
    """Regularized Gram H'^H H' + alpha I and matched filter H'^H x'."""
    _check_block(h, x, alpha)
    hp = equivalent_channel_batch(h)
    hh = np.conj(hp).swapaxes(1, 2)
    g = hh @ hp
    idx = np.arange(g.shape[1])
    g[:, idx, idx] += alpha
    return g, (hh @ x[:, :, None])[:, :, 0]


def detect_linear_mmse_batch(h, x, alpha, slicer=qpsk_slice_array) -> BatchDetection:
    """Batched mirror of `detectors.detect_linear_mmse`."""
    g, z = _dense_system(h, x, alpha)
    soft = np.linalg.solve(g, z[:, :, None])[:, :, 0]
    return BatchDetection(slicer(soft), soft)


def _masked_sic(h, x, alpha, slicer, groupwise):
    """Dense MMSE-SIC over all 2M symbols with one inverse per block.

    The regularized Gram G is inverted once.  At each step the chosen
    symbol j is estimated from row j of the inverse and the running
    matched filter z, sliced, and cancelled through the Gram column,
    z -= G[:, j] d.  The inverse is then downdated by rank one,
    Q <- Q - q_j q_j^H / q_jj, which leaves the inverse of G without row
    and column j (the dense form of `deflate_covariance`), and row and
    column j are zeroed so the detected symbol drops out.

    `groupwise` takes the layer with the smallest second-symbol diagonal,
    its second symbol first, then its first symbol.  Otherwise the best
    remaining symbol goes next, diagonals within TIE_REL_TOL of the
    minimum tying to the lowest index, as in the scalar reference.
    """
    g, z = _dense_system(h, x, alpha)
    b, two_m = z.shape
    rows = np.arange(b)
    idx = np.arange(two_m)
    q = np.linalg.inv(g)
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
        d = slicer(y)
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


def detect_osic_symbolwise_batch(h, x, alpha, slicer=qpsk_slice_array) -> BatchDetection:
    """Batched mirror of `detectors.detect_osic_symbolwise`."""
    return _masked_sic(h, x, alpha, slicer, False)


def detect_sic_groupwise_batch(h, x, alpha, slicer=qpsk_slice_array) -> BatchDetection:
    """Batched mirror of `detectors.detect_sic_groupwise_symbolwise`."""
    return _masked_sic(h, x, alpha, slicer, True)
