"""Vectorized detector engines for Monte Carlo runs.

These mirror the per-instance detectors in `gstbc.detectors` over a
leading batch axis, trading flop accounting for throughput: arithmetic is
whole-array numpy, nothing is counted.  Agreement with the scalar
implementations is pinned by tests (identical hard decisions on common
instances), and the structured engine keeps the same compressed state:
for each batch element the inverse is held as two (m, m) arrays `q1`,
`q2` carrying the Alamouti components of every block, diagonal blocks
real in `q1` and zero in `q2`, with the lower triangle stored explicitly
as the adjoint of the upper.

The two dense references share one SIC kernel, `_masked_sic`, which
inverts the full regularized Gram once and downdates it by rank one after
each detected symbol.

All engines take the physical channel `h` of shape (B, N, 2M) and the
stacked received block `x` of shape (B, 2N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import equivalent_channel_batch
from .errors import PIVOT_REL_TOL, TIE_REL_TOL, NonPositiveAlpha, SingularPivot
from .modulation import qpsk_slice_array


@dataclass
class BatchDetection:
    decisions: np.ndarray  # (B, 2M) hard constellation points
    soft: np.ndarray  # (B, 2M) pre-slicing estimates


def _check_alpha(alpha):
    if not alpha > 0:
        raise NonPositiveAlpha(f"alpha must be > 0, got {alpha}")


def _pair_components(h):
    # first/second antenna gains per layer: (B, N, M) each
    return h[:, :, 0::2], h[:, :, 1::2]


def _init_state(h, x, alpha):
    """Compressed Gram, inverse seed, matched filter, in batch form."""
    b, n, two_m = h.shape
    m = two_m // 2
    ha, hb = _pair_components(h)
    r1 = np.einsum("bni,bnj->bij", np.conj(ha), ha) + np.einsum("bni,bnj->bij", hb, np.conj(hb))
    r2 = np.einsum("bni,bnj->bij", np.conj(hb), ha) - np.einsum("bni,bnj->bij", ha, np.conj(hb))
    idx = np.arange(m)
    r1[:, idx, idx] += alpha
    xe = x[:, 0::2]
    xo = x[:, 1::2]
    z = np.empty((b, m, 2), dtype=np.complex128)
    z[:, :, 0] = np.einsum("bni,bn->bi", np.conj(ha), xe) + np.einsum("bni,bn->bi", hb, xo)
    z[:, :, 1] = np.einsum("bni,bn->bi", np.conj(hb), xe) - np.einsum("bni,bn->bi", ha, xo)
    return r1, r2, z


def _grow_inverse(r1, r2, m):
    """Layer-by-layer inverse of the compressed Gram; see `init_covariance`."""
    b = r1.shape[0]
    scale = np.mean(np.real(r1[:, np.arange(m), np.arange(m)]), axis=1)
    tol = PIVOT_REL_TOL * np.maximum(scale, 1e-300)
    q1 = np.zeros((b, m, m), dtype=np.complex128)
    q2 = np.zeros((b, m, m), dtype=np.complex128)
    lead = np.real(r1[:, 0, 0])
    if not np.all(lead > tol):
        raise SingularPivot("leading diagonal pivot vanished in a batch element")
    q1[:, 0, 0] = 1.0 / lead
    for k in range(1, m):
        v1 = r1[:, :k, k]
        v2 = r2[:, :k, k]
        a1 = q1[:, :k, :k]
        a2 = q2[:, :k, :k]
        u1 = np.einsum("bij,bj->bi", a1, v1) - np.einsum("bij,bj->bi", np.conj(a2), v2)
        u2 = np.einsum("bij,bj->bi", a2, v1) + np.einsum("bij,bj->bi", np.conj(a1), v2)
        beta = np.einsum("bj,bj->b", np.conj(v1), u1) + np.einsum("bj,bj->b", np.conj(v2), u2)
        denom = np.real(r1[:, k, k]) - np.real(beta)
        if not np.all(denom > tol):
            raise SingularPivot(f"covariance recursion pivot vanished at layer {k}")
        omega = 1.0 / denom
        q1[:, :k, :k] += omega[:, None, None] * (
            u1[:, :, None] * np.conj(u1)[:, None, :] + np.conj(u2)[:, :, None] * u2[:, None, :]
        )
        q2[:, :k, :k] += omega[:, None, None] * (
            u2[:, :, None] * np.conj(u1)[:, None, :] - np.conj(u1)[:, :, None] * u2[:, None, :]
        )
        w1 = -omega[:, None] * u1
        w2 = -omega[:, None] * u2
        q1[:, :k, k] = w1
        q2[:, :k, k] = w2
        q1[:, k, :k] = np.conj(w1)
        q2[:, k, :k] = -w2
        q1[:, k, k] = omega
    return q1, q2


def _detect_structured(h, x, alpha, ordered, slicer):
    _check_alpha(alpha)
    b, n, two_m = h.shape
    m = two_m // 2
    r1, r2, z = _init_state(h, x, alpha)
    q1, q2 = _grow_inverse(r1, r2, m)
    p = np.tile(np.arange(m), (b, 1))
    rows = np.arange(b)
    decisions = np.empty((b, two_m), dtype=np.complex128)
    soft = np.empty((b, two_m), dtype=np.complex128)
    for mm in range(m, 0, -1):
        if mm > 1 and ordered:
            diag = np.real(q1[:, np.arange(mm), np.arange(mm)])
            sel = np.argmin(diag, axis=1)
            need = sel != mm - 1
            if np.any(need):
                perm = np.tile(np.arange(mm), (b, 1))
                perm[rows, sel] = mm - 1
                perm[rows, mm - 1] = sel
                gather = (rows[:, None, None], perm[:, :, None], perm[:, None, :])
                q1[:, :mm, :mm] = q1[:, :mm, :mm][gather]
                q2[:, :mm, :mm] = q2[:, :mm, :mm][gather]
                r1[:, :mm, :mm] = r1[:, :mm, :mm][gather]
                r2[:, :mm, :mm] = r2[:, :mm, :mm][gather]
                z[:, :mm] = z[:, :mm][rows[:, None], perm]
                p[:, :mm] = p[:, :mm][rows[:, None], perm]
        qc1 = q1[:, :mm, mm - 1]
        qc2 = q2[:, :mm, mm - 1]
        z0 = z[:, :mm, 0]
        z1 = z[:, :mm, 1]
        y1 = np.einsum("bj,bj->b", np.conj(qc1), z0) + np.einsum("bj,bj->b", np.conj(qc2), z1)
        y2 = np.einsum("bj,bj->b", qc1, z1) - np.einsum("bj,bj->b", qc2, z0)
        d1 = slicer(y1)
        d2 = slicer(y2)
        layer = p[:, mm - 1]
        decisions[rows, 2 * layer] = d1
        decisions[rows, 2 * layer + 1] = d2
        soft[rows, 2 * layer] = y1
        soft[rows, 2 * layer + 1] = y2
        if mm == 1:
            break
        # cancel the detected pair from the matched-filter state
        v1 = r1[:, : mm - 1, mm - 1]
        v2 = r2[:, : mm - 1, mm - 1]
        z[:, : mm - 1, 0] -= v1 * d1[:, None] - np.conj(v2) * d2[:, None]
        z[:, : mm - 1, 1] -= v2 * d1[:, None] + np.conj(v1) * d2[:, None]
        # deflate the inverse
        omega = np.real(q1[:, mm - 1, mm - 1])
        scale = np.mean(np.real(q1[:, np.arange(mm), np.arange(mm)]), axis=1)
        if not np.all(omega > PIVOT_REL_TOL * np.maximum(scale, 1e-300)):
            raise SingularPivot("deflation pivot vanished in a batch element")
        inv_omega = 1.0 / omega
        w1 = q1[:, : mm - 1, mm - 1].copy()
        w2 = q2[:, : mm - 1, mm - 1].copy()
        q1[:, : mm - 1, : mm - 1] -= inv_omega[:, None, None] * (
            w1[:, :, None] * np.conj(w1)[:, None, :] + np.conj(w2)[:, :, None] * w2[:, None, :]
        )
        q2[:, : mm - 1, : mm - 1] -= inv_omega[:, None, None] * (
            w2[:, :, None] * np.conj(w1)[:, None, :] - np.conj(w1)[:, :, None] * w2[:, None, :]
        )
    return BatchDetection(decisions, soft)


def detect_gstbc_batch(h, x, alpha, slicer=qpsk_slice_array) -> BatchDetection:
    """Batched mirror of `detectors.detect_gstbc`."""
    return _detect_structured(h, x, alpha, True, slicer)


def detect_fixed_order_batch(h, x, alpha, slicer=qpsk_slice_array) -> BatchDetection:
    """Batched mirror of `detectors.detect_fixed_order`."""
    return _detect_structured(h, x, alpha, False, slicer)


def _dense_system(h, x, alpha):
    """Regularized Gram H'^H H' + alpha I and matched filter H'^H x'."""
    _check_alpha(alpha)
    hp = equivalent_channel_batch(h)
    idx = np.arange(hp.shape[2])
    g = np.einsum("brj,brk->bjk", np.conj(hp), hp)
    g[:, idx, idx] += alpha
    return g, np.einsum("brk,br->bk", np.conj(hp), x)


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
