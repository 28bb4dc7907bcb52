"""Group-wise MMSE-OSIC detection with a block-compressed covariance recursion.

The proposed detector (`detect_gstbc`) never inverts the full regularized
Gram matrix directly.  It grows the inverse layer by layer through a
rank-one-per-block Schur recursion (`init_covariance`), then detects the
layers in decreasing post-MMSE quality order, deflating the inverse after
every cancellation (`deflate_covariance`).  All states stay in compressed
Alamouti form: diagonal blocks of both the Gram matrix and its inverse are
real scalar multiples of I2 throughout, which is what makes layer
selection a plain scalar argmin and the deflation a block rank-one update.

Reference detectors are included for benchmarking: a one-shot linear MMSE
equalizer, a brute-force symbol-wise MMSE-OSIC that re-inverts densely at
every step, a symbol-wise SIC constrained to the group-wise detection
order (equivalent, decision for decision, to `detect_gstbc`), and the
recursion with ordering disabled.  The two symbol-wise SIC references are
one kernel, `_dense_sic`, and differ only in which symbol goes next.  The
dense references use the counted helpers in `gstbc.dense`, so every
detector reports its flop tally.  Every detector slices to QPSK.

Every detector takes the physical gains (a `ChannelMatrix`, N x 2M) and
the stacked samples.  `channel._check_input` checks them, as it checks a
block for `gstbc.batch` and the gains for `channel.transmit`; the dense
references build the equivalent channel from the gains with
`channel.equivalent_channel_batch`.

The recursion is written once and reads only the physical gains, never a
built equivalent channel.  Each compressed entry is a Python number for
one instance, or a (B,) array for a block of B instances; a `flop_scope`
around a block counts one instance.  The stages call the kernels of
`gstbc.alamouti` and make one charge per loop; like the kernels they
write in place only into what they allocated.  Their rank-one update
multiplies an entry of the inverse only by one of order one, so scaling
the input by a power of two scales every intermediate exactly.  Over a
block the interchange (`_swap_merged`) makes the moves of
`sbm_interchange` in place, copying each read-only (shared) entry before
it writes.  Every front end of a `batch.PreparedBlock` is read-only, so
`_recurse` leaves such a start as it was.  The layer choice
(`select_layer`), the kernels and the moves serve both routes; only the
front end, the interchange (`permute_workspace`), the guards and the
output (`_scatter`) tell the two apart.

The recursion comes in two halves, the starting state and the layer loop
(`_recurse`), so that every detector on one block can start from the same
state.  One instance starts from `matched_filter` and `init_gram`
(`_start_workspace`), which check their input as `channel._check_input`
does.
`gstbc.batch` builds a block's compressed Gram and matched filter from
one batched product instead, charges what those two stages charge
(`_matched_filter_cost`, `_gram_cost`), and grows the same start
(`_grow_workspace`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .alamouti import (
    AlamoutiBlock,
    StructuredHermitianBlockMatrix,
    _new_tuple,
    ab_adjoint,
    sbm_from_rows,
    sbm_interchange,
    sbm_leading,
    sbm_matvec,
    sbm_sub_outer,
)
from .channel import ReceivedVector, _check_input, _check_shapes, equivalent_channel_batch
from .dense import adjoint_apply, gj_inverse_hpd, gram_plus_alpha
from .errors import IMAG_REL_TOL, PIVOT_REL_TOL, TIE_REL_TOL
from .errors import InvalidDimensions, SingularPivot
from .flops import FlopCounter, cdotu, charge, cost, dotu, flop_scope
from .modulation import qpsk_slice


@dataclass(frozen=True)
class DetectorWorkspace:
    """Per-depth state of the group-wise recursion.

    `m` layers remain; `Rbar` and `Qbar` are the compressed regularized
    Gram matrix of the remaining columns and its inverse; `z` is the
    running matched-filter vector (length 2m); `p` maps the current block
    position to the original layer index (full length, never truncated).
    Over a block every entry is a (B,) array.
    """

    m: int
    Rbar: StructuredHermitianBlockMatrix
    Qbar: StructuredHermitianBlockMatrix
    z: tuple
    p: tuple


@dataclass(frozen=True)
class TraceStep:
    """Snapshot taken after ordering, before cancellation, at one depth."""

    workspace: DetectorWorkspace
    y1: complex
    y2: complex


@dataclass(frozen=True)
class DetectionResult:
    """Hard decisions, pre-slicing soft values, detection order and cost.

    `decisions` and `soft` are indexed by the original symbol positions.
    `order` lists original indices in detection sequence: layer indices
    for the group-wise detectors, symbol indices for the symbol-wise
    ones, and the natural order for the linear equalizer.
    """

    decisions: np.ndarray
    soft: np.ndarray
    order: tuple
    flops: FlopCounter
    trace: Optional[tuple] = None


def _as_array(x):
    return np.asarray(x.entries if isinstance(x, ReceivedVector) else x)


def _check_instance(h, x, alpha):
    """Check one instance; return its gains (N x 2M) and samples as
    arrays, the samples None if not taken."""
    g, xv = np.asarray(h.gains), (None if x is None else _as_array(x))
    _check_input(g, xv, alpha, 0)
    return g, xv


def matched_filter(h, x) -> tuple:
    """Return H'^H x' as a tuple of 2M complex values.

    From the gains h, over antennas r in the equivalent rows' order:
    symbol 2i sums conj(h[r,2i]) x[2r] + h[r,2i+1] x[2r+1], and symbol
    2i+1 sums conj(h[r,2i+1]) x[2r] - h[r,2i] x[2r+1].
    """
    g, xv = _check_instance(h, x, None)
    # the gains by column, over the antennas
    cols = g.swapaxes(0, 1).tolist()
    xs = xv.tolist()
    n, two_m = g.shape[:2]
    out = []
    # symbol 2i adds its partner's term, symbol 2i+1 subtracts it
    for k in range(0, two_m, 2):
        even = odd = None
        for g1, g2, x1, x2 in zip(cols[k], cols[k + 1], xs[0::2], xs[1::2]):
            if even is None:
                even = g1.conjugate() * x1
                odd = g2.conjugate() * x1
            else:
                even += g1.conjugate() * x1
                odd += g2.conjugate() * x1
            even += g2 * x2
            odd -= g1 * x2
        out += (even, odd)
    charge(*_matched_filter_cost(n, two_m // 2))
    return tuple(out)


def _matched_filter_cost(n: int, m: int) -> tuple:
    """(mults, adds) that `matched_filter` charges at N = n, M = m: 4Nm
    complex mults and 2m(2N - 1) complex adds."""
    return cost(cmul=4 * n * m, cadd=(2 * n - 1) * 2 * m)


def init_gram(h, alpha: float) -> StructuredHermitianBlockMatrix:
    """Assemble H'^H H' + alpha I in compressed form.

    The column-pair orthogonality of the equivalent channel makes every
    diagonal block a real multiple of I2 and every off-diagonal block
    Alamouti, so only those parts are ever computed: per off-diagonal
    block 4N complex mults, per diagonal scalar 4N real mults.
    """
    g, _ = _check_instance(h, None, alpha)
    m = g.shape[1] // 2
    n = g.shape[0]
    # gains and conjugates by column (layer i: 2i and 2i + 1) over antennas
    cols = g.swapaxes(0, 1).tolist()
    conj = g.conj().swapaxes(0, 1).tolist()
    diag = []
    for i in range(m):
        acc = None
        for x1, x2 in zip(cols[2 * i], cols[2 * i + 1]):
            t = (x1.real * x1.real + x1.imag * x1.imag) + (x2.real * x2.real + x2.imag * x2.imag)
            acc = t if acc is None else acc + t
        diag.append(acc + float(alpha))
    rows = []
    for i in range(m):
        ai, bi, aic, bic = cols[2 * i], cols[2 * i + 1], conj[2 * i], conj[2 * i + 1]
        row = []
        for j in range(i + 1, m):
            acc1 = None
            for x1, x2, x1c, x2c, y1, y2c in zip(ai, bi, aic, bic, cols[2 * j], conj[2 * j + 1]):
                t1, t2 = x1c * y1 + x2 * y2c, x2c * y1 - x1 * y2c
                if acc1 is None:
                    acc1, acc2 = t1, t2
                else:
                    acc1 += t1
                    acc2 += t2
            row.append(_new_tuple(AlamoutiBlock, (acc1, acc2)))
        rows.append(tuple(row))
    charge(*_gram_cost(n, m))
    return sbm_from_rows(m, tuple(diag), tuple(rows))


def _gram_cost(n: int, m: int) -> tuple:
    """(mults, adds) that `init_gram` charges at N = n, M = m."""
    # per diagonal scalar 2N squared magnitudes and 2N real adds (alpha
    # included); per off-diagonal block 4N complex mults, 2N adds inside
    # the terms and 2(N - 1) to accumulate them
    blocks = m * (m - 1) // 2
    return cost(cabs2=2 * n * m, radd=2 * n * m, cmul=4 * n * blocks, cadd=(4 * n - 2) * blocks)


def _pivot_guard(value, scale, what):
    # NaN fails every comparison, so the tests pass only on good values;
    # a Python float stays on the cheap scalar path
    if isinstance(value, np.ndarray):
        ok = value > PIVOT_REL_TOL * np.maximum(scale, 1e-300)
        _block_guard(ok, f"{what} pivot vanishes", value, np.min)
    elif not value > PIVOT_REL_TOL * max(scale, 1e-300):
        raise SingularPivot(f"{what} pivot {value!r} vanishes at scale {scale!r}")


def _real_guard(beta):
    """A quadratic form that must be real keeps at most an IMAG_REL_TOL
    relative imaginary residue."""
    if isinstance(beta, np.ndarray):
        residue = np.abs(beta.imag) / np.maximum(np.abs(beta.real), 1e-300)
        _block_guard(residue <= IMAG_REL_TOL, "quadratic form lost its real structure", residue, np.max)
    elif not abs(beta.imag) <= IMAG_REL_TOL * max(abs(beta.real), 1e-300):
        raise SingularPivot(f"quadratic form {beta!r} lost its real structure")


def _block_guard(ok, what, value, worst):
    """Over a block: name how many instances failed and the worst value."""
    if not ok.all():
        n_bad = ok.size - np.count_nonzero(ok)
        raise SingularPivot(f"{what} in {n_bad} of {ok.size} instances, worst {worst(value[~ok]):.6g}")


def init_covariance(rbar: StructuredHermitianBlockMatrix) -> StructuredHermitianBlockMatrix:
    """Invert the compressed Gram matrix by growing one block at a time.

    Starting from the 2x2 case, each step appends one layer: with Q the
    current inverse, v the new off-diagonal block column of `rbar` and
    upsilon the new diagonal scalar, the quadratic form of the first
    column of v gives the new inverse diagonal scalar

        omega = 1 / (upsilon - v1^H Q v1),

    the new block column is w = -omega u with u = Q v, and the leading
    part becomes Q - u w^H = Q + omega u u^H.  The quadratic form is
    computed once as a complex number and must come out real; a stale
    imaginary part or a non-positive denominator raises SingularPivot.
    """
    m = rbar.m
    scale = sum(rbar.diag) / m
    _pivot_guard(rbar.diag[0], scale, "leading diagonal")
    q = sbm_from_rows(1, (1.0 / rbar.diag[0],), ((),))
    charge(*cost(rdiv=1))
    cols = rbar.upper_rows()
    for mm in range(2, m + 1):
        k = mm - 1
        v = [cols[j][k - j - 1] for j in range(k)]
        u = sbm_matvec(q, v)
        # quadratic form over the first expanded column of v and Q v
        beta = dotu([e.conjugate() for vj in v for e in vj], [e for uj in u for e in uj])
        _real_guard(beta)
        denom = rbar.diag[k] - beta.real
        _pivot_guard(denom, scale, "covariance recursion")
        omega = 1.0 / denom
        w = [_new_tuple(AlamoutiBlock, (-omega * u1, -omega * u2)) for u1, u2 in u]
        # the quadratic form, the denominator, its inverse and w
        charge(*cost(cmul=2 * k, cadd=2 * k - 1, radd=1, rdiv=1, rcmul=2 * k))
        diag, rows = sbm_sub_outer(q, u, w, border=w)
        q = sbm_from_rows(mm, (*diag, omega), rows)
    return q


def select_layer(ws: DetectorWorkspace):
    """Pick the layer with the smallest inverse diagonal (best post-MMSE
    quality); returns the even scalar index 2(i+1) of the chosen block,
    over a block a (B,) array of them.  As `np.argmin` (plain Python on one
    instance), ties go to the smallest index and a NaN wins."""
    diag = ws.Qbar.diag
    if not isinstance(diag[0], float):
        return 2 * (np.argmin(diag, axis=0) + 1)
    nan = [i for i, d in enumerate(diag) if d != d]
    return 2 * ((nan[0] if nan else diag.index(min(diag))) + 1)


def permute_workspace(ws: DetectorWorkspace, l: int) -> DetectorWorkspace:
    """Swap the chosen block into the last position of every state.

    `l` is the even scalar index returned by `select_layer`.  Data
    movement only; no flops.  A (B,) array of indices goes to `_swap_merged`.
    """
    if isinstance(l, np.ndarray):
        if np.any(l % 2) or not np.all((2 <= l) & (l <= 2 * ws.m)):
            raise InvalidDimensions(f"block indices must be even in [2, {2 * ws.m}]")
        return _swap_merged(ws, l // 2 - 1)
    if l % 2 or not 2 <= l <= 2 * ws.m:
        raise InvalidDimensions(f"block index must be even in [2, {2 * ws.m}], got {l}")
    k = l // 2 - 1
    last = ws.m - 1
    if k == last:
        return ws
    z, p = list(ws.z), list(ws.p)
    z[2 * k : 2 * k + 2], z[2 * last :] = z[2 * last :], z[2 * k : 2 * k + 2]
    p[k], p[last] = p[last], p[k]
    mats = []
    for a in (ws.Rbar, ws.Qbar):
        # the moves are made on the rows, which the result keeps
        rows, diag = [list(row) for row in a.upper_rows()], list(a.diag)
        for (i, j), (r, c), adjoint in sbm_interchange(ws.m, k):
            x, y = rows[i][j - i - 1], rows[r][c - r - 1]
            rows[i][j - i - 1], rows[r][c - r - 1] = (ab_adjoint(y), ab_adjoint(x)) if adjoint else (y, x)
        diag[k], diag[last] = diag[last], diag[k]
        mats.append(sbm_from_rows(ws.m, tuple(diag), tuple(map(tuple, rows))))
    return DetectorWorkspace(ws.m, *mats, tuple(z), tuple(p))


def _swap_merged(ws: DetectorWorkspace, k) -> DetectorWorkspace:
    """`permute_workspace` per instance: block k[b] trades places with the
    last block.  Group t, the instances i with k == t, makes in place the
    moves of `sbm_interchange(m, t)`.  A read-only entry is shared
    (a prepared block's start) and is copied first (`_owned`); any other
    was made by this recursion."""
    m = ws.m
    last = m - 1
    groups = [(t, i) for t in range(last) if (i := np.flatnonzero(k == t)).size]
    if not groups:
        return ws
    uidx = ws.Rbar._uidx
    z = _owned(ws.z)
    # positions start as Python ints
    p = [q if isinstance(q, np.ndarray) else np.full(k.shape, q) for q in ws.p[:m]]
    mats = [(_owned(a.diag), _owned(u.a1 for u in a.upper), _owned(u.a2 for u in a.upper)) for a in (ws.Rbar, ws.Qbar)]
    for t, i in groups:
        # (entries, a, b, f): entries a and b trade values, each through f
        moves = [(z, 2 * t, 2 * last, None), (z, 2 * t + 1, 2 * last + 1, None), (p, t, last, None)]
        blocks = [(uidx(*u), uidx(*v), adjoint) for u, v, adjoint in sbm_interchange(m, t)]
        for diag, a1, a2 in mats:
            moves.append((diag, t, last, None))
            moves += [(x, u, v, f if adjoint else None)
                      for u, v, adjoint in blocks for x, f in ((a1, np.conjugate), (a2, np.negative))]
        for entries, a, b, f in moves:
            # each takes the other's values; a == b makes one write
            for j, v in {a: entries[b][i], b: entries[a][i]}.items():
                entries[j][i] = v if f is None else f(v, out=v)
    rbar, qbar = (StructuredHermitianBlockMatrix(m, tuple(d), tuple(map(AlamoutiBlock, *a))) for d, *a in mats)
    return DetectorWorkspace(m, rbar, qbar, tuple(z), tuple(p) + ws.p[m:])


def _owned(entries) -> list:
    """The entries, each read-only one replaced by its copy.  The swap
    makes every copy before it gathers anything: copies placed between
    its gathered temporaries fragmented the heap, and a sweep's peak RSS
    rose by about 8 MiB at (8, 8)."""
    return [e if e.flags.writeable else e.copy() for e in entries]


def estimate_layer(ws: DetectorWorkspace):
    """Soft estimates of the last block's symbol pair.

    Applies the adjoint of the last block column of the inverse to the
    running matched-filter vector; the diagonal block is a real scalar,
    so its contribution uses the cheap real-times-complex path.
    """
    m = ws.m
    omega = ws.Qbar.diag[m - 1]
    y1 = omega * ws.z[2 * m - 2]
    y2 = omega * ws.z[2 * m - 1]
    # row j ends in block (j, m - 1), which enters as its adjoint
    for row, z1, z2 in zip(ws.Qbar.upper_rows()[:-1], ws.z[0::2], ws.z[1::2]):
        x1, x2 = row[-1]
        y1 += x1.conjugate() * z1 + x2.conjugate() * z2
        y2 += x1 * z2 - x2 * z1
    # the real scaling, m - 1 block products and their sums
    charge(*cost(rcmul=2, cmul=4 * (m - 1), cadd=2 * (m - 1) + 2 * (m - 1)))
    return y1, y2


def deflate_covariance(ws: DetectorWorkspace) -> StructuredHermitianBlockMatrix:
    """Inverse of the leading Gram submatrix after removing the last block.

    Undoes the growth step: with omega the last inverse diagonal and w the
    last inverse block column, the deflated inverse is T - wt w^H on the
    leading part, with wt = w / omega of order one: no entry of the
    inverse is squared.  Raises SingularPivot if omega has collapsed.
    """
    m = ws.m
    q = ws.Qbar
    omega = q.diag[m - 1]
    _pivot_guard(omega, sum(q.diag) / m, "covariance deflation")
    inv_omega = 1.0 / omega
    # row i ends in block (i, m - 1): w is the last block column
    w = [row[-1] for row in q.upper_rows()[:-1]]
    wt = [_new_tuple(AlamoutiBlock, (inv_omega * w1, inv_omega * w2)) for w1, w2 in w]
    # the inverse and wt
    charge(*cost(rdiv=1, rcmul=2 * (m - 1)))
    return sbm_from_rows(m - 1, *sbm_sub_outer(q, wt, w))


def cancel_layer(ws: DetectorWorkspace, s1: complex, s2: complex) -> DetectorWorkspace:
    """Subtract the detected pair and shrink every state by one block.

    The matched-filter vector loses the detected layer's contribution
    through the off-diagonal Gram column, the Gram matrix truncates to its
    leading principal part, and the inverse deflates to match, so the
    returned workspace again satisfies Rbar Qbar = I.
    """
    m = ws.m
    q_next = deflate_covariance(ws)
    z = []
    # row j ends in block (j, m - 1) of the Gram
    for j, row in enumerate(ws.Rbar.upper_rows()[:-1]):
        x1, x2 = row[-1]
        z += (ws.z[2 * j] - (x1 * s1 - x2.conjugate() * s2), ws.z[2 * j + 1] - (x2 * s1 + x1.conjugate() * s2))
    # m - 1 block products and the 2(m - 1) subtractions
    charge(*cost(cmul=4 * (m - 1), cadd=2 * (m - 1) + 2 * (m - 1)))
    return DetectorWorkspace(m - 1, sbm_leading(ws.Rbar, m - 1), q_next, tuple(z), ws.p)


def _scatter(steps, n_sym):
    """Decisions and soft values by original symbol position, from
    (layer, y1, y2, s1, s2) per depth.  A layer that is a number fills
    one column pair, two rows of the transposes; a block's layer that
    varies by instance, a (B,) array, fills each instance's pair at its
    flat positions in the C-ordered (B, n_sym) outputs."""
    y = steps[0][1]
    shape = (y.shape[0], n_sym) if isinstance(y, np.ndarray) else (n_sym,)
    decisions = np.empty(shape, dtype=np.complex128)
    soft = np.empty(shape, dtype=np.complex128)
    for layer, y1, y2, s1, s2 in steps:
        if isinstance(layer, np.ndarray):
            d, s = decisions.reshape(-1), soft.reshape(-1)
            k = np.arange(0, decisions.size, n_sym) + 2 * layer
        else:
            d, s, k = decisions.T, soft.T, 2 * layer
        d[k], d[k + 1], s[k], s[k + 1] = s1, s2, y1, y2
    return decisions, soft


def _start_workspace(h, x, alpha) -> DetectorWorkspace:
    """One instance's starting state for the recursion, on checked input:
    the matched filter, the compressed Gram and its grown inverse, every
    layer in place."""
    z = matched_filter(h, x)
    return _grow_workspace(init_gram(h, alpha), z)


def _grow_workspace(rbar, z) -> DetectorWorkspace:
    """The starting state from the compressed Gram `rbar` and the matched
    filter `z`: the grown inverse, every layer in place."""
    return DetectorWorkspace(rbar.m, rbar, init_covariance(rbar), z, tuple(range(rbar.m)))


def _recurse(ws: DetectorWorkspace, slicer, ordered, record_trace):
    """Detect every layer from a starting workspace, counting into the
    current `flop_scope`; returns (decisions, soft, order, trace).
    `slicer` is the route's QPSK slicer: `qpsk_slice` on one instance,
    `qpsk_slice_array` over a block.  A read-only start is left as it
    was, so it may serve several calls.  The block route records no
    trace: its Rbar entries pass from depth to depth through
    `sbm_leading`, so a snapshot would see the later swaps."""
    m = ws.m
    trace = [] if record_trace else None
    steps = []
    for mm in range(m, 0, -1):
        if mm > 1 and ordered:
            ws = permute_workspace(ws, select_layer(ws))
        y1, y2 = estimate_layer(ws)
        if record_trace:
            trace.append(TraceStep(ws, y1, y2))
        s1 = slicer(y1)
        s2 = slicer(y2)
        steps.append((ws.p[mm - 1], y1, y2, s1, s2))
        if mm > 1:
            ws = cancel_layer(ws, s1, s2)
    decisions, soft = _scatter(steps, 2 * m)
    # ws.p[mm - 1] froze at the step that detected depth mm, so the
    # detection sequence is p reversed
    return decisions, soft, tuple(ws.p[::-1]), tuple(trace) if record_trace else None


def _detect_recursive(h, x, alpha, ordered, record_trace):
    """The group-wise recursion on one instance, both halves counted in one
    scope; `matched_filter` checks finiteness after `_check_shapes`, in
    `channel._check_input`'s order."""
    _check_shapes(np.asarray(h.gains), _as_array(x), alpha, 0)
    local = FlopCounter()
    with flop_scope(local):
        decisions, soft, order, trace = _recurse(_start_workspace(h, x, alpha), qpsk_slice, ordered, record_trace)
    return DetectionResult(decisions, soft, order, local, trace)


def detect_gstbc(h, x, alpha: float, record_trace: bool = False) -> DetectionResult:
    """Group-wise MMSE-OSIC detection with optimal layer ordering.

    Layers are detected best-first (smallest inverse diagonal), each
    detected pair is cancelled from the matched-filter state, and the
    compressed inverse is deflated instead of recomputed.  `record_trace`
    keeps a per-depth snapshot of the workspace and soft pair for
    verification.
    """
    return _detect_recursive(h, x, alpha, True, record_trace)


def detect_fixed_order(h, x, alpha: float, record_trace: bool = False) -> DetectionResult:
    """Same recursion as `detect_gstbc` with ordering disabled (last block
    first, every step).  Isolates the gain of the ordering rule."""
    return _detect_recursive(h, x, alpha, False, record_trace)


def detect_linear_mmse(h, x, alpha: float) -> DetectionResult:
    """One-shot linear MMSE: y = (H'^H H' + alpha I)^{-1} H'^H x'."""
    gains, xv = _check_instance(h, x, alpha)
    a = equivalent_channel_batch(gains)
    n_sym = a.shape[1]
    local = FlopCounter()
    with flop_scope(local):
        cols = [a[:, k].tolist() for k in range(n_sym)]
        g = gram_plus_alpha(cols, alpha)
        q = gj_inverse_hpd(g)
        z = adjoint_apply(cols, xv.tolist())
        soft = [cdotu(qk, z) for qk in q]
        decisions = [qpsk_slice(y) for y in soft]
    return DetectionResult(
        np.array(decisions, dtype=np.complex128),
        np.array(soft, dtype=np.complex128),
        tuple(range(n_sym // 2)),
        local,
    )


def _dense_sic(h, x, alpha: float, groupwise: bool) -> DetectionResult:
    """Dense MMSE-SIC, one symbol per step, counted.  `batch._masked_sic`
    makes the same decisions over a block by downdating one inverse.

    `active` lists the undetected symbols.  Each step inverts the
    regularized Gram of their columns afresh, estimates one symbol from
    its row of the inverse and the matched filter of the residual, slices
    it, cancels it from the residual and drops it from `active`.
    Symbol-wise, the smallest inverse diagonal goes next, diagonals within
    TIE_REL_TOL of the minimum tying to the lowest position.  Group-wise,
    on whole pairs the first smallest second-symbol diagonal picks the
    layer and its second symbol goes next; that pair then trades places
    with the last pair (the interchange `permute_workspace` makes), so
    the first symbol, left alone at the end, goes after it.
    """
    gains, xv = _check_instance(h, x, alpha)
    a = equivalent_channel_batch(gains)
    n_sym = a.shape[1]
    local = FlopCounter()
    with flop_scope(local):
        cols = [a[:, k].tolist() for k in range(n_sym)]
        active = list(range(n_sym))
        residual = xv.tolist()
        decisions = np.empty(n_sym, dtype=np.complex128)
        soft = np.empty(n_sym, dtype=np.complex128)
        order = []
        while active:
            col_list = [cols[k] for k in active]
            q = gj_inverse_hpd(gram_plus_alpha(col_list, alpha))
            if not groupwise:
                diag = [q[i][i].real for i in range(len(active))]
                near = min(diag) * (1.0 + TIE_REL_TOL)
                pos = next(i for i, d in enumerate(diag) if d <= near)
            elif len(active) % 2:
                pos = len(active) - 1
            else:
                pos = min(range(1, len(active), 2), key=lambda i: q[i][i].real)
            z = adjoint_apply(col_list, residual)
            y = cdotu(q[pos], z)
            sym = active[pos]
            s_hat = qpsk_slice(y)
            decisions[sym] = s_hat
            soft[sym] = y
            residual = [t - c * s_hat for t, c in zip(residual, cols[sym])]
            charge(*cost(cmul=len(residual), cadd=len(residual)))
            if not groupwise:
                order.append(sym)
            elif pos % 2:
                order.append(sym // 2)
                active[pos - 1 : pos + 1], active[-2:] = active[-2:], active[pos - 1 : pos + 1]
                pos = -1
            active.pop(pos)
    return DetectionResult(decisions, soft, tuple(order), local)


def detect_osic_symbolwise(h, x, alpha: float) -> DetectionResult:
    """Symbol-wise MMSE-OSIC, brute force; the ordering oracle.  O(M^4) on
    purpose; no block structure is used.  Ties go to the lowest symbol
    index: the two symbols of a layer have equal diagonals whenever only
    whole layers have been removed, so without a rule the choice would
    fall to rounding."""
    return _dense_sic(h, x, alpha, groupwise=False)


def detect_sic_groupwise_symbolwise(h, x, alpha: float) -> DetectionResult:
    """Symbol-wise SIC in the group-wise detection order: layers are
    chosen as in `detect_gstbc`, ties included, and the second symbol of
    each is detected first, then the first from a freshly inverted reduced
    system.  The column-pair orthogonality of the equivalent channel makes
    the decisions match `detect_gstbc` decision for decision."""
    return _dense_sic(h, x, alpha, groupwise=True)


SCALAR_DETECTORS = {
    "proposed": detect_gstbc,
    "fixed_order": detect_fixed_order,
    "linear_mmse": detect_linear_mmse,
    "osic_symbolwise": detect_osic_symbolwise,
    "sic_groupwise": detect_sic_groupwise_symbolwise,
}
