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

The recursion is written once and reads only the physical gains, never a
built equivalent channel.  Each compressed entry is a Python number for
one instance, or a (B,) array for a block of B instances whose gains are
stored batch-last (N x 2M x B), which is how `gstbc.batch` runs `proposed`
and `fixed_order`; a `flop_scope` around a block counts one instance.  Only
the front end, the ordering, the guards and the output (`_scatter`) tell
the two apart.  The recursion comes in two halves, the starting state
(`_start_workspace`) and the layer loop (`_recurse`), so that every
detector on one block can start from the same state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .alamouti import (
    AlamoutiBlock,
    StructuredHermitianBlockMatrix,
    ab_adjoint_apply,
    ab_apply,
    ab_mul_adjoint,
    ab_scale_real,
    ab_sub,
    sbm_leading,
    sbm_matvec,
    sbm_swap_blocks,
)
from .channel import ChannelMatrix, EquivalentChannel, ReceivedVector, build_equivalent, equivalent_channel_batch
from .dense import adjoint_apply, gj_inverse_hpd, gram_plus_alpha
from .errors import IMAG_REL_TOL, PIVOT_REL_TOL, TIE_REL_TOL
from .errors import InvalidDimensions, NonPositiveAlpha, SingularPivot, StructureViolation
from .flops import FlopCounter, cabs2, cadd, cmul, csub, flop_scope, radd, rcmul, rdiv, rmul, rsub
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
    return x.entries if isinstance(x, ReceivedVector) else np.asarray(x)


def _check_instance(hp, x, alpha: float):
    """Check the gains, or the already-stacked equivalent form, and the
    samples; return the equivalent channel and the samples as arrays."""
    a = np.asarray((build_equivalent(hp) if isinstance(hp, ChannelMatrix) else hp).array)
    xv = _as_array(x)
    if a.ndim != 2 or a.shape[0] % 2 or a.shape[1] % 2 or a.shape[1] == 0:
        raise InvalidDimensions(f"equivalent channel must be 2N x 2M, got {a.shape}")
    if xv.ndim != 1 or xv.size != a.shape[0]:
        raise InvalidDimensions(f"received vector length {xv.size} does not match 2N={a.shape[0]}")
    if not alpha > 0:
        raise NonPositiveAlpha(f"alpha must be > 0, got {alpha}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(xv))):
        raise InvalidDimensions("channel gains and received samples must be finite")
    return a, xv


def _front_end(hp):
    """The gains (N x 2M) and their conversion to entries: Python numbers
    for one instance, (B,) arrays for a batch-last block (N x 2M x B,
    samples 2N x B).  An equivalent channel gives its even rows once its
    odd rows are checked to be exactly their Alamouti partners."""
    if isinstance(hp, EquivalentChannel):
        a = np.asarray(hp.array)
        lead = np.moveaxis(a, -1, 0) if a.ndim == 3 else a
        if not np.array_equal(equivalent_channel_batch(lead[..., 0::2, :]), lead):
            raise StructureViolation("equivalent channel rows are not the Alamouti pairs of its even rows")
        g = a[0::2]
    else:
        g = np.asarray(hp.gains)
    return g, (np.asarray if g.ndim == 3 else np.ndarray.tolist)


def matched_filter(hp, x) -> tuple:
    """Return H'^H x' as a tuple of 2M complex values.

    From the gains h, over antennas r in the equivalent rows' order:
    symbol 2i sums conj(h[r,2i]) x[2r] + h[r,2i+1] x[2r+1], and symbol
    2i+1 sums conj(h[r,2i+1]) x[2r] - h[r,2i] x[2r+1].
    """
    g, entries = _front_end(hp)
    xv = _as_array(x)
    if len(xv) != 2 * g.shape[0]:
        raise InvalidDimensions(f"received vector length {len(xv)} does not match 2N={2 * g.shape[0]}")
    rows = entries(g)
    xs = entries(xv)
    out = []
    for k in range(g.shape[1]):
        add_partner = csub if k % 2 else cadd
        acc = cmul(rows[0][k].conjugate(), xs[0])
        for r, row in enumerate(rows):
            if r:
                acc = cadd(acc, cmul(row[k].conjugate(), xs[2 * r]))
            acc = add_partner(acc, cmul(row[k ^ 1], xs[2 * r + 1]))
        out.append(acc)
    return tuple(out)


def init_gram(hp, alpha: float) -> StructuredHermitianBlockMatrix:
    """Assemble H'^H H' + alpha I in compressed form.

    The column-pair orthogonality of the equivalent channel makes every
    diagonal block a real multiple of I2 and every off-diagonal block
    Alamouti, so only those parts are ever computed: per off-diagonal
    block 4N complex mults, per diagonal scalar 4N real mults.
    """
    if not alpha > 0:
        raise NonPositiveAlpha(f"alpha must be > 0, got {alpha}")
    g, entries = _front_end(hp)
    m = g.shape[1] // 2
    n = g.shape[0]
    # per receive antenna and layer: a = gain of the first antenna in the
    # pair, b = gain of the second; redundancy rows are implied
    a = entries(g[:, 0::2])
    b = entries(g[:, 1::2])
    diag = []
    for i in range(m):
        acc = radd(cabs2(a[0][i]), cabs2(b[0][i]))
        for r in range(1, n):
            acc = radd(acc, radd(cabs2(a[r][i]), cabs2(b[r][i])))
        diag.append(radd(acc, alpha))
    upper = []
    for i in range(m):
        for j in range(i + 1, m):
            acc1 = acc2 = None
            for r in range(n):
                ai, bi, aj, bj = a[r][i], b[r][i], a[r][j], b[r][j]
                t1 = cadd(cmul(ai.conjugate(), aj), cmul(bi, bj.conjugate()))
                t2 = csub(cmul(bi.conjugate(), aj), cmul(ai, bj.conjugate()))
                acc1 = t1 if acc1 is None else cadd(acc1, t1)
                acc2 = t2 if acc2 is None else cadd(acc2, t2)
            upper.append(AlamoutiBlock(acc1, acc2))
    return StructuredHermitianBlockMatrix(m, tuple(diag), tuple(upper))


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

    the new block column is w = -omega (Q v), and the leading part becomes
    Q + omega (Q v)(Q v)^H.  The quadratic form is computed once as a
    complex number and must come out real; a stale imaginary part or a
    non-positive denominator raises SingularPivot.
    """
    m = rbar.m
    scale = sum(rbar.diag) / m
    _pivot_guard(rbar.diag[0], scale, "leading diagonal")
    q = StructuredHermitianBlockMatrix(1, (rdiv(1.0, rbar.diag[0]),), ())
    for mm in range(2, m + 1):
        k = mm - 1
        v = [rbar.block(j, k) for j in range(k)]
        upsilon = rbar.diag[k]
        u = sbm_matvec(q, v)
        # quadratic form over the first expanded column of v and Q v
        beta = cmul(v[0].a1.conjugate(), u[0].a1)
        beta = cadd(beta, cmul(v[0].a2.conjugate(), u[0].a2))
        for j in range(1, k):
            beta = cadd(beta, cmul(v[j].a1.conjugate(), u[j].a1))
            beta = cadd(beta, cmul(v[j].a2.conjugate(), u[j].a2))
        _real_guard(beta)
        denom = rsub(upsilon, beta.real)
        _pivot_guard(denom, scale, "covariance recursion")
        omega = rdiv(1.0, denom)
        w = [ab_scale_real(-omega, uj) for uj in u]
        new_diag = []
        for i in range(k):
            grow = rmul(omega, radd(cabs2(u[i].a1), cabs2(u[i].a2)))
            new_diag.append(radd(q.diag[i], grow))
        new_diag.append(omega)
        new_upper = []
        for i in range(k):
            for j in range(i + 1, k):
                new_upper.append(ab_sub(q.block(i, j), ab_mul_adjoint(u[i], w[j])))
            new_upper.append(w[i])
        q = StructuredHermitianBlockMatrix(mm, tuple(new_diag), tuple(new_upper))
    return q


def select_layer(ws: DetectorWorkspace):
    """Pick the layer with the smallest inverse diagonal (best post-MMSE
    quality); returns the even scalar index 2(i+1) of the chosen block,
    over a block a (B,) array of them.  Ties resolve to the smallest
    index."""
    if isinstance(ws.Qbar.diag[0], np.ndarray):
        return 2 * (np.argmin(np.stack(ws.Qbar.diag), axis=0) + 1)
    best = 0
    best_val = ws.Qbar.diag[0]
    for i in range(1, ws.m):
        if ws.Qbar.diag[i] < best_val:
            best = i
            best_val = ws.Qbar.diag[i]
    return 2 * (best + 1)


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
    z = list(ws.z)
    z[2 * k], z[2 * last] = z[2 * last], z[2 * k]
    z[2 * k + 1], z[2 * last + 1] = z[2 * last + 1], z[2 * k + 1]
    p = list(ws.p)
    p[k], p[last] = p[last], p[k]
    return DetectorWorkspace(
        ws.m,
        sbm_swap_blocks(ws.Rbar, k, last),
        sbm_swap_blocks(ws.Qbar, k, last),
        tuple(z),
        tuple(p),
    )


def _swap_merged(ws: DetectorWorkspace, k) -> DetectorWorkspace:
    """`permute_workspace` per instance: block k[b] trades places with the
    last block.  For each t, the instances with k == t are listed once;
    an entry the swap of block t moves is copied once, and its value
    under that swap is gathered at those instances and scattered in."""
    m = ws.m
    last = m - 1
    hits = [(t, idx) for t in range(last) if (idx := np.flatnonzero(k == t)).size]

    def merged(at, *pos):
        # `at(*pos, idx)` reads the entry at pos for the instances idx
        base = out = at(*pos, slice(None))
        for t, idx in hits:
            moved = tuple(last if q == t else t if q == last else q for q in pos)
            if moved != pos:
                if out is base:
                    out = base.copy()
                out[idx] = at(*moved, idx)
        return out

    def matrix(a):
        def part(c):
            # a lower-triangle read takes the adjoint of the gathered subset
            def at(i, j, idx):
                if i < j:
                    return a.upper[a._uidx(i, j)][c][idx]
                x = a.upper[a._uidx(j, i)][c][idx]
                return -x if c else x.conjugate()
            return at

        diag = tuple(merged(lambda i, idx: a.diag[i][idx], i) for i in range(m))
        upper = tuple(
            AlamoutiBlock(merged(part(0), i, j), merged(part(1), i, j))
            for i in range(m) for j in range(i + 1, m)
        )
        return StructuredHermitianBlockMatrix(m, diag, upper)

    z = tuple(merged(lambda i, idx, o=s % 2: ws.z[2 * i + o][idx], s // 2) for s in range(2 * m))
    # positions start as Python ints; broadcasting makes each an array
    pos = [np.broadcast_to(q, k.shape) for q in ws.p[:m]]
    p = tuple(merged(lambda i, idx: pos[i][idx], i) for i in range(m)) + ws.p[m:]
    return DetectorWorkspace(m, matrix(ws.Rbar), matrix(ws.Qbar), z, p)


def estimate_layer(ws: DetectorWorkspace):
    """Soft estimates of the last block's symbol pair.

    Applies the adjoint of the last block column of the inverse to the
    running matched-filter vector; the diagonal block is a real scalar,
    so its contribution uses the cheap real-times-complex path.
    """
    m = ws.m
    omega = ws.Qbar.diag[m - 1]
    y1 = rcmul(omega, ws.z[2 * m - 2])
    y2 = rcmul(omega, ws.z[2 * m - 1])
    for j in range(m - 1):
        c1, c2 = ab_adjoint_apply(ws.Qbar.block(j, m - 1), ws.z[2 * j], ws.z[2 * j + 1])
        y1 = cadd(y1, c1)
        y2 = cadd(y2, c2)
    return y1, y2


def deflate_covariance(ws: DetectorWorkspace) -> StructuredHermitianBlockMatrix:
    """Inverse of the leading Gram submatrix after removing the last block.

    Undoes the growth step: with omega the last inverse diagonal and w the
    last inverse block column, the deflated inverse is T - (1/omega) w w^H
    on the leading part.  Raises SingularPivot if omega has collapsed.
    """
    m = ws.m
    q = ws.Qbar
    omega = q.diag[m - 1]
    _pivot_guard(omega, sum(q.diag) / m, "covariance deflation")
    inv_omega = rdiv(1.0, omega)
    w = [q.block(j, m - 1) for j in range(m - 1)]
    wt = [ab_scale_real(inv_omega, wj) for wj in w]
    diag = []
    for i in range(m - 1):
        drop = rmul(inv_omega, radd(cabs2(w[i].a1), cabs2(w[i].a2)))
        diag.append(rsub(q.diag[i], drop))
    upper = []
    for i in range(m - 1):
        for j in range(i + 1, m - 1):
            upper.append(ab_sub(q.block(i, j), ab_mul_adjoint(wt[i], w[j])))
    return StructuredHermitianBlockMatrix(m - 1, tuple(diag), tuple(upper))


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
    for j in range(m - 1):
        t1, t2 = ab_apply(ws.Rbar.block(j, m - 1), s1, s2)
        z.append(csub(ws.z[2 * j], t1))
        z.append(csub(ws.z[2 * j + 1], t2))
    return DetectorWorkspace(m - 1, sbm_leading(ws.Rbar, m - 1), q_next, tuple(z), ws.p)


def _scatter(steps, n_sym):
    """Decisions and soft values by original symbol position, from
    (layer, y1, y2, s1, s2) per depth; a block's layer may vary by instance."""
    y = steps[0][1]
    rows = (np.arange(y.shape[0]),) if isinstance(y, np.ndarray) else ()
    shape = tuple(r.size for r in rows) + (n_sym,)
    decisions = np.empty(shape, dtype=np.complex128)
    soft = np.empty(shape, dtype=np.complex128)
    for layer, y1, y2, s1, s2 in steps:
        decisions[rows + (2 * layer,)] = s1
        decisions[rows + (2 * layer + 1,)] = s2
        soft[rows + (2 * layer,)] = y1
        soft[rows + (2 * layer + 1,)] = y2
    return decisions, soft


def _start_workspace(hp, x, alpha) -> DetectorWorkspace:
    """The recursion's starting state on checked input: the matched filter,
    the compressed Gram and its grown inverse, every layer in place.  One
    instance, or a block of instances stored batch-last (see `_front_end`)."""
    m = hp.layers
    z = matched_filter(hp, x)
    rbar = init_gram(hp, alpha)
    # over a block the gains are the largest array held;
    # nothing below reads it
    del hp, x
    return DetectorWorkspace(m, rbar, init_covariance(rbar), z, tuple(range(m)))


def _recurse(ws: DetectorWorkspace, slicer, ordered, record_trace):
    """Detect every layer from a starting workspace, counting into the
    current `flop_scope`; returns (decisions, soft, order, trace).  The
    workspace is only read, so one start may serve several calls.
    `slicer` is the route's QPSK slicer: `qpsk_slice` on one instance,
    `qpsk_slice_array` over a block."""
    m = ws.m
    trace = [] if record_trace else None
    steps = []
    for mm in range(m, 0, -1):
        if mm > 1:
            ws = permute_workspace(ws, select_layer(ws) if ordered else 2 * mm)
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


def _detect_recursive(hp, x, alpha, ordered, record_trace):
    """The group-wise recursion on one checked instance, both halves
    counted in one scope."""
    local = FlopCounter()
    with flop_scope(local):
        decisions, soft, order, trace = _recurse(_start_workspace(hp, x, alpha), qpsk_slice, ordered, record_trace)
    return DetectionResult(decisions, soft, order, local, trace)


def detect_gstbc(hp, x, alpha: float, record_trace: bool = False) -> DetectionResult:
    """Group-wise MMSE-OSIC detection with optimal layer ordering.

    Layers are detected best-first (smallest inverse diagonal), each
    detected pair is cancelled from the matched-filter state, and the
    compressed inverse is deflated instead of recomputed.  `record_trace`
    keeps a per-depth snapshot of the workspace and soft pair for
    verification.
    """
    _check_instance(hp, x, alpha)
    return _detect_recursive(hp, x, alpha, True, record_trace)


def detect_fixed_order(hp, x, alpha: float, record_trace: bool = False) -> DetectionResult:
    """Same recursion as `detect_gstbc` with ordering disabled (last block
    first, every step).  Isolates the gain of the ordering rule."""
    _check_instance(hp, x, alpha)
    return _detect_recursive(hp, x, alpha, False, record_trace)


def detect_linear_mmse(hp, x, alpha: float) -> DetectionResult:
    """One-shot linear MMSE: y = (H'^H H' + alpha I)^{-1} H'^H x'."""
    a, xv = _check_instance(hp, x, alpha)
    n_sym = a.shape[1]
    local = FlopCounter()
    with flop_scope(local):
        cols = [a[:, k].tolist() for k in range(n_sym)]
        g = gram_plus_alpha(cols, alpha)
        q = gj_inverse_hpd(g)
        z = adjoint_apply(cols, xv.tolist())
        soft = []
        for k in range(n_sym):
            acc = cmul(q[k][0], z[0])
            for j in range(1, n_sym):
                acc = cadd(acc, cmul(q[k][j], z[j]))
            soft.append(acc)
        decisions = [qpsk_slice(y) for y in soft]
    return DetectionResult(
        np.array(decisions, dtype=np.complex128),
        np.array(soft, dtype=np.complex128),
        tuple(range(n_sym // 2)),
        local,
    )


def _dense_sic(hp, x, alpha: float, groupwise: bool) -> DetectionResult:
    """Dense MMSE-SIC, one symbol per step; the counted twin of
    `batch._masked_sic`.

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
    a, xv = _check_instance(hp, x, alpha)
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
            y = cmul(q[pos][0], z[0])
            for j in range(1, len(active)):
                y = cadd(y, cmul(q[pos][j], z[j]))
            sym = active[pos]
            s_hat = qpsk_slice(y)
            decisions[sym] = s_hat
            soft[sym] = y
            col = cols[sym]
            for r in range(len(residual)):
                residual[r] = csub(residual[r], cmul(col[r], s_hat))
            if not groupwise:
                order.append(sym)
            elif pos % 2:
                order.append(sym // 2)
                active[pos - 1 : pos + 1], active[-2:] = active[-2:], active[pos - 1 : pos + 1]
                pos = -1
            active.pop(pos)
    return DetectionResult(decisions, soft, tuple(order), local)


def detect_osic_symbolwise(hp, x, alpha: float) -> DetectionResult:
    """Symbol-wise MMSE-OSIC, brute force; the ordering oracle.  O(M^4) on
    purpose; no block structure is used.  Ties go to the lowest symbol
    index: the two symbols of a layer have equal diagonals whenever only
    whole layers have been removed, so without a rule the choice would
    fall to rounding."""
    return _dense_sic(hp, x, alpha, groupwise=False)


def detect_sic_groupwise_symbolwise(hp, x, alpha: float) -> DetectionResult:
    """Symbol-wise SIC in the group-wise detection order: layers are
    chosen as in `detect_gstbc`, ties included, and the second symbol of
    each is detected first, then the first from a freshly inverted reduced
    system.  The column-pair orthogonality of the equivalent channel makes
    the decisions match `detect_gstbc` decision for decision."""
    return _dense_sic(hp, x, alpha, groupwise=True)


SCALAR_DETECTORS = {
    "proposed": detect_gstbc,
    "fixed_order": detect_fixed_order,
    "linear_mmse": detect_linear_mmse,
    "osic_symbolwise": detect_osic_symbolwise,
    "sic_groupwise": detect_sic_groupwise_symbolwise,
}
