"""Independent numpy reference for the five detectors, and the benchmark's
own instance generator.

Nothing here imports `gstbc`.  Every detection step solves its reduced
regularized system afresh with `numpy.linalg.solve`; the only state
carried from one step to the next is the residual and the set of symbols
still to detect.  The five routes are:

- `proposed`: group-wise MMSE-OSIC, best layer first (smallest diagonal
  of the inverse), both symbols of the layer estimated together;
- `fixed_order`: the same with the layers taken last to first;
- `sic_groupwise`: layer chosen by the diagonal of its second symbol,
  second symbol first, then the first symbol from a fresh solve of the
  reduced system;
- `osic_symbolwise`: symbol-wise MMSE-OSIC, best symbol first;
- `linear_mmse`: one solve, no cancellation.

Ties are allowed for, because a program that resolves one the other way
is not wrong.  At an ordering step whose best metrics lie within
`TIE_REL` of each other the reference follows every tied choice and
keeps each outcome as admissible.  A soft value within `TIE_ABS` of a
QPSK decision boundary marks the instance, and a disagreement on a
marked instance is excused and counted rather than failed.
"""

from __future__ import annotations

import math

import numpy as np

SCALE = 1.0 / math.sqrt(2.0)
TIE_REL = 1e-9
TIE_ABS = 1e-9

DETECTORS = ("proposed", "fixed_order", "linear_mmse", "osic_symbolwise", "sic_groupwise")


def sigma_n2(snr_db: float) -> float:
    """Noise variance at Eb/N0 `snr_db`: unit symbol energy, two bits per symbol."""
    return 1.0 / (2.0 * 10.0 ** (snr_db / 10.0))


def gray_qpsk(bits: np.ndarray) -> np.ndarray:
    """Bit pairs (b0, b1) on the last axis to ((1 - 2 b0) + 1j (1 - 2 b1)) / sqrt(2)."""
    bits = np.asarray(bits)
    return ((1.0 - 2.0 * bits[..., 0::2]) + 1j * (1.0 - 2.0 * bits[..., 1::2])) * SCALE


def equivalent(h: np.ndarray) -> np.ndarray:
    """Physical gains (..., N, 2M) to the stacked equivalent channel (..., 2N, 2M).

    Receive antenna n gives the slot-one row h_n and, for the conjugated
    slot-two sample, the row whose pair (2m, 2m+1) is
    (conj h_n,2m+1, -conj h_n,2m).
    """
    n, two_m = h.shape[-2:]
    out = np.empty(h.shape[:-2] + (2 * n, two_m), dtype=np.complex128)
    out[..., 0::2, :] = h
    out[..., 1::2, 0::2] = np.conj(h[..., 1::2])
    out[..., 1::2, 1::2] = -np.conj(h[..., 0::2])
    return out


def draw(rng: np.random.Generator, count: int, layers: int, n_rx: int, snr_db: float):
    """Draw `count` channel uses: gains (count, N, 2M), bits (count, 4M),
    symbols (count, 2M), stacked received vectors (count, 2N) and alpha."""
    two_m = 2 * layers
    s2 = sigma_n2(snr_db)
    h = (rng.standard_normal((count, n_rx, two_m)) + 1j * rng.standard_normal((count, n_rx, two_m))) * SCALE
    bits = rng.integers(0, 2, size=(count, 2 * two_m)).astype(np.int8)
    s = gray_qpsk(bits)
    noise = (rng.standard_normal((count, 2 * n_rx)) + 1j * rng.standard_normal((count, 2 * n_rx))) * math.sqrt(s2 / 2.0)
    x = np.einsum("brk,bk->br", equivalent(h), s) + noise
    return h, bits, s, x, s2


def _slice(y: complex) -> complex:
    return complex(SCALE if y.real >= 0 else -SCALE, SCALE if y.imag >= 0 else -SCALE)


def _near_boundary(y: complex) -> bool:
    return min(abs(y.real), abs(y.imag)) < TIE_ABS


def _candidates(metrics) -> list:
    """Positions whose ordering metric ties the smallest within TIE_REL, best first."""
    metrics = np.asarray(metrics)
    lo = metrics.min()
    near = np.flatnonzero(metrics - lo <= TIE_REL * abs(lo))
    return sorted((int(i) for i in near), key=lambda i: metrics[i])


def _solve(cols: np.ndarray, residual: np.ndarray, alpha: float):
    """Diagonal of (A^H A + alpha I)^-1 and the MMSE estimates of all columns of A."""
    k = cols.shape[1]
    g = cols.conj().T @ cols + alpha * np.eye(k)
    rhs = np.empty((k, k + 1), dtype=np.complex128)
    rhs[:, :k] = np.eye(k)
    rhs[:, k] = cols.conj().T @ residual
    sol = np.linalg.solve(g, rhs)
    return np.real(np.diagonal(sol[:, :k])), sol[:, k]


class _Path:
    """One detection sequence: residual, decisions and soft values so far."""

    def __init__(self, hp, x):
        self.hp = hp
        self.residual = np.array(x, dtype=np.complex128)
        self.decisions = np.zeros(hp.shape[1], dtype=np.complex128)
        self.soft = np.zeros(hp.shape[1], dtype=np.complex128)
        self.boundary = False

    def fork(self) -> "_Path":
        other = _Path.__new__(_Path)
        other.hp = self.hp
        other.residual = self.residual.copy()
        other.decisions = self.decisions.copy()
        other.soft = self.soft.copy()
        other.boundary = self.boundary
        return other

    def decide(self, sym, y):
        d = _slice(y)
        self.boundary |= _near_boundary(y)
        self.decisions[sym] = d
        self.soft[sym] = y
        self.residual -= self.hp[:, sym] * d


def _pairs(layers):
    return [s for lay in layers for s in (2 * lay, 2 * lay + 1)]


def _groupwise(path, active, alpha, ordered, ends):
    if not active:
        ends.append(path)
        return
    diag, est = _solve(path.hp[:, _pairs(active)], path.residual, alpha)
    choices = _candidates(diag[0::2]) if ordered else [len(active) - 1]
    for pos in choices:
        nxt = path.fork() if len(choices) > 1 else path
        layer = active[pos]
        nxt.decide(2 * layer, est[2 * pos])
        nxt.decide(2 * layer + 1, est[2 * pos + 1])
        _groupwise(nxt, active[:pos] + active[pos + 1 :], alpha, ordered, ends)


def _sic_groupwise(path, active, alpha, ends):
    if not active:
        ends.append(path)
        return
    diag, est = _solve(path.hp[:, _pairs(active)], path.residual, alpha)
    choices = _candidates(diag[1::2])
    for pos in choices:
        nxt = path.fork() if len(choices) > 1 else path
        layer = active[pos]
        rest = active[:pos] + active[pos + 1 :]
        nxt.decide(2 * layer + 1, est[2 * pos + 1])
        _, est1 = _solve(nxt.hp[:, _pairs(rest) + [2 * layer]], nxt.residual, alpha)
        nxt.decide(2 * layer, est1[-1])
        _sic_groupwise(nxt, rest, alpha, ends)


def _osic_symbolwise(path, active, alpha, ends):
    if not active:
        ends.append(path)
        return
    diag, est = _solve(path.hp[:, active], path.residual, alpha)
    choices = _candidates(diag)
    for pos in choices:
        nxt = path.fork() if len(choices) > 1 else path
        nxt.decide(active[pos], est[pos])
        _osic_symbolwise(nxt, active[:pos] + active[pos + 1 :], alpha, ends)


def _linear(path, active, alpha, ends):
    _, est = _solve(path.hp, path.residual, alpha)
    for sym, y in enumerate(est):
        path.decisions[sym] = _slice(y)
        path.soft[sym] = y
        path.boundary |= _near_boundary(y)
    ends.append(path)


def detect(name: str, hp: np.ndarray, x: np.ndarray, alpha: float):
    """Reference detection of one instance.

    Returns every admissible outcome as a list of (decisions, soft), one
    per way of resolving the ordering near-ties met on the way, and a flag
    saying whether any soft value lay near a decision boundary.  The two
    symbols of a layer always tie in the symbol-wise ordering (their
    columns are orthogonal with equal norms), so `osic_symbolwise` has
    several admissible outcomes by construction.
    """
    hp = np.asarray(hp, dtype=np.complex128)
    ends = []
    m = hp.shape[1] // 2
    if name == "proposed":
        _groupwise(_Path(hp, x), list(range(m)), alpha, True, ends)
    elif name == "fixed_order":
        _groupwise(_Path(hp, x), list(range(m)), alpha, False, ends)
    elif name == "sic_groupwise":
        _sic_groupwise(_Path(hp, x), list(range(m)), alpha, ends)
    elif name == "osic_symbolwise":
        _osic_symbolwise(_Path(hp, x), list(range(2 * m)), alpha, ends)
    elif name == "linear_mmse":
        _linear(_Path(hp, x), None, alpha, ends)
    else:
        raise KeyError(f"no reference route for detector {name!r}")
    return [(p.decisions, p.soft) for p in ends], any(p.boundary for p in ends)


def detect_block(name: str, h: np.ndarray, x: np.ndarray, alpha: float) -> list:
    """Reference detection of a block of physical channels (B, N, 2M)."""
    hp = equivalent(h)
    return [detect(name, hp[b], x[b], alpha) for b in range(h.shape[0])]


def _agrees(decisions, soft, outcome, soft_tol) -> bool:
    ref_dec, ref_soft = outcome
    if np.any(np.signbit(decisions.real) != np.signbit(ref_dec.real)):
        return False
    if np.any(np.signbit(decisions.imag) != np.signbit(ref_dec.imag)):
        return False
    dev = np.abs(soft - ref_soft) / np.maximum(1.0, np.abs(ref_soft))
    return bool(np.all(dev <= soft_tol))


def _soft_dev(soft, outcomes) -> float:
    return min(
        float(np.max(np.abs(soft - ref_soft) / np.maximum(1.0, np.abs(ref_soft))))
        for _, ref_soft in outcomes
    )


def compare(decisions, soft, references, soft_tol):
    """Compare program outputs (B, 2M) with the reference outcomes of each instance.

    An instance agrees when some admissible outcome has the same decision
    quadrants and soft values within `soft_tol` relative to
    max(1, |reference|).  Returns (failed, excused, max_soft_dev): the
    disagreements with no soft value near a boundary, the disagreements
    with one, and the largest relative soft deviation among agreeing
    instances.
    """
    failed = excused = 0
    worst = 0.0
    for b, (outcomes, boundary) in enumerate(references):
        d = np.asarray(decisions[b])
        s = np.asarray(soft[b])
        if any(_agrees(d, s, o, soft_tol) for o in outcomes):
            worst = max(worst, _soft_dev(s, outcomes))
        elif boundary:
            excused += 1
        else:
            failed += 1
    return failed, excused, worst
