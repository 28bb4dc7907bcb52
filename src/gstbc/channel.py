"""Flat-fading channel model for M parallel Alamouti-encoded layers.

Layer m (0-based) drives transmit antennas 2m and 2m+1 with the standard
two-slot Alamouti pattern: slot one sends (s_m1, s_m2), slot two sends
(-conj(s_m2), conj(s_m1)).  With N receive antennas and the per-antenna
received pair (x_n1, x_n2), stacking (x_n1, conj(x_n2)) for every antenna
turns the two-slot block system into the linear model

    x' = H' s' + n'

where s' = (s_11, s_12, ..., s_M1, s_M2) and H' is the 2N x 2M equivalent
channel that `equivalent_channel_batch` builds from the gains (over any
leading axes).  Each receive antenna contributes a row pair
(h_1, ..., h_2M) and (conj(h_2), -conj(h_1), ..., conj(h_2M),
-conj(h_2M-1)), which makes every column pair of H' orthogonal with equal
norms.  That orthogonality is what the block-compressed detectors exploit.
Since the gains fix H', the detectors take only the gains
(`ChannelMatrix`), and the recursion never builds H' at all.

The channel use is written once, in `receive`, over any leading axes:
`transmit` runs it on one instance and the sweep's draw on a block.  The
checks of the input types are written once here too (`_check_input` and
its parts), for `transmit` and for every detector on either route.

Randomness is counter-based: every draw derives from a fresh Philox
generator keyed by the caller's seed (optionally a spawn-key tuple), so
identical keys reproduce identical draws regardless of call order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensions, NonPositiveAlpha

__all__ = [
    "ChannelMatrix",
    "ReceivedVector",
    "NoiseSpec",
    "keyed_generator",
    "generate_channel",
    "equivalent_channel_batch",
    "second_slot",
    "receive",
    "transmit",
]


def keyed_generator(seed, *spawn_key) -> np.random.Generator:
    """Philox generator keyed by (seed, *spawn_key); order-independent."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in spawn_key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class ChannelMatrix:
    """N x 2M complex gains; column 2m+k is antenna k of layer m."""

    gains: np.ndarray

    @property
    def n_rx(self) -> int:
        return self.gains.shape[0]

    @property
    def layers(self) -> int:
        return self.gains.shape[1] // 2


@dataclass(frozen=True)
class ReceivedVector:
    """Stacked received samples (x_11, conj(x_12), ..., x_N1, conj(x_N2))."""

    entries: np.ndarray


@dataclass(frozen=True)
class NoiseSpec:
    """Complex AWGN with per-sample variance sigma_n2, drawn from `seed`."""

    sigma_n2: float
    seed: int = 0


def generate_channel(n_rx: int, layers: int, seed: int) -> ChannelMatrix:
    """Draw an i.i.d. CN(0, 1) channel (real and imaginary variance 1/2).

    Requires n_rx >= layers >= 1 so the group-wise detectors are
    well-posed.
    """
    if layers < 1 or n_rx < layers:
        raise InvalidDimensions(f"need n_rx >= layers >= 1, got n_rx={n_rx}, layers={layers}")
    rng = keyed_generator(seed)
    shape = (n_rx, 2 * layers)
    gains = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return ChannelMatrix(gains)


def _check_shapes(g, x, alpha, lead: int) -> None:
    """Both routes' input checks but finiteness, over `lead` leading
    instance axes (0 for one instance, 1 for a block): gains (..., N, 2M),
    N, M >= 1; samples (..., 2N) and a real, finite alpha > 0 (NaN and
    any complex type fail), each unless None."""
    if g.ndim != lead + 2 or g.shape[-1] % 2 or 0 in g.shape[lead:]:
        raise InvalidDimensions(f"channel gains must be {'B x ' * lead}N x 2M with N, M >= 1, got {g.shape}")
    if x is not None and x.shape != g.shape[:lead] + (2 * g.shape[lead],):
        raise InvalidDimensions(f"received samples must be {'B x ' * lead}2N, got {x.shape} for gains {g.shape}")
    if alpha is not None and (np.iscomplexobj(alpha) or not 0 < alpha < np.inf):
        raise NonPositiveAlpha(f"alpha must be real, > 0 and finite, got {alpha}")


def _check_finite(*arrays) -> None:
    """Finite entries in each array but None; a byte search, cheaper than
    `.all()` on one instance's few entries."""
    for a in arrays:
        if a is not None and b"\0" in np.isfinite(a).tobytes():
            raise InvalidDimensions("channel gains and received samples must be finite")


def _check_input(g, x, alpha, lead: int) -> None:
    """`_check_shapes`, then `_check_finite`."""
    _check_shapes(g, x, alpha, lead)
    _check_finite(g, x)


def _equivalent_rows(h, out):
    # antenna n of h (..., N, 2M) gives rows 2n and 2n + 1 of out (..., 2N, 2M)
    out[..., 0::2, :] = h
    out[..., 1::2, 0::2] = np.conj(h[..., 1::2])
    out[..., 1::2, 1::2] = -np.conj(h[..., 0::2])
    return out


def equivalent_channel_batch(h: np.ndarray) -> np.ndarray:
    """(..., N, 2M) physical gains to (..., 2N, 2M) equivalent channels."""
    out = np.empty(h.shape[:-2] + (2 * h.shape[-2], h.shape[-1]), dtype=np.complex128)
    return _equivalent_rows(h, out)


def second_slot(s: np.ndarray) -> np.ndarray:
    """Second-slot symbols of every antenna pair, (..., 2M) to (..., 2M):
    layer m sends (-conj(s_m2), conj(s_m1))."""
    t2 = np.empty_like(s)
    t2[..., 0::2] = -np.conj(s[..., 1::2])
    t2[..., 1::2] = np.conj(s[..., 0::2])
    return t2


def receive(h: np.ndarray, s: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """One two-slot channel use over any leading axes: gains (..., N, 2M),
    symbols (..., 2M) and slot noise (..., N, 2) give the stacked samples
    (..., 2N).  Slot one sends `s`, slot two its `second_slot`, and each
    slot-two sample is conjugated as it is stacked; conjugated CN noise
    is CN with the same variance, so the stacked model sees i.i.d. noise.

    Both slots are added into `noise` (complex128), which becomes the
    samples: the result is `noise` seen as (..., 2N), sample 2n + t being
    slot t of antenna n.
    """
    slot1, slot2 = noise[..., 0], noise[..., 1]
    slot1 += np.einsum("...nj,...j->...n", h, s)
    slot2 += np.einsum("...nj,...j->...n", h, second_slot(s))
    np.conjugate(slot2, out=slot2)
    return noise.reshape(noise.shape[:-2] + (2 * noise.shape[-2],))


def transmit(h: ChannelMatrix, s, noise: NoiseSpec) -> ReceivedVector:
    """Run one two-slot channel use and return the stacked received vector.

    `s` is any length-2M sequence of symbols.  The noise of each receive
    antenna and slot is drawn from `noise.seed` (none at zero variance)
    and the use itself is `receive` on one instance.
    """
    g = np.asarray(h.gains)
    _check_input(g, None, None, 0)
    sv = np.asarray(s, dtype=np.complex128)
    if sv.ndim != 1 or sv.size != g.shape[1]:
        raise InvalidDimensions(f"symbol vector length {sv.size} does not match 2M={g.shape[1]}")
    if not 0 <= noise.sigma_n2 < np.inf:
        raise InvalidDimensions(f"noise variance must be finite and >= 0, got {noise.sigma_n2}")
    w = np.zeros((g.shape[0], 2), dtype=np.complex128)
    if noise.sigma_n2 > 0:
        rng = keyed_generator(noise.seed)
        w = np.sqrt(noise.sigma_n2 / 2.0) * (rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape))
    return ReceivedVector(receive(g, sv, w))
