"""Monte Carlo bit-error-rate harness.

Channel model: independent Rayleigh fading, flat over the two slots of
each space-time block, drawn independently for each instance.  SNR is Eb/N0 in dB with
unit symbol energy (sigma_s2 = 1) and two bits per symbol, so

    sigma_n2 = sigma_s2 / (2 * 10**(snr_db / 10))

and the regularizer passed to the detectors is alpha = sigma_n2 /
sigma_s2.  A sweep splits its trials into blocks of at most BLOCK_SIZE
instances, of near-equal size, and block k owns the stream keyed by
(seed, k), so the records do not depend on evaluation order.  From it a
block's gains are drawn once, then each SNR point's bits and noise in
grid order: every point of a sweep sees the same channels (common random
numbers), and within a point every detector sees the same channels,
symbols and noise.  Each point's BER keeps its distribution, but
adjacent points are positively correlated, so their differences and
`snr_at_ber`'s interpolation are less noisy than with independent draws.
A point's bits are mapped by `modulation.qpsk_modulate` and sent through
`channel.receive`, the channel use that `channel.transmit` runs on one
instance; errors are counted against `qpsk_demap` of the decisions.

Each (block, point) is wrapped once in a `batch.PreparedBlock`, so the
detectors share its checks and front ends (the recursion's compressed
entries and starting state, the Gram's block factor and its inverse)
instead of each rebuilding them, and its front ends are dropped before
the next point.  A sweep's memory is bounded by one block's gains plus
one point's draw and front ends.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import ClassVar

import numpy as np

from .batch import DETECTORS, PreparedBlock
from .channel import keyed_generator, receive
from .errors import ConfigInvalid, GstbcError, ParseError
from .modulation import qpsk_demap, qpsk_modulate

BLOCK_SIZE = 4_096
# the most instances a block holds, which its detectors take at once.  Of
# 2,048, 4,096 and 8,192 (one BLAS thread), this swept 3-14% faster than
# either other size at (8, 8) and (16, 16) with proposed, fixed_order and
# linear_mmse, and as fast as 8,192 at (2, 8) with all five detectors

_SCALE = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class SimConfig:
    """One sweep: trials are two-slot channel uses per SNR point.

    Symbols are unit-energy QPSK; `sigma_s2` names that energy and is not
    a setting, since the draw sends unit energy whatever it says.
    """

    layers: int
    n_rx: int
    snr_db: tuple = (0.0, 5.0, 10.0)
    detectors: tuple = ("proposed",)
    trials: int = 100_000
    seed: int = 0
    sigma_s2: ClassVar[float] = 1.0

    def __post_init__(self):
        # a bool passes `operator.index` and the noise formula, so it is
        # refused by name
        for name in ("layers", "n_rx", "trials", "seed"):
            try:
                if isinstance(getattr(self, name), bool):
                    raise TypeError
                operator.index(getattr(self, name))
            except TypeError:
                raise ConfigInvalid(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.layers < 1 or self.n_rx < self.layers:
            raise ConfigInvalid(
                f"need n_rx >= layers >= 1, got layers={self.layers} n_rx={self.n_rx}"
            )
        try:
            if any(isinstance(v, (bool, np.bool_)) for v in self.snr_db):
                raise TypeError
            noise = [float(sigma_n2_for_snr(v, self.sigma_s2)) for v in self.snr_db]
        except (OverflowError, ZeroDivisionError):
            noise = [math.nan]
        except TypeError:
            raise ConfigInvalid(f"snr_db must be a sequence of real numbers, got {self.snr_db!r}") from None
        if not noise:
            raise ConfigInvalid("snr_db grid must be nonempty")
        if not all(0 < v < math.inf for v in noise):
            raise ConfigInvalid(f"snr_db values must give a noise variance and alpha finite and > 0, got {self.snr_db}")
        try:
            if isinstance(self.detectors, str):
                raise TypeError
            unknown = [d for d in self.detectors if d not in DETECTORS]
        except TypeError:
            raise ConfigInvalid(f"detectors must be a sequence of names, got {self.detectors!r}") from None
        if not self.detectors:
            raise ConfigInvalid("detectors must name at least one detector")
        if unknown:
            raise ConfigInvalid(f"unknown detectors: {unknown}; known: {sorted(DETECTORS)}")
        if len(set(self.detectors)) != len(self.detectors):
            raise ConfigInvalid(f"detectors must not repeat, got {list(self.detectors)}")
        if self.trials < 1:
            raise ConfigInvalid("trials must be positive")
        if self.seed < 0:
            raise ConfigInvalid(f"seed must be >= 0, got {self.seed}")


@dataclass
class BerRecord:
    detector: str
    snr_db: float
    bits: int
    bit_errors: int
    ber: float
    frames: int
    frame_errors: int


def sigma_n2_for_snr(snr_db: float, sigma_s2: float = 1.0) -> float:
    return sigma_s2 / (2.0 * 10.0 ** (snr_db / 10.0))


def _draw_gains(rng, count, layers, n_rx):
    """`count` channels of (N, 2M) gains, `(n1 + 1j*n2) * _SCALE` with each
    gain's two normals adjacent in the stream: one `standard_normal` call,
    scaled in place and seen as complex128."""
    n = rng.standard_normal((count, n_rx, 2 * layers, 2))
    n *= _SCALE
    return n.view(np.complex128)[..., 0]


def _draw_uses(rng, h, sigma_n2):
    """One channel use per instance of the gains `h`: the bit streams, their
    symbols and the stacked received vectors.

    The bits are one int8 `integers` call, two per symbol; the slot noise
    is drawn as the gains are, scaled by sqrt(sigma_n2 / 2), and becomes
    the samples in place (`receive`).
    """
    count, n_rx, two_m = h.shape
    bits = rng.integers(0, 2, size=(count, 2 * two_m), dtype=np.int8)
    s = qpsk_modulate(bits)
    noise = rng.standard_normal((count, n_rx, 2, 2))
    noise *= math.sqrt(sigma_n2 / 2.0)
    return bits, s, receive(h, s, noise.view(np.complex128)[..., 0])


def _draw_block(rng, count, layers, n_rx, sigma_n2):
    """One block's gains and one point's uses on them, from one stream, as
    a sweep draws a block's first point: (h, bits, s, x)."""
    h = _draw_gains(rng, count, layers, n_rx)
    return (h, *_draw_uses(rng, h, sigma_n2))


def _bit_errors(decisions, bits):
    """Bit and frame errors of (B, 2M) decisions against (B, 4M) bits.

    The demap's flags and the bits are both int8 0/1, so their XOR flags
    each wrong bit in one byte.  A layer's 4 bytes read as one `uint32`
    word, and a frame is wrong if any of its M words is nonzero: an OR
    over the words' (B,) columns, as one op per column, not a reduction
    over the short axis.
    """
    wrong = np.bitwise_xor(qpsk_demap(decisions), bits, dtype=np.int8)
    words = wrong.view(np.uint32)
    return np.count_nonzero(wrong), np.count_nonzero(reduce(np.bitwise_or, words.T))


def run_ber_sweep(config: SimConfig, progress=None) -> list:
    """Sweep SNR points, returning one record per (detector, point).

    Exactly `config.trials` channel uses are simulated per point.  Block
    k of `blocks` covers trials [trials*k//blocks, trials*(k+1)//blocks)
    and is drawn from `keyed_generator(seed, k)`: its gains once, then
    each point's bits and noise in grid order.  `progress(point, block,
    blocks)` is called after each (block, point), block-outer.  A detector
    failure raises its `GstbcError` again, as the same type, naming the
    detector, point, block and the block's trials.
    """
    n = config.trials
    blocks = math.ceil(n / BLOCK_SIZE)
    variances = [sigma_n2_for_snr(snr_db, config.sigma_s2) for snr_db in config.snr_db]
    # bits, errs, frames, ferrs of each (point, detector)
    tally = [{d: [0, 0, 0, 0] for d in config.detectors} for _ in variances]
    for block_idx in range(blocks):
        lo, hi = n * block_idx // blocks, n * (block_idx + 1) // blocks
        rng = keyed_generator(config.seed, block_idx)
        h = _draw_gains(rng, hi - lo, config.layers, config.n_rx)
        for point_idx, sigma_n2 in enumerate(variances):
            alpha = sigma_n2 / config.sigma_s2
            bits, _, x = _draw_uses(rng, h, sigma_n2)
            block = PreparedBlock(h, x, alpha)
            for name in config.detectors:
                try:
                    out = DETECTORS[name](None, None, alpha, prepared=block)
                except GstbcError as err:
                    where = f"{config.snr_db[point_idx]:g} dB, block {block_idx}, instances {lo}-{hi - 1}"
                    raise type(err)(f"{name} at {where}: {err}") from err
                errs, ferrs = _bit_errors(out.decisions, bits)
                t = tally[point_idx][name]
                t[0] += bits.size
                t[1] += errs
                t[2] += hi - lo
                t[3] += ferrs
            # the point's front ends must not stay alive through the next draw
            del block, out
            if progress is not None:
                progress(point_idx, block_idx, blocks)
    return [
        BerRecord(name, float(snr_db), nbits, errs, errs / nbits, frames, ferrs)
        for snr_db, counts in zip(config.snr_db, tally)
        for name, (nbits, errs, frames, ferrs) in counts.items()
    ]


_CSV_COLUMNS = "detector,snr_db,bits,bit_errors,ber,frames,frame_errors"


def format_csv(records, config: SimConfig) -> str:
    lines = [
        f"# ber sweep: layers={config.layers} n_rx={config.n_rx} trials={config.trials}",
        "# snr_db is Eb/N0: sigma_n2 = sigma_s2 / (2 * 10^(snr_db/10)), "
        f"two bits per symbol; seed={config.seed}",
        _CSV_COLUMNS,
    ]
    for r in records:
        lines.append(
            f"{r.detector},{r.snr_db:.10g},{r.bits},{r.bit_errors},"
            f"{r.ber:.10g},{r.frames},{r.frame_errors}"
        )
    return "\n".join(lines) + "\n"


def emit_csv(records, path, config: SimConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_csv(records, config))


def parse_csv(path) -> list:
    """Records of a CSV written by `emit_csv`; a malformed row raises
    `ParseError` with its 1-based line number."""
    records = []
    n_fields = len(_CSV_COLUMNS.split(","))
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#") or line == _CSV_COLUMNS:
                continue
            parts = line.split(",")
            if len(parts) != n_fields:
                raise ParseError(f"expected {n_fields} fields, got {len(parts)}", line=lineno)
            try:
                records.append(
                    BerRecord(
                        detector=parts[0],
                        snr_db=float(parts[1]),
                        bits=int(parts[2]),
                        bit_errors=int(parts[3]),
                        ber=float(parts[4]),
                        frames=int(parts[5]),
                        frame_errors=int(parts[6]),
                    )
                )
            except ValueError as err:
                raise ParseError(f"bad number: {err}", line=lineno) from None
    return records


def snr_at_ber(records, detector: str, target: float):
    """SNR where the detector's curve crosses the target BER.

    Interpolates snr against log10(ber) between the bracketing points.
    Zero-error points cannot be placed on the log scale and act as
    "below target".  Returns None when the curve never crosses.  The
    target must lie in (0, 1).
    """
    if not 0 < target < 1:
        raise ConfigInvalid(f"target BER must be in (0, 1), got {target}")
    pts = sorted(
        ((r.snr_db, r.ber) for r in records if r.detector == detector),
        key=lambda p: p[0],
    )
    if not pts or pts[0][1] <= target:
        return None  # empty, or already below target at the lowest point
    logt = math.log10(target)
    prev = None
    for snr, ber in pts:
        if prev is not None:
            psnr, pber = prev
            if pber > target and ber <= target:
                if ber <= 0.0:
                    return float(snr)
                l1, l2 = math.log10(pber), math.log10(ber)
                frac = (logt - l1) / (l2 - l1)
                return float(psnr + frac * (snr - psnr))
        prev = (snr, ber)
    return None


def gap_db(records, detector_a: str, detector_b: str, target: float):
    """SNR penalty of detector_a relative to detector_b at the target BER."""
    a = snr_at_ber(records, detector_a, target)
    b = snr_at_ber(records, detector_b, target)
    if a is None or b is None:
        return None
    return a - b
