"""Monte Carlo bit-error-rate harness.

Channel model: independent Rayleigh fading, flat over the two slots of
each space-time block, redrawn per block.  SNR is Eb/N0 in dB with unit
symbol energy (sigma_s2 = 1) and two bits per symbol, so

    sigma_n2 = sigma_s2 / (2 * 10**(snr_db / 10))

and the regularizer passed to the detectors is alpha = sigma_n2 /
sigma_s2.  Each point is split into fixed-size blocks; within a block
every detector sees the same channels, symbols and noise (common random
numbers), and the stream for (point, block) is keyed independently so
results do not depend on evaluation order.  A block's bits are mapped by
`modulation.qpsk_modulate` and sent through `channel.receive`, the channel
use that `channel.transmit` runs on one instance; errors are counted
against `qpsk_demap` of the decisions.

A block is drawn into separate arrays of at most SLICE_SIZE instances
each, and detected a slice at a time.  Each slice is wrapped once in a
`batch.PreparedBlock`, so the detectors share its checks and front ends
(the recursion's compressed entries and starting state, the Gram's
block factor and its inverse) instead of each rebuilding them.  Every
slice's block, which holds its compressed entries and no gains or
samples, is built before any detector runs, and a slice's other front
ends are dropped before the next slice.  Every detector treats each
instance on its own, so the records do not depend on the slicing, and a
sweep's memory is bounded by the larger of one draw and one block's
compressed entries plus one slice's front ends.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .batch import DETECTORS, PreparedBlock
from .channel import keyed_generator, receive
from .errors import ConfigInvalid, GstbcError, ParseError
from .modulation import qpsk_demap, qpsk_modulate

BLOCK_SIZE = 25_000
# instances that a sweep's detectors take at once.  Of 2,048, 4,096 and
# 8,192 (one BLAS thread), this swept 3-14% faster than either other size
# at (8, 8) and (16, 16) with proposed, fixed_order and linear_mmse, and as
# fast as 8,192 at (2, 8) with all five detectors
SLICE_SIZE = 4_096
# normals per fill of the draw's float buffer: 128 KiB, which stays in cache
_DRAW_CHUNK = 16_384

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


def _draw_block(rng, count, layers, n_rx, sigma_n2, slice_size=None):
    """One block of `count` channels, bit streams, symbols and stacked
    received vectors: four arrays, or with `slice_size` four lists of
    arrays of at most that many instances each.

    The gains are `(n1 + 1j*n2) * _SCALE` and the slot noise
    `(n3 + 1j*n4) * sqrt(sigma_n2 / 2)`, with n1, n2, bits, n3, n4 drawn
    in that order over the whole block, each a slice after another, so
    the slicing changes no value.  Each part is filled in place from one
    reused float buffer, which takes the stream exactly as one
    `standard_normal` call per part would and gives the same bits without
    complex temporaries.  The bits are one `integers` call per slice: two
    per instance and symbol, an even count, which takes the stream as one
    call over the block does.  Each slice's noise becomes its samples in
    place (`receive`).
    """
    step = slice_size or count
    sizes = [min(step, count - lo) for lo in range(0, count, step)]
    two_m = 2 * layers
    buf = np.empty(_DRAW_CHUNK)
    h = [np.empty((c, n_rx, two_m), dtype=np.complex128) for c in sizes]
    _fill_normals(rng, h, _SCALE, buf)
    bits = [rng.integers(0, 2, size=(c, 2 * two_m)).astype(np.int8) for c in sizes]
    s = [qpsk_modulate(b) for b in bits]
    noise = [np.empty((c, n_rx, 2), dtype=np.complex128) for c in sizes]
    _fill_normals(rng, noise, math.sqrt(sigma_n2 / 2.0), buf)
    x = list(map(receive, h, s, noise))
    if slice_size is None:
        return h[0], bits[0], s[0], x[0]
    return h, bits, s, x


def _fill_normals(rng, arrays, scale, buf):
    """Set the real parts of the complex arrays, one array after another,
    then their imaginary parts, to `scale` times standard normals in C
    order, drawn through `buf`."""
    flats = [a.reshape(-1) for a in arrays]
    for parts in ([f.real for f in flats], [f.imag for f in flats]):
        for part in parts:
            for lo in range(0, part.size, buf.size):
                chunk = buf[: part.size - lo]
                rng.standard_normal(out=chunk)
                np.multiply(chunk, scale, out=part[lo : lo + chunk.size])


def _bit_errors(decisions, bits):
    wrong = qpsk_demap(decisions) != bits
    return int(wrong.sum()), int(np.any(wrong, axis=1).sum())


def _tally_block(names, tally, h, bits, x, alpha, where):
    """Add each named detector's bit and frame errors on one drawn block,
    given as lists of slices of at most SLICE_SIZE instances, to `tally`.

    Every slice's block is built first, and `h` and `x` are emptied as
    that goes, so no gains are held through detection; each slice is then
    detected from its block alone (`prepared=` with h = x = None) and its
    front ends are dropped before the next slice.  A `GstbcError` of a
    detector is raised again, as the same type, with the detector, `where`
    (the point and block) and the slice's instances.
    """
    blocks = [PreparedBlock(h.pop(0), x.pop(0), alpha) for _ in range(len(h))]
    lo = 0
    for bs in bits:
        block = blocks.pop(0)
        hi = lo + len(bs)
        for name in names:
            try:
                out = DETECTORS[name](None, None, alpha, prepared=block)
            except GstbcError as err:
                raise type(err)(f"{name} at {where}, instances {lo}-{hi - 1}: {err}") from err
            errs, ferrs = _bit_errors(out.decisions, bs)
            t = tally[name]
            t[0] += bs.size
            t[1] += errs
            t[2] += bs.shape[0]
            t[3] += ferrs
        # the slice's front ends must not stay alive through the next slice
        del block, out
        lo = hi


def run_ber_sweep(config: SimConfig, progress=None) -> list:
    """Sweep SNR points, returning one record per (detector, point).

    Exactly `config.trials` channel uses are simulated per point, in
    blocks of at most BLOCK_SIZE; block (point_idx, block_idx) owns an
    independently keyed stream, so the output is a pure function of the
    config regardless of evaluation order.  A detector failure raises its
    `GstbcError` naming the detector, point, block and instances.
    """
    records = []
    blocks = math.ceil(config.trials / BLOCK_SIZE)
    for point_idx, snr_db in enumerate(config.snr_db):
        sigma_n2 = sigma_n2_for_snr(snr_db, config.sigma_s2)
        alpha = sigma_n2 / config.sigma_s2
        tally = {d: [0, 0, 0, 0] for d in config.detectors}  # bits, errs, frames, ferrs
        for block_idx in range(blocks):
            count = min(BLOCK_SIZE, config.trials - block_idx * BLOCK_SIZE)
            rng = keyed_generator(config.seed, point_idx, block_idx)
            h, bits, s, x = _draw_block(
                rng, count, config.layers, config.n_rx, sigma_n2, SLICE_SIZE
            )
            del s
            _tally_block(config.detectors, tally, h, bits, x, alpha, f"{snr_db:g} dB, block {block_idx}")
            # the drawn block must not stay alive through the next draw
            del h, bits, x
            if progress is not None:
                progress(point_idx, block_idx, blocks)
        for name in config.detectors:
            nbits, errs, frames, ferrs = tally[name]
            records.append(
                BerRecord(
                    detector=name,
                    snr_db=float(snr_db),
                    bits=nbits,
                    bit_errors=errs,
                    ber=errs / nbits,
                    frames=frames,
                    frame_errors=ferrs,
                )
            )
    return records


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
