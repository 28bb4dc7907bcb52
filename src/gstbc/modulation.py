"""Gray-mapped QPSK at unit symbol energy.

Mapping and demapping work over the last axis, so one call serves a
single bit vector or a whole block of them.
"""

from __future__ import annotations

import numpy as np

from .errors import OddBitCount

_SCALE = 1.0 / np.sqrt(2.0)


def qpsk_modulate(bits) -> np.ndarray:
    """Map bits (values 0/1, even length along the last axis) to QPSK
    symbols, (..., 2K) to (..., K).

    The pair (b0, b1) maps to ((1 - 2 b0) + 1j (1 - 2 b1)) / sqrt(2), i.e.
    b0 selects the sign of the real part and b1 of the imaginary part.
    Adjacent constellation points differ in exactly one bit and the symbol
    energy is 1.
    """
    bits = np.asarray(bits)
    if bits.ndim == 0 or bits.shape[-1] % 2 != 0:
        raise OddBitCount(f"need an even number of bits along the last axis, got shape {bits.shape}")
    if not np.all((bits == 0) | (bits == 1)):
        raise OddBitCount("bit values must be 0 or 1")
    re = 1.0 - 2.0 * bits[..., 0::2]
    im = 1.0 - 2.0 * bits[..., 1::2]
    return _SCALE * (re + 1j * im)


def qpsk_slice(y: complex) -> complex:
    """Quantize one soft value to the nearest QPSK point; zero maps to +."""
    re = _SCALE if y.real >= 0 else -_SCALE
    im = _SCALE if y.imag >= 0 else -_SCALE
    return complex(re, im)


def qpsk_slice_array(y) -> np.ndarray:
    """Vectorized `qpsk_slice`."""
    y = np.asarray(y)
    out = np.empty(y.shape, dtype=np.complex128)
    out.real = np.where(y.real >= 0, _SCALE, -_SCALE)
    out.imag = np.where(y.imag >= 0, _SCALE, -_SCALE)
    return out


def qpsk_demap(symbols) -> np.ndarray:
    """Recover the bits from (hard or soft) symbol values by sign, over the
    last axis: (..., K) to (..., 2K)."""
    symbols = np.asarray(symbols)
    bits = np.empty(symbols.shape[:-1] + (2 * symbols.shape[-1],), dtype=np.int64)
    bits[..., 0::2] = symbols.real < 0
    bits[..., 1::2] = symbols.imag < 0
    return bits
