"""Gray-mapped QPSK at unit symbol energy.

Mapping and demapping work over the last axis, so one call serves a
single bit vector or a whole block of them.  The block slicer and the
demap read the signs off the symbols' floats in one contiguous pass: the
slicer looks each symbol's point up in a table, and the demap's flags are
the bits, as int8.
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


# the four points, each at the word that its flags (re >= 0, im >= 0), one
# byte each, make when read as one uint16, as `qpsk_slice_array` reads
# them; the table is indexed by that same view, so it holds in either byte
# order
_WORDS = np.array([[False, False], [True, False], [False, True], [True, True]]).view(np.uint16).ravel()
_POINTS = np.zeros(_WORDS.max() + 1, dtype=np.complex128)
_POINTS[_WORDS] = [complex(re, im) for im in (-_SCALE, _SCALE) for re in (-_SCALE, _SCALE)]


def qpsk_slice_array(y) -> np.ndarray:
    """Vectorized `qpsk_slice`, by the same rule (>= 0 maps to +, so -0.0
    maps to + and NaN to -): one contiguous pass over the values' floats
    gives each value's two sign flags, and one table lookup at the word
    they make gives its point."""
    y = np.asarray(y, dtype=np.complex128, order="C")
    return _POINTS.take((y[..., None].view(np.float64) >= 0).view(np.uint16)[..., 0])


def qpsk_demap(symbols) -> np.ndarray:
    """Recover the bits from (hard or soft) symbol values by sign, over the
    last axis: (..., K) to (..., 2K), int8 values 0/1, the dtype of the
    sweep's drawn bits.  Bit 2k is Re(s_k) < 0 and bit 2k + 1 is
    Im(s_k) < 0, the order in which the values' floats lie."""
    floats = np.asarray(symbols, dtype=np.complex128, order="C").view(np.float64)
    return (floats < 0).view(np.int8)
