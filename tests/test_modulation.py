import math

import numpy as np
import pytest

from gstbc.errors import OddBitCount
from gstbc.modulation import qpsk_demap, qpsk_modulate, qpsk_slice, qpsk_slice_array

S = 1.0 / math.sqrt(2.0)

# frozen Gray-less mapping: each bit flips the sign of one axis
FROZEN = {
    (0, 0): complex(S, S),
    (0, 1): complex(S, -S),
    (1, 0): complex(-S, S),
    (1, 1): complex(-S, -S),
}


def test_modulate_frozen_points():
    for (b0, b1), sym in FROZEN.items():
        got = qpsk_modulate([b0, b1])
        assert got[0] == pytest.approx(sym)


def test_unit_symbol_energy():
    bits = np.random.default_rng(3).integers(0, 2, size=400)
    syms = np.asarray(qpsk_modulate(bits))
    assert np.allclose(np.abs(syms) ** 2, 1.0)


def test_odd_bit_count_rejected():
    with pytest.raises(OddBitCount):
        qpsk_modulate([0, 1, 0])
    with pytest.raises(OddBitCount):
        qpsk_modulate(np.zeros((4, 5), dtype=np.int8))


def test_block_calls_equal_row_calls():
    # mapping and demapping work over the last axis: a (B, .) block gives
    # bytewise the rows of the 1-D calls
    rng = np.random.default_rng(29)
    bits = rng.integers(0, 2, size=(6, 10)).astype(np.int8)
    soft = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    mapped = qpsk_modulate(bits)
    demapped = qpsk_demap(soft)
    assert mapped.shape == (6, 5) and demapped.shape == (6, 10)
    for k in range(6):
        assert mapped[k].tobytes() == qpsk_modulate(bits[k]).tobytes()
        assert demapped[k].tobytes() == qpsk_demap(soft[k]).tobytes()


def test_demap_roundtrip():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, size=600)
    back = qpsk_demap(qpsk_modulate(bits))
    assert np.array_equal(np.asarray(back), bits)


def test_slice_maps_to_nearest_point():
    rng = np.random.default_rng(11)
    for _ in range(200):
        y = complex(*rng.standard_normal(2))
        s = qpsk_slice(y)
        assert s in FROZEN.values()
        # nearest constellation point by quadrant
        want = complex(S if y.real >= 0 else -S, S if y.imag >= 0 else -S)
        assert s == want


def test_slice_boundary_goes_positive():
    assert qpsk_slice(0j) == complex(S, S)
    assert qpsk_slice(complex(0.0, -0.1)) == complex(S, -S)


def test_slice_array_matches_scalar():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    # signed zeros slice to the + side on either axis
    y[:4] = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    arr = qpsk_slice_array(y)
    assert arr.dtype == np.complex128
    for k in range(64):
        assert arr[k:k + 1].tobytes() == np.complex128(qpsk_slice(complex(y[k]))).tobytes()


EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -1.5]


@pytest.mark.parametrize("shape", [(64,), (16, 8)])
def test_slice_array_matches_scalar_on_edge_values(shape):
    # the table slicer keeps the scalar rule: >= 0 maps to +, so -0.0
    # maps to + and NaN to -, on either axis, over any shape and layout
    rng = np.random.default_rng(68)
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    y.reshape(-1)[: len(EDGES) ** 2] = [complex(re, im) for re in EDGES for im in EDGES]
    for v in (y, y[..., ::2]):
        got = qpsk_slice_array(v)
        want = np.array([qpsk_slice(complex(c)) for c in v.reshape(-1)]).reshape(v.shape)
        assert got.dtype == np.complex128 and got.shape == v.shape
        assert got.tobytes() == want.tobytes()


def test_demap_is_the_sign_rule_in_int8():
    # bit 2k is Re(s_k) < 0 and bit 2k + 1 is Im(s_k) < 0, in the int8 of
    # the drawn bits; a strided input answers as its copy
    y = np.array([[complex(re, im) for im in EDGES] for re in EDGES])
    bits = qpsk_demap(y)
    assert bits.dtype == np.int8 and bits.shape == (7, 14)
    assert np.array_equal(bits[:, 0::2], y.real < 0) and np.array_equal(bits[:, 1::2], y.imag < 0)
    assert qpsk_demap(y[:, ::2]).tobytes() == qpsk_demap(y[:, ::2].copy()).tobytes()
    drawn = np.random.default_rng(69).integers(0, 2, size=(5, 12)).astype(np.int8)
    assert qpsk_demap(qpsk_modulate(drawn)).tobytes() == drawn.tobytes()
