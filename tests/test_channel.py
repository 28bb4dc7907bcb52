import numpy as np
import pytest

import gstbc
from gstbc.channel import (
    ChannelMatrix,
    NoiseSpec,
    equivalent_channel_batch,
    generate_channel,
    keyed_generator,
    receive,
    transmit,
)
from gstbc.errors import InvalidDimensions
from gstbc.modulation import qpsk_modulate


def test_generate_shapes_and_validation():
    h = generate_channel(4, 3, seed=0)
    assert np.asarray(h.gains).shape == (4, 6)
    assert h.n_rx == 4 and h.layers == 3
    with pytest.raises(InvalidDimensions):
        generate_channel(2, 3, seed=0)
    with pytest.raises(InvalidDimensions):
        generate_channel(1, 0, seed=0)


def test_generate_deterministic_and_unit_variance():
    a = np.asarray(generate_channel(3, 2, seed=5).gains)
    b = np.asarray(generate_channel(3, 2, seed=5).gains)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, np.asarray(generate_channel(3, 2, seed=6).gains))
    big = np.asarray(generate_channel(8, 8, seed=1).gains)
    # CN(0,1): second moment 1, split evenly across axes
    assert np.mean(np.abs(big) ** 2) == pytest.approx(1.0, rel=0.1)
    assert np.mean(big.real**2) == pytest.approx(0.5, rel=0.15)


def test_keyed_generator_streams_are_independent_of_call_order():
    a1 = keyed_generator(9, 0, 1).standard_normal(4)
    b1 = keyed_generator(9, 2, 0).standard_normal(4)
    b2 = keyed_generator(9, 2, 0).standard_normal(4)
    a2 = keyed_generator(9, 0, 1).standard_normal(4)
    assert np.array_equal(a1, a2)
    assert np.array_equal(b1, b2)
    assert not np.array_equal(a1, b1)


def equivalent_oracle(g: np.ndarray) -> np.ndarray:
    # row-by-row construction straight from the two-slot receive equations
    n, two_m = g.shape
    out = np.zeros((2 * n, two_m), dtype=np.complex128)
    for r in range(n):
        for i in range(two_m // 2):
            a, b = g[r, 2 * i], g[r, 2 * i + 1]
            out[2 * r, 2 * i] = a
            out[2 * r, 2 * i + 1] = b
            out[2 * r + 1, 2 * i] = np.conj(b)
            out[2 * r + 1, 2 * i + 1] = -np.conj(a)
    return out


def test_equivalent_channel_matches_oracle():
    for seed in range(5):
        h = generate_channel(3, 2, seed=seed)
        hp = equivalent_channel_batch(np.asarray(h.gains))
        assert np.array_equal(hp, equivalent_oracle(np.asarray(h.gains)))


def test_equivalent_column_pairs_orthogonal_equal_norm():
    # the structure everything downstream depends on: within a layer the
    # two equivalent columns are orthogonal and share their norm
    for seed in range(10):
        hp = equivalent_channel_batch(np.asarray(generate_channel(5, 3, seed=seed).gains))
        for i in range(3):
            c1, c2 = hp[:, 2 * i], hp[:, 2 * i + 1]
            assert abs(np.vdot(c1, c2)) < 1e-12
            assert np.linalg.norm(c1) == pytest.approx(np.linalg.norm(c2))


def test_transmit_noiseless_equals_equivalent_model():
    # the explicit two-slot simulation and the stacked linear model must
    # agree exactly: x' = H' s
    for seed in range(8):
        h = generate_channel(4, 3, seed=seed)
        bits = keyed_generator(seed, 77).integers(0, 2, size=12)
        s = qpsk_modulate(bits)
        x = np.asarray(transmit(h, s, NoiseSpec(sigma_n2=0.0)).entries)
        hp = equivalent_channel_batch(np.asarray(h.gains))
        assert np.allclose(x, hp @ np.asarray(s), atol=1e-14)


def test_transmit_noise_statistics():
    h = ChannelMatrix(np.zeros((64, 4), dtype=np.complex128))
    s = qpsk_modulate([0, 0, 0, 0, 1, 1, 0, 1])
    x = np.asarray(transmit(h, s, NoiseSpec(sigma_n2=4.0, seed=2)).entries)
    # zero channel leaves pure noise; conjugation in stacking keeps CN
    assert np.mean(np.abs(x) ** 2) == pytest.approx(4.0, rel=0.25)


def test_transmit_deterministic_in_noise_seed():
    h = generate_channel(2, 2, seed=0)
    s = qpsk_modulate([0, 1, 1, 0, 0, 0, 1, 1])
    x1 = np.asarray(transmit(h, s, NoiseSpec(sigma_n2=0.5, seed=4)).entries)
    x2 = np.asarray(transmit(h, s, NoiseSpec(sigma_n2=0.5, seed=4)).entries)
    x3 = np.asarray(transmit(h, s, NoiseSpec(sigma_n2=0.5, seed=5)).entries)
    assert np.array_equal(x1, x2)
    assert not np.array_equal(x1, x3)


def test_transmit_validates_symbol_length():
    h = generate_channel(2, 2, seed=0)
    with pytest.raises(InvalidDimensions):
        transmit(h, qpsk_modulate([0, 1]), NoiseSpec(sigma_n2=0.0))


def test_transmit_rejects_a_bad_noise_variance():
    # NaN compares false both ways, so it must not pass as noiseless
    h = generate_channel(2, 2, seed=0)
    s = qpsk_modulate([0, 1, 1, 0, 0, 0, 1, 1])
    for sigma_n2 in (-1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidDimensions, match="finite and >= 0"):
            transmit(h, s, NoiseSpec(sigma_n2=sigma_n2))


def test_transmit_rejects_bad_gains():
    s = qpsk_modulate([0, 1, 1, 0, 0, 0, 1, 1])
    g = np.asarray(generate_channel(2, 2, seed=0).gains)
    bad_nan, bad_inf = g.copy(), g.copy()
    bad_nan[1, 2] = np.nan
    bad_inf[0, 0] = np.inf
    for gains, symbols, what in (
        (np.zeros(4), s[:4], "N x 2M"),  # not N x 2M
        (np.zeros((2, 3)), s[:3], "N x 2M"),  # odd column count
        (np.zeros((0, 4)), s[:4], "N x 2M"),  # N = 0
        (np.zeros((2, 0)), s[:0], "N x 2M"),  # M = 0
        (bad_nan, s, "finite"),
        (bad_inf, s, "finite"),
    ):
        with pytest.raises(InvalidDimensions, match=what):
            transmit(ChannelMatrix(gains), symbols, NoiseSpec(sigma_n2=0.0))


def test_package_exports_resolve():
    assert [name for name in gstbc.__all__ if not hasattr(gstbc, name)] == []


def test_transmit_is_one_row_of_the_block_channel_use():
    # one channel use serves both routes: transmit's samples are bytewise
    # the matching row of `receive` over a block carrying the same noise
    rng = keyed_generator(3, 1)
    count, n_rx, two_m = 6, 3, 4
    h = rng.standard_normal((count, n_rx, two_m)) + 1j * rng.standard_normal((count, n_rx, two_m))
    s = qpsk_modulate(rng.integers(0, 2, size=(count, 2 * two_m)))
    sigma_n2 = [0.0, 0.3] * (count // 2)
    noise = np.zeros((count, n_rx, 2), dtype=np.complex128)
    for k in range(count):
        if sigma_n2[k]:
            w = keyed_generator(10 + k)
            noise[k] = np.sqrt(sigma_n2[k] / 2.0) * (w.standard_normal((n_rx, 2)) + 1j * w.standard_normal((n_rx, 2)))
    x = receive(h, s, noise)
    assert x.shape == (count, 2 * n_rx)
    for k in range(count):
        one = transmit(ChannelMatrix(h[k]), s[k], NoiseSpec(sigma_n2=sigma_n2[k], seed=10 + k))
        assert np.asarray(one.entries).tobytes() == x[k].tobytes(), k
