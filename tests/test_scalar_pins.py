"""The counted scalar route, pinned bit for bit.

`scalar_pins.json` holds, for one seeded instance per detector and shape,
every soft value as `float.hex`, the decisions as QPSK bits, the detection
order and the flop tally.  A change to how the arithmetic is written
(grouping, charging, helpers) must leave all of them unchanged; the other
tests check the outputs only within a tolerance.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from gstbc.channel import ChannelMatrix, equivalent_channel_batch
from gstbc.detectors import SCALAR_DETECTORS
from gstbc.modulation import qpsk_modulate

SHAPES = ((2, 2), (4, 4), (8, 8))
PINS = Path(__file__).parent / "scalar_pins.json"


def pinned_instance(m, n):
    """One instance at (M, N) = (m, n), drawn from a seed fixed per shape."""
    rng = np.random.default_rng([11, m, n])
    h = (rng.standard_normal((n, 2 * m)) + 1j * rng.standard_normal((n, 2 * m))) / np.sqrt(2)
    s = qpsk_modulate(rng.integers(0, 2, size=4 * m))
    noise = np.sqrt(0.05) * (rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n))
    x = equivalent_channel_batch(h[None])[0] @ s + noise
    return ChannelMatrix(h), x, 0.1


@pytest.mark.parametrize("m, n", SHAPES)
@pytest.mark.parametrize("name", sorted(SCALAR_DETECTORS))
def test_scalar_route_is_pinned_bitwise(name, m, n):
    pin = json.loads(PINS.read_text())[f"{name}@{m}x{n}"]
    r = SCALAR_DETECTORS[name](*pinned_instance(m, n))
    assert [[float(v.real).hex(), float(v.imag).hex()] for v in r.soft] == pin["soft"]
    bits = np.array([int(b) for b in pin["bits"]])
    assert np.array_equal(r.decisions, qpsk_modulate(bits))
    assert list(r.order) == pin["order"]
    assert [r.flops.real_mults, r.flops.real_adds] == pin["flops"]
