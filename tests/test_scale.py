"""Scale invariance of every detector, on both routes.

Gains and samples times c, and alpha times c^2, change no soft value in
exact arithmetic: the Gram and the matched filter scale by c^2, the
inverse by 1 / c^2.  For c a power of two every rounding scales with
them, as long as no intermediate leaves the normal range, so the outputs
should not move at all.  The recursion keeps that range when no entry of
the inverse is ever squared: its rank-one updates multiply an entry of
the inverse only by one of order one.  Blocks come from the front-end
tests' strategy (i.i.d. and correlated channels, alpha down to 1e-9).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gstbc.channel import ChannelMatrix
from gstbc.detectors import SCALAR_DETECTORS
from gstbc.errors import GstbcError
from gstbc.sim import DETECTORS as BATCH_DETECTORS
from test_front_ends import blocks

# largest relative change of a soft value, against the instance's
# largest soft magnitude
SOFT_TOL = 1e-12


def _outcome(fn, h, x, alpha):
    """(decisions, soft) of one call, or the class of what it raised."""
    try:
        r = fn(h, x, alpha)
    except GstbcError as exc:
        return type(exc)
    return r.decisions, r.soft


def _assert_same(got, want, what):
    if not isinstance(want, tuple):
        assert got is want, what
        return
    assert isinstance(got, tuple), (what, got)
    assert np.array_equal(got[0], want[0]), what
    scale = np.max(np.abs(want[1]), axis=-1, keepdims=True)
    assert np.all(np.abs(got[1] - want[1]) <= SOFT_TOL * scale), what


@settings(max_examples=40, deadline=None)
@given(blocks(), st.integers(-400, 400))
def test_power_of_two_scaling_changes_no_output(block, k):
    # the block route on the whole block, the counted scalar route on its
    # first instance
    h, x, alpha = block
    c = 2.0**k
    for name in sorted(BATCH_DETECTORS):
        fn = BATCH_DETECTORS[name]
        _assert_same(_outcome(fn, c * h, c * x, c * c * alpha), _outcome(fn, h, x, alpha), (name, k))
        fn = SCALAR_DETECTORS[name]
        scaled = _outcome(fn, ChannelMatrix(c * h[0]), c * x[0], c * c * alpha)
        _assert_same(scaled, _outcome(fn, ChannelMatrix(h[0]), x[0], alpha), (name, "scalar", k))
