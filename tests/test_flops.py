import inspect
import threading

import numpy as np
import pytest

from gstbc.flops import FlopCounter, cdotu, charge, cost, flop_scope

# Real (mults, adds) per primitive operation under the documented
# convention, written out independently of the implementation so a change
# there fails here.  A subtraction costs as the addition of its kind.
EXPECTED_CHARGES = {
    "cmul": (4, 2),
    "cadd": (0, 2),
    "rcmul": (2, 0),
    "rmul": (1, 0),
    "radd": (0, 1),
    "rdiv": (1, 0),
    "cabs2": (2, 1),
}


def test_primitive_charges():
    # `cost` knows exactly these kinds, prices each as above, and a
    # charge of several adds them up
    assert set(inspect.signature(cost).parameters) == set(EXPECTED_CHARGES)
    for kind, (mults, adds) in EXPECTED_CHARGES.items():
        assert cost(**{kind: 1}) == (mults, adds), kind
        c = FlopCounter()
        with flop_scope(c):
            charge(*cost(**{kind: 3}))
        assert (c.real_mults, c.real_adds) == (3 * mults, 3 * adds), kind
    assert cost() == (0, 0)
    assert cost(cmul=2, cadd=1, rdiv=1, cabs2=1) == (11, 7)


def test_counts_outside_scope_are_dropped():
    # charges and row helpers still compute without an active scope, and
    # charge no counter, not even the last one installed
    c = FlopCounter()
    with flop_scope(c):
        pass
    charge(*cost(cmul=5, cadd=4))
    assert cdotu([1j, 2.0 + 0j], [1j, 1j]) == -1 + 2j
    assert c == FlopCounter()


def _plain_dot(xs, ys):
    # the loop `cdotu` stands for: n products, summed left to right
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + x * y
    return acc


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("n", range(1, 10))
def test_row_helpers_equal_composed_primitives(n):
    # bitwise the plain loop, charged n complex mults and n - 1 complex
    # adds, on Python numbers and on (B,) array entries; signed zeros
    # included
    rng = np.random.default_rng([7, n])
    arr = rng.standard_normal((2, n, 5)) + 1j * rng.standard_normal((2, n, 5))
    arr[:, 0, 0] = -0.0
    numbers = ([complex(v) for v in arr[0, :, 0]], [complex(v) for v in arr[1, :, 0]])
    for xs, ys in (numbers, (list(arr[0]), list(arr[1]))):
        c = FlopCounter()
        with flop_scope(c):
            got = cdotu(xs, ys)
        assert _same_bits(got, _plain_dot(xs, ys)), n
        assert c == FlopCounter(real_mults=4 * n, real_adds=2 * n + 2 * (n - 1)), n


def test_scope_nesting_accumulates_into_parent():
    outer = FlopCounter()
    inner = FlopCounter()
    with flop_scope(outer):
        charge(*cost(cmul=1))
        with flop_scope(inner):
            charge(*cost(radd=1))
        charge(*cost(rmul=1))
    assert (inner.real_mults, inner.real_adds) == (0, 1)
    # outer sees its own work plus the inner scope's
    assert (outer.real_mults, outer.real_adds) == (5, 3)


def test_reentrant_scope_not_double_counted():
    c = FlopCounter()
    with flop_scope(c):
        charge(*cost(cmul=1))
        with flop_scope(c):
            charge(*cost(cmul=1))
    assert (c.real_mults, c.real_adds) == (8, 4)


def test_counter_equality_total():
    a = FlopCounter(real_mults=3, real_adds=5)
    assert a == FlopCounter(real_mults=3, real_adds=5)
    assert a.total == 8
    assert a != FlopCounter(real_mults=3, real_adds=4)


def test_scopes_are_thread_local():
    main = FlopCounter()
    other = FlopCounter()
    stop = threading.Event()

    def worker():
        with flop_scope(other):
            stop.wait(timeout=5)

    t = threading.Thread(target=worker)
    with flop_scope(main):
        t.start()
        charge(*cost(cmul=1))
        stop.set()
        t.join()
    assert (main.real_mults, main.real_adds) == (4, 2)
    assert (other.real_mults, other.real_adds) == (0, 0)


def test_flop_counter_repr_roundtrip():
    c = FlopCounter(real_mults=7, real_adds=9)
    assert "7" in repr(c) and "9" in repr(c)


def test_counter_repr_equality_and_hash():
    # the repr the README quickstart prints; equal counts compare equal,
    # nothing else does, and a mutable counter has no hash
    c = FlopCounter(real_mults=1, real_adds=2)
    assert repr(c) == "FlopCounter(real_mults=1, real_adds=2)"
    assert c == FlopCounter(1, 2) and c != FlopCounter(1, 3)
    assert c != (1, 2)
    with pytest.raises(TypeError):
        hash(c)
    assert not hasattr(c, "__dict__")
