import threading

import numpy as np
import pytest

from gstbc.flops import (
    FlopCounter,
    cabs2,
    cadd,
    cdotc,
    cdotu,
    charge,
    cmul,
    cost,
    csub,
    flop_scope,
    radd,
    rcmul,
    rdiv,
    rmul,
    rsub,
)

# Charges per primitive under the documented convention, written out
# independently of the implementation so a change there fails here.
EXPECTED_CHARGES = {
    cmul: (4, 2),
    cadd: (0, 2),
    csub: (0, 2),
    rcmul: (2, 0),
    rmul: (1, 0),
    radd: (0, 1),
    rsub: (0, 1),
    rdiv: (1, 0),
    cabs2: (2, 1),
}


def test_primitive_charges():
    args = {
        cmul: (1 + 2j, 3 - 1j),
        cadd: (1 + 2j, 3 - 1j),
        csub: (1 + 2j, 3 - 1j),
        rcmul: (2.0, 3 - 1j),
        rmul: (2.0, 3.0),
        radd: (2.0, 3.0),
        rsub: (2.0, 3.0),
        rdiv: (1.0, 4.0),
        cabs2: (3 - 4j,),
    }
    for fn, (mults, adds) in EXPECTED_CHARGES.items():
        c = FlopCounter()
        with flop_scope(c):
            fn(*args[fn])
        assert (c.real_mults, c.real_adds) == (mults, adds), fn.__name__
        # a loop's charge names its primitives; a subtraction costs as
        # the addition of its kind
        kind = {"csub": "cadd", "rsub": "radd"}.get(fn.__name__, fn.__name__)
        assert cost(**{kind: 1}) == (mults, adds), fn.__name__
        c = FlopCounter()
        with flop_scope(c):
            charge(*cost(**{kind: 3}))
        assert (c.real_mults, c.real_adds) == (3 * mults, 3 * adds), fn.__name__


def test_primitive_values():
    c = FlopCounter()
    with flop_scope(c):
        assert cmul(1 + 2j, 3 - 1j) == (1 + 2j) * (3 - 1j)
        assert cadd(1 + 2j, 3 - 1j) == 4 + 1j
        assert csub(1 + 2j, 3 - 1j) == -2 + 3j
        assert rcmul(2.0, 3 - 1j) == 6 - 2j
        assert rdiv(1.0, 4.0) == 0.25
        assert cabs2(3 - 4j) == 25.0


def test_counts_outside_scope_are_dropped():
    # primitives, charges and row helpers still compute without an active
    # scope, and charge no counter, not even the last one installed
    c = FlopCounter()
    with flop_scope(c):
        pass
    assert cmul(1j, 1j) == -1
    charge(*cost(cmul=5, cadd=4))
    assert cdotc([1j, 2.0 + 0j], [1j, 1j]) == 1 + 2j
    assert cdotu([1j, 2.0 + 0j], [1j, 1j]) == -1 + 2j
    assert c == FlopCounter()


def _composed_dot(xs, ys, conjugate):
    # the per-element loop the row helpers replace
    acc = None
    for x, y in zip(xs, ys):
        term = cmul(x.conjugate() if conjugate else x, y)
        acc = term if acc is None else cadd(acc, term)
    return acc


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("n", range(1, 10))
def test_row_helpers_equal_composed_primitives(n):
    # bitwise the per-element composition at an exactly equal count, on
    # Python numbers and on (B,) array entries; signed zeros included
    rng = np.random.default_rng([7, n])
    arr = rng.standard_normal((2, n, 5)) + 1j * rng.standard_normal((2, n, 5))
    arr[:, 0, 0] = -0.0
    numbers = ([complex(v) for v in arr[0, :, 0]], [complex(v) for v in arr[1, :, 0]])
    for xs, ys in (numbers, (list(arr[0]), list(arr[1]))):
        for helper, conjugate in ((cdotc, True), (cdotu, False)):
            c_row, c_el = FlopCounter(), FlopCounter()
            with flop_scope(c_row):
                got = helper(xs, ys)
            with flop_scope(c_el):
                want = _composed_dot(xs, ys, conjugate)
            assert _same_bits(got, want), (helper.__name__, n)
            assert c_row == c_el, (helper.__name__, n)


def test_scope_nesting_accumulates_into_parent():
    outer = FlopCounter()
    inner = FlopCounter()
    with flop_scope(outer):
        cmul(1j, 1j)
        with flop_scope(inner):
            radd(1.0, 2.0)
        rmul(2.0, 2.0)
    assert (inner.real_mults, inner.real_adds) == (0, 1)
    # outer sees its own work plus the inner scope's
    assert (outer.real_mults, outer.real_adds) == (5, 3)


def test_reentrant_scope_not_double_counted():
    c = FlopCounter()
    with flop_scope(c):
        cmul(1j, 1j)
        with flop_scope(c):
            cmul(1j, 1j)
    assert (c.real_mults, c.real_adds) == (8, 4)


def test_counter_equality_copy_total():
    a = FlopCounter(real_mults=3, real_adds=5)
    b = a.copy()
    assert a == b and a is not b
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
        cmul(1j, 1j)
        stop.set()
        t.join()
    assert (main.real_mults, main.real_adds) == (4, 2)
    assert (other.real_mults, other.real_adds) == (0, 0)


def test_flop_counter_repr_roundtrip():
    c = FlopCounter(real_mults=7, real_adds=9)
    assert "7" in repr(c) and "9" in repr(c)
