"""Flop accounting under a fixed real-operation convention.

The tally follows the usual complex-arithmetic expansion: one complex
multiplication costs 4 real multiplications and 2 real additions, one
complex addition (or subtraction) costs 2 real additions, and scaling a
complex number by a real costs 2 real multiplications.  A real division is
charged as one multiplication.  Negation and conjugation are free, as are
comparisons, copies and permutations.  Tolerance checks and other
bookkeeping are plain Python arithmetic and do not accrue.  `cost` states
this convention, and only it.

Every piece of detector arithmetic in this package is charged one way:
per kernel loop, by `charge(*cost(...))`.  A loop does its arithmetic with
plain operators and then makes one charge, written as the numbers of
primitive operations the loop performs (`cost(cmul=n, cadd=n - 1)` for a
dot product of length n), so a charge reads as the operations it stands
for and no total is typed by hand.  `cdotu` is such a loop; `dotu` is the
uncounted row product.  Counting is scoped and thread-confined: arithmetic
accrues to the innermost `flop_scope` counter installed on the current
thread, and a nested scope rolls its delta up into the enclosing scope on
exit.  With no scope active nothing is charged and the arithmetic just
computes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from operator import mul


@dataclass(slots=True)
class FlopCounter:
    """Running tally of real multiplications and additions.

    Counts only ever increase while a scope is active.  Instances are
    cheap; detectors allocate one per call and return it with the result.
    """

    real_mults: int = 0
    real_adds: int = 0

    @property
    def total(self) -> int:
        return self.real_mults + self.real_adds


class _Scope(threading.local):
    def __init__(self):
        self.current = None


_scope = _Scope()


class flop_scope:
    """Install `counter` as the accounting target for the current thread.

    Nested scopes are hierarchical: on exit, whatever accrued inside is
    added to the enclosing scope's counter as well, so an outer scope sees
    the full cost of everything executed within its dynamic extent.  (A
    class: every detection enters one, at half a generator's cost.)
    """

    __slots__ = ("counter", "prev", "base")

    def __init__(self, counter: FlopCounter):
        self.counter = counter

    def __enter__(self) -> FlopCounter:
        c = self.counter
        self.prev, self.base = _scope.current, (c.real_mults, c.real_adds)
        _scope.current = c
        return c

    def __exit__(self, *exc) -> None:
        c, prev = self.counter, self.prev
        _scope.current = prev
        if prev is not None and prev is not c:
            prev.real_mults += c.real_mults - self.base[0]
            prev.real_adds += c.real_adds - self.base[1]


# --- charges --------------------------------------------------------------
#
# The hot path must stay cheap when no scope is active, so each charge
# does a single thread-local read and one branch.

def cost(cmul=0, cadd=0, rcmul=0, rmul=0, radd=0, rdiv=0, cabs2=0):
    """Real (mults, adds) of the given numbers of primitive operations:
    `cmul` complex products (4 mults, 2 adds), `cadd` complex sums or
    differences (2 adds), `rcmul` reals times complexes (2 mults), `rmul`
    real products (1 mult), `radd` real sums or differences (1 add),
    `rdiv` real divisions (1 mult) and `cabs2` squared magnitudes (2
    mults, 1 add)."""
    mults = 4 * cmul + 2 * rcmul + rmul + rdiv + 2 * cabs2
    adds = 2 * cmul + 2 * cadd + radd + cabs2
    return mults, adds


def charge(mults, adds):
    """Charge a whole kernel loop at once; see `cost` for the arguments."""
    c = _scope.current
    if c is not None:
        c.real_mults += mults
        c.real_adds += adds


def dotu(xs, ys):
    """Sum of x y over two rows of n >= 1 entries, left to right; uncounted,
    for a loop that charges all its dot products at once (conjugates made
    once then serve every dot product they enter)."""
    products = map(mul, xs, ys)
    acc = next(products)
    for p in products:
        acc += p
    return acc


def cdotu(xs, ys):
    """`dotu` counted: n complex mults + n - 1 complex adds."""
    n = len(xs)
    charge(*cost(cmul=n, cadd=n - 1))
    return dotu(xs, ys)
