"""Counted dense Hermitian linear algebra for the reference detectors.

These helpers are deliberately plain: textbook Gram assembly and a
pivot-free Gauss-Jordan inverse.  Regularized Gram matrices are Hermitian
positive definite, so elimination needs no row interchanges and every
pivot stays real and positive; the arithmetic is therefore branch-free
and the flop count of any detector built on top is independent of the
input values.  Each helper is plain arithmetic with one charge in
`gstbc.flops` per call.
"""

from __future__ import annotations

from .errors import PIVOT_REL_TOL, SingularPivot
from .flops import charge, cost, dotu


def gram_plus_alpha(columns, alpha: float):
    """Return H^H H + alpha I as a nested list, H given by `columns`.

    `columns` is a sequence of equal-length sequences of complex samples.
    Only the upper triangle is computed; the lower is mirrored by
    conjugation (free).
    """
    k = len(columns)
    rows = [[0j] * k for _ in range(k)]
    # each column conjugated once, for all the dot products it enters
    conj = [list(map(complex.conjugate, col)) for col in columns]
    for i in range(k):
        ci = conj[i]
        for j in range(i, k):
            acc = dotu(ci, columns[j])
            if i == j:
                rows[i][i] = acc + complex(alpha)
            else:
                rows[i][j] = acc
                rows[j][i] = acc.conjugate()
    # k(k + 1)/2 dot products of length n, and alpha on the diagonal
    n = len(columns[0]) if k else 0
    dots = k * (k + 1) // 2
    charge(*cost(cmul=n * dots, cadd=(n - 1) * dots + k))
    return rows


def adjoint_apply(columns, vec):
    """Return H^H vec for H given by `columns`, one dot product each."""
    n = len(vec)
    charge(*cost(cmul=n * len(columns), cadd=(n - 1) * len(columns)))
    return [dotu(map(complex.conjugate, col), vec) for col in columns]


def gj_inverse_hpd(a):
    """Invert a Hermitian positive definite matrix by Gauss-Jordan.

    Works on the augmented system [A | I] without pivot search; the
    pivots of an HPD matrix are real and positive, so a pivot at or below
    PIVOT_REL_TOL times the mean diagonal (or with a non-real part beyond
    that tolerance, or NaN) signals a numerically singular input and
    raises SingularPivot.
    """
    n = len(a)
    work = [list(a[i]) + [0j] * n for i in range(n)]
    for i in range(n):
        work[i][n + i] = 1 + 0j
    scale = sum(abs(a[i][i].real) for i in range(n)) / n if n else 0.0
    tol = PIVOT_REL_TOL * max(scale, 1e-300)
    for col in range(n):
        pivot = work[col][col]
        if not abs(pivot.imag) <= tol:
            raise SingularPivot(f"elimination pivot {col} is not real: {pivot!r}")
        if not pivot.real > tol:
            raise SingularPivot(f"elimination pivot {col} is not positive: {pivot.real!r}")
        inv_p = 1.0 / pivot.real
        row = work[col] = [inv_p * c for c in work[col]]
        for r in range(n):
            if r == col:
                continue
            # no zero-factor shortcut: elimination stays branch-free so the
            # flop count depends only on the matrix size
            factor = work[r][col]
            work[r] = [t - factor * c for t, c in zip(work[r], row)]
    # per column: one pivot division, the pivot row scaled, every other
    # row eliminated over all 2n columns
    charge(*cost(rdiv=n, rcmul=2 * n * n, cmul=2 * n * n * (n - 1), cadd=2 * n * n * (n - 1)))
    return [row[n:] for row in work]
