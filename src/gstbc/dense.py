"""Counted dense Hermitian linear algebra for the reference detectors.

These helpers are deliberately plain: textbook Gram assembly and a
pivot-free Gauss-Jordan inverse.  Regularized Gram matrices are Hermitian
positive definite, so elimination needs no row interchanges and every
pivot stays real and positive; the arithmetic is therefore branch-free
and the flop count of any detector built on top is independent of the
input values.  Everything routes through the counted primitives in
`gstbc.flops`.
"""

from __future__ import annotations

from .errors import PIVOT_REL_TOL, SingularPivot
from .flops import cadd, cmul, csub, rcmul, rdiv


def gram_plus_alpha(columns, alpha: float):
    """Return H^H H + alpha I as a nested list, H given by `columns`.

    `columns` is a sequence of equal-length sequences of complex samples.
    Only the upper triangle is computed; the lower is mirrored by
    conjugation (free).
    """
    k = len(columns)
    rows = [[0j] * k for _ in range(k)]
    for i in range(k):
        ci = columns[i]
        for j in range(i, k):
            cj = columns[j]
            acc = cmul(ci[0].conjugate(), cj[0])
            for r in range(1, len(ci)):
                acc = cadd(acc, cmul(ci[r].conjugate(), cj[r]))
            if i == j:
                acc = cadd(acc, complex(alpha))
                rows[i][i] = acc
            else:
                rows[i][j] = acc
                rows[j][i] = acc.conjugate()
    return rows


def adjoint_apply(columns, vec):
    """Return H^H vec for H given by `columns`."""
    out = []
    for col in columns:
        acc = cmul(col[0].conjugate(), vec[0])
        for r in range(1, len(col)):
            acc = cadd(acc, cmul(col[r].conjugate(), vec[r]))
        out.append(acc)
    return out


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
        inv_p = rdiv(1.0, pivot.real)
        row = work[col]
        for c in range(n + n):
            row[c] = rcmul(inv_p, row[c])
        for r in range(n):
            if r == col:
                continue
            # no zero-factor shortcut: elimination stays branch-free so the
            # flop count depends only on the matrix size
            factor = work[r][col]
            target = work[r]
            for c in range(n + n):
                target[c] = csub(target[c], cmul(factor, row[c]))
    return [row[n:] for row in work]
