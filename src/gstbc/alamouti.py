"""Quaternion-style 2x2 block algebra and block-compressed Hermitian matrices.

An Alamouti block is the 2x2 complex matrix

    [[a1, -conj(a2)],
     [a2,  conj(a1)]]

represented here by the pair (a1, a2).  The set of such blocks is closed
under addition, multiplication, adjoint and (when nonzero) inversion, and
the determinant |a1|^2 + |a2|^2 is real and nonnegative.  Gram matrices of
Alamouti-paired channel columns inherit this structure blockwise, with the
extra property that every diagonal block collapses to a nonnegative real
multiple of I2.  `StructuredHermitianBlockMatrix` stores exactly that
compressed form: one real scalar per diagonal block plus one Alamouti
block per strict-upper off-diagonal position.  The lower triangle is
implied by Hermitian symmetry and is never stored.

The recursion runs on three kernels over whole matrices, `sbm_matvec`
(Q v), `sbm_sub_outer` (Q - x y^H: the growth's and the deflation's one
rank-one update) and `sbm_leading`, and on one list of the interchange's
moves, `sbm_interchange`.  Each kernel works by rows (`upper_rows`;
`sbm_from_rows` builds its result) and makes one charge in `gstbc.flops`
of the primitives it performs.  It applies the operations of the
per-block helpers (`ab_*`, the tests' oracle) to the same operands in
the same order, so it returns their values bit for bit (the diagonal's
real products, on Python numbers).  A symbol pair (c1, c2) is the first
column of `AlamoutiBlock(c1, c2)`.  Entries need only arithmetic, `.real`,
`.imag` and `.conjugate()`, so (B,) array entries hold B instances at
once.  A kernel writes in place only into a product it has just made,
never into an entry it was given: several detectors start from one state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import StructureViolation
from .flops import charge, cost


class AlamoutiBlock(NamedTuple):
    """Compressed 2x2 block; `a1` is the (1,1) entry, `a2` the (2,1) entry."""

    a1: complex
    a2: complex


# the helpers build their results with the plain tuple constructor, which
# skips the NamedTuple's Python-level __new__
_new_tuple = tuple.__new__
_new_object, _set = object.__new__, object.__setattr__


def ab_dense(x: AlamoutiBlock) -> np.ndarray:
    """Expand a block to its dense 2x2 complex matrix."""
    a1, a2 = x
    return np.array([[a1, -np.conj(a2)], [a2, np.conj(a1)]], dtype=np.complex128)


def ab_from_dense(block, tol: float = 1e-9) -> AlamoutiBlock:
    """Read a dense 2x2 matrix back into compressed form.

    Raises StructureViolation if the matrix deviates from the Alamouti
    pattern by more than `tol` in any entry.
    """
    a1 = complex(block[0, 0])
    a2 = complex(block[1, 0])
    if abs(block[1, 1] - np.conj(a1)) > tol or abs(block[0, 1] + np.conj(a2)) > tol:
        raise StructureViolation(
            f"2x2 block breaks the Alamouti pattern by more than tol={tol:g}: {np.asarray(block)!r}"
        )
    return AlamoutiBlock(a1, a2)


def ab_adjoint(x: AlamoutiBlock) -> AlamoutiBlock:
    """Conjugate transpose; free of charge (conjugation and negation only)."""
    return _new_tuple(AlamoutiBlock, (x.a1.conjugate(), -x.a2))


def ab_add(x: AlamoutiBlock, y: AlamoutiBlock) -> AlamoutiBlock:
    """Block sum: 2 complex adds."""
    charge(*cost(cadd=2))
    return _new_tuple(AlamoutiBlock, (x.a1 + y.a1, x.a2 + y.a2))


def ab_sub(x: AlamoutiBlock, y: AlamoutiBlock) -> AlamoutiBlock:
    """Block difference: 2 complex adds."""
    charge(*cost(cadd=2))
    return _new_tuple(AlamoutiBlock, (x.a1 - y.a1, x.a2 - y.a2))


def ab_mul(x: AlamoutiBlock, y: AlamoutiBlock) -> AlamoutiBlock:
    """Block product at compressed cost: 4 complex mults + 2 complex adds.

    Closure: the product of two Alamouti blocks is again an Alamouti block
    with c1 = a1 b1 - conj(a2) b2 and c2 = a2 b1 + conj(a1) b2.
    """
    charge(*cost(cmul=4, cadd=2))
    x1, x2 = x
    y1, y2 = y
    return _new_tuple(AlamoutiBlock, (x1 * y1 - x2.conjugate() * y2, x2 * y1 + x1.conjugate() * y2))


def ab_mul_adjoint(x: AlamoutiBlock, y: AlamoutiBlock) -> AlamoutiBlock:
    """x y^H: the sums of `ab_mul(x, ab_adjoint(y))`, forming no adjoint."""
    charge(*cost(cmul=4, cadd=2))
    x1, x2 = x
    y1, y2 = y
    y1c = y1.conjugate()
    return _new_tuple(AlamoutiBlock, (x1 * y1c + x2.conjugate() * y2, x2 * y1c - x1.conjugate() * y2))


def ab_adjoint_mul(x: AlamoutiBlock, y: AlamoutiBlock) -> AlamoutiBlock:
    """x^H y: the sums of `ab_mul(ab_adjoint(x), y)`, forming no adjoint."""
    charge(*cost(cmul=4, cadd=2))
    x1, x2 = x
    y1, y2 = y
    return _new_tuple(AlamoutiBlock, (x1.conjugate() * y1 + x2.conjugate() * y2, x1 * y2 - x2 * y1))


def ab_scale_real(r: float, x: AlamoutiBlock) -> AlamoutiBlock:
    """Real scalar times block: 4 real mults (dedicated cheap path)."""
    charge(*cost(rcmul=2))
    return _new_tuple(AlamoutiBlock, (r * x.a1, r * x.a2))


@dataclass(frozen=True)
class StructuredHermitianBlockMatrix:
    """Hermitian 2m x 2m matrix in Alamouti-compressed storage.

    diag[i] is the real scalar d with diagonal block d * I2; upper holds the
    strict upper triangle row-major, one AlamoutiBlock per (i, j) with
    i < j.  Instances are immutable; structural updates build new ones.
    """

    m: int
    diag: tuple
    upper: tuple

    def __post_init__(self):
        if len(self.diag) != self.m or len(self.upper) != self.m * (self.m - 1) // 2:
            raise StructureViolation(
                f"inconsistent compressed storage for m={self.m}: "
                f"{len(self.diag)} diagonal scalars, {len(self.upper)} upper blocks"
            )

    def _uidx(self, i: int, j: int) -> int:
        # row-major strict upper triangle
        return i * (2 * self.m - i - 1) // 2 + (j - i - 1)

    _rows = None  # upper_rows, once built; not a field

    def upper_rows(self) -> tuple:
        """The strict upper triangle as m rows; row i holds (i, i+1), ...,
        (i, m-1)."""
        rows = self._rows
        if rows is None:
            starts = [self._uidx(i, i + 1) for i in range(self.m + 1)]
            rows = tuple(self.upper[a:b] for a, b in zip(starts, starts[1:]))
            _set(self, "_rows", rows)
        return rows

    def block(self, i: int, j: int) -> AlamoutiBlock:
        """Return block (i, j); the lower triangle is served by adjoint."""
        if i == j:
            return AlamoutiBlock(complex(self.diag[i]), 0j)
        if i < j:
            return self.upper[self._uidx(i, j)]
        return ab_adjoint(self.upper[self._uidx(j, i)])


def sbm_from_rows(m: int, diag: tuple, rows: tuple) -> StructuredHermitianBlockMatrix:
    """A kernel's result from its m rows (as `upper_rows` gives them), set
    without the frozen dataclass's per-field setattr and storage check."""
    a = _new_object(StructuredHermitianBlockMatrix)
    _set(a, "m", m)
    _set(a, "diag", diag)
    _set(a, "upper", tuple(chain.from_iterable(rows)))
    _set(a, "_rows", rows)
    return a


@lru_cache(maxsize=None)
def sbm_interchange(m: int, t: int) -> tuple:
    """Symmetric interchange of block t < m - 1 with the last, as moves
    over the stored blocks: in each ((i, j), (k, l), adjoint), blocks
    (i, j) and (k, l) trade values, each through its adjoint if `adjoint`.
    Diagonal scalars t and m - 1 trade too, unlisted.  No flops."""
    last = m - 1
    return (
        *(((r, t), (r, last), False) for r in range(t)),
        # blocks (t, r) and (r, last) trade as adjoints; block (t, last)
        # becomes its own adjoint
        *(((t, r), (r, last), True) for r in range(t + 1, last)),
        ((t, last), (t, last), True),
    )


def sbm_to_dense(a: StructuredHermitianBlockMatrix) -> np.ndarray:
    """Expand to the dense 2m x 2m Hermitian matrix; with (B,) entries, to
    a (B, 2m, 2m) array of one matrix per instance."""
    k = 2 * np.arange(a.m)
    i, j = 2 * np.array(np.triu_indices(a.m, 1))
    d = np.moveaxis(np.array(a.diag), 0, -1)
    a1, a2 = (np.moveaxis(np.array([u[p] for u in a.upper], dtype=np.complex128), 0, -1) for p in (0, 1))
    out = np.zeros((*np.shape(d)[:-1], 2 * a.m, 2 * a.m), dtype=np.complex128)
    out[..., k, k] = out[..., k + 1, k + 1] = d
    # block (i, j) and, below the diagonal, its adjoint
    out[..., i, j] = out[..., j + 1, i + 1] = a1
    out[..., i + 1, j] = a2
    out[..., j + 1, i] = -a2
    out[..., i, j + 1] = -np.conj(a2)
    out[..., j, i + 1] = np.conj(a2)
    out[..., i + 1, j + 1] = out[..., j, i] = np.conj(a1)
    return out


def sbm_from_dense(dense, tol: float = 1e-9) -> StructuredHermitianBlockMatrix:
    """Validate and compress a dense matrix.

    Checks, entrywise within `tol`: even square shape, diagonal blocks equal
    to a nonnegative real multiple of I2, strict-upper blocks Alamouti, and
    the lower triangle the exact adjoint of the upper.  Raises
    StructureViolation naming the first offending block.  Exact round-trip:
    entries are taken as stored, never averaged, so
    sbm_from_dense(sbm_to_dense(a), tol=0) reproduces `a`.
    """
    dense = np.asarray(dense)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise StructureViolation(f"expected a square matrix, got shape {dense.shape}")
    if dense.shape[0] % 2 != 0:
        raise StructureViolation(f"expected even dimension, got {dense.shape[0]}")
    m = dense.shape[0] // 2
    diag = []
    for i in range(m):
        d = dense[2 * i, 2 * i]
        if abs(d.imag) > tol:
            raise StructureViolation(f"diagonal block {i} is not real: {d!r}")
        if d.real < -tol:
            raise StructureViolation(f"diagonal block {i} is negative: {d.real!r}")
        if abs(dense[2 * i + 1, 2 * i + 1] - d) > tol:
            raise StructureViolation(f"diagonal block {i} is not a scalar multiple of I2")
        if abs(dense[2 * i, 2 * i + 1]) > tol or abs(dense[2 * i + 1, 2 * i]) > tol:
            raise StructureViolation(f"diagonal block {i} has nonzero off-diagonal entries")
        diag.append(float(d.real))
    upper = []
    for i in range(m):
        for j in range(i + 1, m):
            sub = dense[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            try:
                blk = ab_from_dense(sub, tol)
            except StructureViolation as exc:
                raise StructureViolation(f"block ({i}, {j}): {exc}") from None
            low = dense[2 * j : 2 * j + 2, 2 * i : 2 * i + 2]
            if np.max(np.abs(low - sub.conj().T)) > tol:
                raise StructureViolation(f"block ({j}, {i}) is not the adjoint of block ({i}, {j})")
            upper.append(blk)
    return StructuredHermitianBlockMatrix(m, tuple(diag), tuple(upper))


def sbm_leading(a: StructuredHermitianBlockMatrix, k: int) -> StructuredHermitianBlockMatrix:
    """Leading principal k-block submatrix; pure data movement."""
    return sbm_from_rows(k, a.diag[:k], tuple(row[: k - i - 1] for i, row in enumerate(a.upper_rows()[:k])))


def sbm_matvec(a: StructuredHermitianBlockMatrix, v) -> list:
    """Compressed matrix times block column vector.

    Output block i sums the terms of row i over j in order: stored block
    (j, i) adjoint times v[j] below the diagonal (`ab_adjoint_mul`), d_i v[i]
    on it (`ab_scale_real`), block (i, j) times v[j] above (`ab_mul`).  `v`
    holds m pairs; returns a list of m AlamoutiBlocks.
    """
    m = a.m
    rows = a.upper_rows()
    conj = [[(x1.conjugate(), x2.conjugate()) for x1, x2 in row] for row in rows]
    out = []
    for i in range(m):
        acc1 = acc2 = None
        for j in range(m):
            y1, y2 = v[j]
            if j == i:
                d = a.diag[i]
                t1, t2 = d * y1, d * y2
            elif i < j:
                (x1, x2), (x1c, x2c) = rows[i][j - i - 1], conj[i][j - i - 1]
                t1, t2 = x1 * y1 - x2c * y2, x2 * y1 + x1c * y2
            else:
                (x1, x2), (x1c, x2c) = rows[j][i - j - 1], conj[j][i - j - 1]
                t1, t2 = x1c * y1 + x2c * y2, x1 * y2 - x2 * y1
            if acc1 is None:
                acc1, acc2 = t1, t2
            else:
                acc1 += t1
                acc2 += t2
        out.append(_new_tuple(AlamoutiBlock, (acc1, acc2)))
    # per output block one real scaling, m - 1 block products and their
    # m - 1 block sums
    charge(*cost(rcmul=2 * m, cmul=4 * m * (m - 1), cadd=2 * m * (m - 1) + 2 * m * (m - 1)))
    return out


def sbm_sub_outer(a: StructuredHermitianBlockMatrix, x, y, border=None) -> tuple:
    """Hermitian Q - x y^H over Q's leading k = len(x) blocks, as (diag,
    rows): block (i, j) is `ab_sub(Q_ij, ab_mul_adjoint(x[i], y[j]))`, and
    diagonal scalar i loses Re(x1 conj y1) + Re(x2 conj y2), the real part
    of that product's first entry.  With `border` (the growth step's new
    last column) row i ends in border[i] and an empty row follows."""
    k = len(x)
    rows = a.upper_rows()
    diag = [d - ((x1.real * y1.real + x1.imag * y1.imag) + (x2.real * y2.real + x2.imag * y2.imag))
            for d, (x1, x2), (y1, y2) in zip(a.diag, x, y)]
    y1c = [y1.conjugate() for y1, _ in y[1:k]]
    out = []
    for i, (x1, x2) in enumerate(x[: k - 1]):
        x1c, x2c = x1.conjugate(), x2.conjugate()
        row = []
        for (q1, q2), (_, y2), yc in zip(rows[i], y[i + 1 : k], y1c[i:]):
            row.append(_new_tuple(AlamoutiBlock, (q1 - (x1 * yc + x2c * y2), q2 - (x2 * yc - x1c * y2))))
        out.append(tuple(row) if border is None else (*row, border[i]))
    out.append(() if border is None else (border[k - 1],))
    # a block product and difference per block; per diagonal scalar two
    # real parts of products (2 mults, 1 add each), a sum and a difference
    n = k * (k - 1) // 2
    charge(*cost(cmul=4 * n, cadd=2 * n + 2 * n, rmul=4 * k, radd=4 * k))
    return tuple(diag), (tuple(out) if border is None else (*out, ()))
