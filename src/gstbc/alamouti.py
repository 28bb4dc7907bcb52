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

Each arithmetic helper computes with plain operators and makes one charge
in `gstbc.flops`, at compressed cost: a block-times-block product is 4
complex mults + 2 complex adds, and a real-scalar-times-block is 4 real
mults.  Pure data movement (conversion, permutation, slicing) is free.
A symbol pair (c1, c2) is the first column of `AlamoutiBlock(c1, c2)`,
so `ab_mul` and `ab_adjoint_mul` with that block give a block, or its
adjoint, times the pair.  The helpers need only `*`, `+`, `-` and
`.conjugate()` of their entries, so a block whose entries are (B,) arrays
holds B instances at once.  No helper negates a product or forms an
adjoint to multiply by it, so over a block no negated copy is made.
"""

from __future__ import annotations

from dataclasses import dataclass
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

# the fixed charge of each arithmetic helper
_ADD = cost(cadd=2)
_MUL = cost(cmul=4, cadd=2)
_SCALE = cost(rcmul=2)


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
    charge(*_ADD)
    return _new_tuple(AlamoutiBlock, (x.a1 + y.a1, x.a2 + y.a2))


def ab_sub(x: AlamoutiBlock, y: AlamoutiBlock) -> AlamoutiBlock:
    """Block difference: 2 complex adds."""
    charge(*_ADD)
    return _new_tuple(AlamoutiBlock, (x.a1 - y.a1, x.a2 - y.a2))


def ab_mul(x: AlamoutiBlock, y: AlamoutiBlock) -> AlamoutiBlock:
    """Block product at compressed cost: 4 complex mults + 2 complex adds.

    Closure: the product of two Alamouti blocks is again an Alamouti block
    with c1 = a1 b1 - conj(a2) b2 and c2 = a2 b1 + conj(a1) b2.
    """
    charge(*_MUL)
    x1, x2 = x
    y1, y2 = y
    return _new_tuple(AlamoutiBlock, (x1 * y1 - x2.conjugate() * y2, x2 * y1 + x1.conjugate() * y2))


def ab_mul_adjoint(x: AlamoutiBlock, y: AlamoutiBlock) -> AlamoutiBlock:
    """x y^H: the sums of `ab_mul(x, ab_adjoint(y))`, forming no adjoint."""
    charge(*_MUL)
    x1, x2 = x
    y1, y2 = y
    y1c = y1.conjugate()
    return _new_tuple(AlamoutiBlock, (x1 * y1c + x2.conjugate() * y2, x2 * y1c - x1.conjugate() * y2))


def ab_adjoint_mul(x: AlamoutiBlock, y: AlamoutiBlock) -> AlamoutiBlock:
    """x^H y: the sums of `ab_mul(ab_adjoint(x), y)`, forming no adjoint."""
    charge(*_MUL)
    x1, x2 = x
    y1, y2 = y
    return _new_tuple(AlamoutiBlock, (x1.conjugate() * y1 + x2.conjugate() * y2, x1 * y2 - x2 * y1))


def ab_scale_real(r: float, x: AlamoutiBlock) -> AlamoutiBlock:
    """Real scalar times block: 4 real mults (dedicated cheap path)."""
    charge(*_SCALE)
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

    def upper_rows(self) -> list:
        """The strict upper triangle as m rows; row i holds (i, i+1), ...,
        (i, m-1)."""
        rows = []
        start = 0
        for i in range(self.m):
            stop = start + self.m - 1 - i
            rows.append(self.upper[start:stop])
            start = stop
        return rows

    def block(self, i: int, j: int) -> AlamoutiBlock:
        """Return block (i, j); the lower triangle is served by adjoint."""
        if i == j:
            return AlamoutiBlock(complex(self.diag[i]), 0j)
        if i < j:
            return self.upper[self._uidx(i, j)]
        return ab_adjoint(self.upper[self._uidx(j, i)])


def sbm_to_dense(a: StructuredHermitianBlockMatrix) -> np.ndarray:
    """Expand to the dense 2m x 2m Hermitian matrix."""
    n = 2 * a.m
    out = np.zeros((n, n), dtype=np.complex128)
    for i in range(a.m):
        d = a.diag[i]
        out[2 * i, 2 * i] = d
        out[2 * i + 1, 2 * i + 1] = d
    for i in range(a.m):
        for j in range(i + 1, a.m):
            blk = ab_dense(a.upper[a._uidx(i, j)])
            out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = blk
            out[2 * j : 2 * j + 2, 2 * i : 2 * i + 2] = blk.conj().T
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


def sbm_swap_blocks(a: StructuredHermitianBlockMatrix, i: int, j: int) -> StructuredHermitianBlockMatrix:
    """Symmetric block-row/column interchange; pure data movement, no flops."""
    if i == j:
        return a
    perm = list(range(a.m))
    perm[i], perm[j] = perm[j], perm[i]
    diag = tuple(a.diag[perm[k]] for k in range(a.m))

    def entry(r, c):
        pr, pc = perm[r], perm[c]
        if pr < pc:
            return a.upper[a._uidx(pr, pc)]
        return ab_adjoint(a.upper[a._uidx(pc, pr)])

    upper = tuple(entry(r, c) for r in range(a.m) for c in range(r + 1, a.m))
    return StructuredHermitianBlockMatrix(a.m, diag, upper)


def sbm_leading(a: StructuredHermitianBlockMatrix, k: int) -> StructuredHermitianBlockMatrix:
    """Leading principal k-block submatrix; pure data movement."""
    diag = a.diag[:k]
    upper = tuple(a.upper[a._uidx(i, j)] for i in range(k) for j in range(i + 1, k))
    return StructuredHermitianBlockMatrix(k, diag, upper)


def sbm_matvec(a: StructuredHermitianBlockMatrix, v) -> list:
    """Compressed matrix times block column vector.

    Diagonal blocks use the cheap real-scalar path (4 real mults); off
    diagonals are full block products, a lower one taken as the adjoint of
    its stored upper block (`ab_adjoint_mul`).  `v` is a sequence of m
    AlamoutiBlocks; returns a list of m AlamoutiBlocks.
    """
    m = a.m
    rows = a.upper_rows()
    out = []
    for i in range(m):
        acc1 = acc2 = None
        for j in range(m):
            if j == i:
                t1, t2 = ab_scale_real(a.diag[i], v[i])
            elif i < j:
                t1, t2 = ab_mul(rows[i][j - i - 1], v[j])
            else:
                t1, t2 = ab_adjoint_mul(rows[j][i - j - 1], v[j])
            if acc1 is None:
                acc1, acc2 = t1, t2
            else:
                acc1 += t1
                acc2 += t2
        out.append(_new_tuple(AlamoutiBlock, (acc1, acc2)))
    # the m - 1 block sums of each output block
    charge(*cost(cadd=2 * m * (m - 1)))
    return out
