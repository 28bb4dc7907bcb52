import numpy as np
import pytest

from gstbc.alamouti import (
    AlamoutiBlock,
    StructuredHermitianBlockMatrix,
    ab_add,
    ab_adjoint,
    ab_dense,
    ab_from_dense,
    ab_adjoint_mul,
    ab_mul,
    ab_mul_adjoint,
    ab_scale_real,
    ab_sub,
    sbm_from_dense,
    sbm_leading,
    sbm_matvec,
    sbm_to_dense,
)
from gstbc.detectors import DetectorWorkspace, permute_workspace
from gstbc.errors import StructureViolation
from gstbc.flops import FlopCounter, charge, flop_scope

RNG = np.random.default_rng(90210)


def random_block():
    r = RNG.standard_normal(4)
    return AlamoutiBlock(complex(r[0], r[1]), complex(r[2], r[3]))


def dense_oracle(x: AlamoutiBlock) -> np.ndarray:
    # the 2x2 pattern, written out independently of ab_dense
    return np.array(
        [[x.a1, -np.conj(x.a2)], [x.a2, np.conj(x.a1)]], dtype=np.complex128
    )


def test_dense_layout():
    x = AlamoutiBlock(1 + 2j, 3 - 4j)
    assert np.array_equal(np.asarray(ab_dense(x)), dense_oracle(x))


def test_algebra_matches_dense_oracle():
    # the block set must be closed under +, -, *, adjoint; verify each
    # operation against plain 2x2 matrix arithmetic
    for _ in range(50):
        x, y = random_block(), random_block()
        dx, dy = dense_oracle(x), dense_oracle(y)
        assert np.allclose(np.asarray(ab_dense(ab_add(x, y))), dx + dy)
        assert np.allclose(np.asarray(ab_dense(ab_sub(x, y))), dx - dy)
        assert np.allclose(np.asarray(ab_dense(ab_mul(x, y))), dx @ dy)
        assert np.allclose(np.asarray(ab_dense(ab_adjoint(x))), dx.conj().T)
        assert np.allclose(np.asarray(ab_dense(ab_scale_real(0.75, x))), 0.75 * dx)


def test_mul_frozen_value():
    x = AlamoutiBlock(1 + 1j, 2 - 1j)
    y = AlamoutiBlock(-1 + 2j, 0 + 3j)
    got = ab_mul(x, y)
    # hand-computed: a1 = (1+1j)(-1+2j) - (2+1j)(3j), a2 = (2-1j)(-1+2j) + (1-1j)(3j)
    assert got.a1 == pytest.approx((1 + 1j) * (-1 + 2j) - (2 + 1j) * 3j)
    assert got.a2 == pytest.approx((2 - 1j) * (-1 + 2j) + (1 - 1j) * 3j)


def test_apply_matches_dense():
    for _ in range(20):
        x = random_block()
        v = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
        d = dense_oracle(x)
        # a pair is the first column of the block it generates
        pair = AlamoutiBlock(v[0], v[1])
        assert np.allclose(np.asarray(ab_mul(x, pair)), d @ v)
        assert np.allclose(np.asarray(ab_adjoint_mul(x, pair)), d.conj().T @ v)


def test_identity_and_zero():
    x = random_block()
    assert ab_mul(AlamoutiBlock(1 + 0j, 0j), x) == x
    assert ab_add(AlamoutiBlock(0j, 0j), x) == x


def test_from_dense_roundtrip_and_rejection():
    x = random_block()
    assert ab_from_dense(np.asarray(ab_dense(x))) == x
    bad = np.asarray(dense_oracle(x)).copy()
    bad[0, 1] += 1e-3  # break the conjugate pairing
    with pytest.raises(StructureViolation):
        ab_from_dense(bad)


# --- structured Hermitian block matrices ---


def random_sbm(m: int) -> StructuredHermitianBlockMatrix:
    diag = tuple(float(2.0 + RNG.random()) for _ in range(m))
    upper = tuple(random_block() for _ in range(m * (m - 1) // 2))
    return StructuredHermitianBlockMatrix(m, diag, upper)


def test_sbm_dense_is_hermitian_with_scalar_diag_blocks():
    a = random_sbm(4)
    d = np.asarray(sbm_to_dense(a))
    assert d.shape == (8, 8)
    assert np.allclose(d, d.conj().T)
    for i in range(4):
        blk = d[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
        assert np.allclose(blk, a.diag[i] * np.eye(2))
    # with (B,) entries, one expansion per instance, bitwise
    for m in (1, 2, 4):
        instances = [random_sbm(m) for _ in range(3)]
        stacked = StructuredHermitianBlockMatrix(
            m,
            tuple(np.array(d) for d in zip(*(a.diag for a in instances))),
            tuple(AlamoutiBlock(*map(np.array, zip(*u))) for u in zip(*(a.upper for a in instances))),
        )
        want = np.stack([sbm_to_dense(a) for a in instances])
        assert sbm_to_dense(stacked).tobytes() == want.tobytes(), m


def test_sbm_block_lower_is_adjoint_of_upper():
    a = random_sbm(3)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            bij = np.asarray(ab_dense(a.block(i, j)))
            bji = np.asarray(ab_dense(a.block(j, i)))
            assert np.allclose(bji, bij.conj().T)


def test_sbm_from_dense_roundtrip():
    a = random_sbm(4)
    assert sbm_from_dense(np.asarray(sbm_to_dense(a))) == a


def test_sbm_from_dense_rejects_broken_structure():
    a = random_sbm(3)
    d = np.asarray(sbm_to_dense(a)).copy()
    d[0, 0] += 1e-3  # diagonal block no longer scalar * I
    with pytest.raises(StructureViolation):
        sbm_from_dense(d, tol=1e-9)
    d = np.asarray(sbm_to_dense(a)).copy()
    d[0, 1] = d[0, 1] + 1.0  # diagonal block loses the zero off entry
    with pytest.raises(StructureViolation):
        sbm_from_dense(d, tol=1e-9)


def test_sbm_swap_matches_dense_permutation():
    # the interchange of block i with the last is P^T A P, entry for entry
    for m in (2, 3, 5):
        a = random_sbm(m)
        d = np.asarray(sbm_to_dense(a))
        ws = DetectorWorkspace(m, a, a, (0j,) * (2 * m), tuple(range(m)))
        j = m - 1
        for i in range(m):
            swapped = permute_workspace(ws, 2 * (i + 1)).Qbar
            perm = list(range(2 * m))
            perm[2 * i], perm[2 * j] = perm[2 * j], perm[2 * i]
            perm[2 * i + 1], perm[2 * j + 1] = perm[2 * j + 1], perm[2 * i + 1]
            oracle = d[np.ix_(perm, perm)]
            assert np.array_equal(np.asarray(sbm_to_dense(swapped)), oracle), (m, i, j)


def test_sbm_leading_is_principal_submatrix():
    a = random_sbm(5)
    d = np.asarray(sbm_to_dense(a))
    for k in range(1, 6):
        lead = sbm_leading(a, k)
        assert np.allclose(np.asarray(sbm_to_dense(lead)), d[: 2 * k, : 2 * k])


def test_sbm_matvec_matches_dense():
    for m in (1, 2, 4):
        a = random_sbm(m)
        d = np.asarray(sbm_to_dense(a))
        v = RNG.standard_normal(2 * m) + 1j * RNG.standard_normal(2 * m)
        blocks = [AlamoutiBlock(v[2 * i], v[2 * i + 1]) for i in range(m)]
        out = sbm_matvec(a, blocks)
        flat = np.array([c for b in out for c in (b.a1, b.a2)])
        assert np.allclose(flat, d @ v)


def _matvec_by_helpers(a, v):
    # the product as a sum of block-helper terms, each folded in by ab_add
    out = []
    for i in range(a.m):
        acc = None
        for j in range(a.m):
            if j == i:
                term = ab_scale_real(a.diag[i], v[i])
            elif i < j:
                term = ab_mul(a.block(i, j), v[j])
            else:
                term = ab_adjoint_mul(a.block(j, i), v[j])
            acc = term if acc is None else ab_add(acc, term)
        out.append(acc)
    return out


@pytest.mark.parametrize("m", range(1, 6))
def test_sbm_matvec_equals_helper_sums(m):
    # one charge for the block sums: bitwise and count for count the fold
    # of ab_add, on Python numbers and on (B,) array entries
    arr = RNG.standard_normal((2, m * m, 7)) + 1j * RNG.standard_normal((2, m * m, 7))
    diag = RNG.uniform(1.0, 2.0, (m, 7))
    for a1, a2, d in ((arr[0, :, 0].tolist(), arr[1, :, 0].tolist(), diag[:, 0].tolist()), (arr[0], arr[1], diag)):
        entries = [AlamoutiBlock(x1, x2) for x1, x2 in zip(a1, a2)]
        a = StructuredHermitianBlockMatrix(m, tuple(d), tuple(entries[m : m + m * (m - 1) // 2]))
        v = entries[:m]
        c_kernel, c_helpers = FlopCounter(), FlopCounter()
        with flop_scope(c_kernel):
            got = sbm_matvec(a, v)
        with flop_scope(c_helpers):
            want = _matvec_by_helpers(a, v)
        assert c_kernel == c_helpers
        for g, w in zip(got, want):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def test_sbm_rejects_bad_shapes():
    with pytest.raises(Exception):
        StructuredHermitianBlockMatrix(2, (1.0,), ())  # diag too short
    with pytest.raises(Exception):
        StructuredHermitianBlockMatrix(2, (1.0, 2.0), (AlamoutiBlock(0j, 0j), AlamoutiBlock(0j, 0j)))  # upper too long
    with pytest.raises(StructureViolation):
        sbm_from_dense(np.eye(5))  # odd size


# the per-element primitives, one operation and one charge each, with the
# real (mults, adds) of the convention written out
def cmul(x, y):
    charge(4, 2)
    return x * y


def cadd(x, y):
    charge(0, 2)
    return x + y


def csub(x, y):
    charge(0, 2)
    return x - y


def rcmul(r, x):
    charge(2, 0)
    return r * x


# each block helper written out with the per-element primitives
PER_ELEMENT = {
    ab_add: lambda x, y: (cadd(x.a1, y.a1), cadd(x.a2, y.a2)),
    ab_sub: lambda x, y: (csub(x.a1, y.a1), csub(x.a2, y.a2)),
    ab_mul: lambda x, y: (
        csub(cmul(x.a1, y.a1), cmul(x.a2.conjugate(), y.a2)),
        cadd(cmul(x.a2, y.a1), cmul(x.a1.conjugate(), y.a2)),
    ),
    ab_mul_adjoint: lambda x, y: (
        cadd(cmul(x.a1, y.a1.conjugate()), cmul(x.a2.conjugate(), y.a2)),
        csub(cmul(x.a2, y.a1.conjugate()), cmul(x.a1.conjugate(), y.a2)),
    ),
    ab_adjoint_mul: lambda x, y: (
        cadd(cmul(x.a1.conjugate(), y.a1), cmul(x.a2.conjugate(), y.a2)),
        csub(cmul(x.a1, y.a2), cmul(x.a2, y.a1)),
    ),
}


def test_adjoint_products_equal_composed_forms():
    # x y^H and x^H y without forming the adjoint: bitwise the composed
    # values at an equal count, on Python numbers and on (B,) arrays; and
    # every helper bitwise its per-element primitives, one charge equal
    # to theirs
    arr = RNG.standard_normal((4, 200)) + 1j * RNG.standard_normal((4, 200))
    cases = [(random_block(), random_block()) for _ in range(20)]
    cases.append((AlamoutiBlock(arr[0], arr[1]), AlamoutiBlock(arr[2], arr[3])))
    for x, y in cases:
        pairs = [(ab_mul_adjoint, lambda p, q: ab_mul(p, ab_adjoint(q))),
                 (ab_adjoint_mul, lambda p, q: ab_mul(ab_adjoint(p), q)),
                 (lambda p, q: ab_scale_real(0.75, p), lambda p, q: (rcmul(0.75, p.a1), rcmul(0.75, p.a2)))]
        pairs += list(PER_ELEMENT.items())
        for fast, slow in pairs:
            c_fast, c_slow = FlopCounter(), FlopCounter()
            with flop_scope(c_fast):
                got = fast(x, y)
            with flop_scope(c_slow):
                want = slow(x, y)
            assert c_fast == c_slow
            for g, w in zip(got, want):
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
