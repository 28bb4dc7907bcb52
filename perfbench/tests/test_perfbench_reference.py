"""The numpy reference agrees with itself across routes on tiny instances.

    python3 -m pytest -q perfbench/tests
"""

import numpy as np
import pytest

import reference as ref

SHAPES = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 4)]


def _instances(m, n, snr_db, count=20, seed=0):
    rng = np.random.default_rng([seed, m, n])
    h, bits, s, x, alpha = ref.draw(rng, count, m, n, snr_db)
    return ref.equivalent(h), s, x, alpha


def _only(outcomes):
    assert len(outcomes) == 1
    return outcomes[0]


def test_equivalent_channel_matches_two_slot_alamouti_transmission():
    rng = np.random.default_rng(1)
    m, n = 3, 2
    h = rng.standard_normal((n, 2 * m)) + 1j * rng.standard_normal((n, 2 * m))
    s = ref.gray_qpsk(rng.integers(0, 2, 4 * m))
    slot1 = h @ s
    t2 = np.empty_like(s)
    t2[0::2] = -np.conj(s[1::2])
    t2[1::2] = np.conj(s[0::2])
    slot2 = h @ t2
    stacked = np.empty(2 * n, dtype=complex)
    stacked[0::2] = slot1
    stacked[1::2] = np.conj(slot2)
    np.testing.assert_allclose(ref.equivalent(h) @ s, stacked, atol=1e-12)


def test_draw_is_a_function_of_the_seed():
    a = ref.draw(np.random.default_rng([7, 1]), 5, 2, 3, 0.0)
    b = ref.draw(np.random.default_rng([7, 1]), 5, 2, 3, 0.0)
    for u, v in zip(a, b):
        np.testing.assert_array_equal(u, v)
    np.testing.assert_array_equal(a[2], ref.gray_qpsk(a[1]))


@pytest.mark.parametrize("m,n", SHAPES)
@pytest.mark.parametrize("name", ref.DETECTORS)
def test_every_route_recovers_noiseless_symbols(name, m, n):
    rng = np.random.default_rng([m, n])
    h, bits, s, _, _ = ref.draw(rng, 10, m, n, 0.0)
    hp = ref.equivalent(h)
    for b in range(10):
        outcomes, _ = ref.detect(name, hp[b], hp[b] @ s[b], 1e-9)
        for decisions, soft in outcomes:
            np.testing.assert_array_equal(decisions, s[b])
            np.testing.assert_allclose(soft, s[b], atol=1e-6)


@pytest.mark.parametrize("m,n", SHAPES)
def test_groupwise_and_second_symbol_first_routes_agree(m, n):
    hp, _, x, alpha = _instances(m, n, -3.0)
    for b in range(hp.shape[0]):
        pd, ps = _only(ref.detect("proposed", hp[b], x[b], alpha)[0])
        sd, ss = _only(ref.detect("sic_groupwise", hp[b], x[b], alpha)[0])
        np.testing.assert_array_equal(pd, sd)
        np.testing.assert_allclose(ps, ss, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_one_layer_routes_reduce_to_linear_mmse(n):
    hp, _, x, alpha = _instances(1, n, 0.0)
    for b in range(hp.shape[0]):
        ld, ls = _only(ref.detect("linear_mmse", hp[b], x[b], alpha)[0])
        for name in ("proposed", "fixed_order", "sic_groupwise"):
            d, s = _only(ref.detect(name, hp[b], x[b], alpha)[0])
            np.testing.assert_array_equal(d, ld)
            np.testing.assert_allclose(s, ls, atol=1e-12)


def test_symbolwise_ordering_branches_on_the_pair_tie():
    # the two symbols of a layer have equal post-MMSE quality, so the
    # symbol-wise route keeps both orders of the best pair
    hp, _, x, alpha = _instances(2, 2, 0.0, count=5)
    for b in range(hp.shape[0]):
        outcomes, _ = ref.detect("osic_symbolwise", hp[b], x[b], alpha)
        assert len(outcomes) >= 2
        for decisions, _ in outcomes:
            assert np.all(np.abs(np.abs(decisions) - 1.0) < 1e-12)


def test_compare_fails_disagreement_and_excuses_boundary_ties():
    hp, _, x, alpha = _instances(2, 2, 0.0, count=4)
    refs = [ref.detect("proposed", hp[b], x[b], alpha) for b in range(4)]
    dec = np.array([r[0][0][0] for r in refs])
    soft = np.array([r[0][0][1] for r in refs])
    assert ref.compare(dec, soft, refs, 1e-9)[:2] == (0, 0)
    flipped = dec.copy()
    flipped[1, 0] = -flipped[1, 0]
    assert ref.compare(flipped, soft, refs, 1e-9)[:2] == (1, 0)
    tied = [(o, True) if b == 1 else (o, t) for b, (o, t) in enumerate(refs)]
    assert ref.compare(flipped, soft, tied, 1e-9)[:2] == (0, 1)
    nudged = soft.copy()
    nudged[2, 3] += 1e-6
    assert ref.compare(dec, nudged, refs, 1e-9)[:2] == (1, 0)
