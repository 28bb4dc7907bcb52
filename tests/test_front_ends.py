"""Property tests of the batch route's front ends.

`batch.PreparedBlock` builds the recursion's compressed Gram and matched
filter from one product per chunk of instances.  Per instance, the
compressed entries must match the counted scalar `init_gram` and
`matched_filter` to rounding.  The batch
`linear_mmse` estimate and the inverse, both from the block solve on the
dense references' block factor, must match numpy's LAPACK solve and
inverse of the same Gram to within a stated multiple of n eps kappa, and
the inverse must be blockwise Alamouti exactly, as the Gram is.
Channels are drawn i.i.d. and exponentially correlated (Kronecker, rho
up to 0.99), with M up to 8 and alpha down to 1e-9, where the Gram is
nearly singular.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gstbc.alamouti import sbm_from_dense
from gstbc.batch import PreparedBlock, detect_linear_mmse_batch
from gstbc.channel import ChannelMatrix, equivalent_channel_batch
from gstbc.detectors import init_gram, matched_filter


def _exp_corr_root(size, rho):
    """A square root of the exponential correlation matrix rho^|i - j|."""
    k = np.arange(size)
    return np.linalg.cholesky(rho ** np.abs(k[:, None] - k[None, :]))


@st.composite
def blocks(draw):
    """(h, x, alpha): a block of B gains (B, N, 2M) and samples (B, 2N)."""
    m = draw(st.integers(1, 8))
    n = m + draw(st.integers(0, 4))
    count = draw(st.integers(1, 12))
    rho_t, rho_r = draw(st.sampled_from([(0.0, 0.0), (0.9, 0.0), (0.0, 0.99), (0.99, 0.99), (0.7, 0.5)]))
    alpha = 10.0 ** draw(st.floats(-9.0, 0.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = (rng.standard_normal((count, n, 2 * m)) + 1j * rng.standard_normal((count, n, 2 * m))) / np.sqrt(2)
    h = _exp_corr_root(n, rho_r) @ w @ _exp_corr_root(2 * m, rho_t).T
    x = rng.standard_normal((count, 2 * n)) + 1j * rng.standard_normal((count, 2 * n))
    return np.ascontiguousarray(h), x, alpha


@settings(max_examples=60, deadline=None)
@given(blocks())
def test_product_front_end_matches_the_scalar_stages(block):
    h, x, alpha = block
    count = len(h)
    prepared = PreparedBlock(h, x, alpha)
    rbar, z = prepared.compressed
    for b in range(count):
        want = init_gram(ChannelMatrix(h[b]), alpha)
        want_z = matched_filter(ChannelMatrix(h[b]), x[b])
        scale = max(want.diag)
        assert max(abs(d[b] - e) for d, e in zip(rbar.diag, want.diag)) <= 1e-12 * scale, b
        for got, ref in zip(rbar.upper, want.upper):
            assert abs(got.a1[b] - ref.a1) <= 1e-12 * scale and abs(got.a2[b] - ref.a2) <= 1e-12 * scale, b
        # |z_k| <= ||column k|| ||x||, so that bounds the filter's scale
        z_scale = np.sqrt(scale) * np.linalg.norm(x[b])
        assert max(abs(v[b] - e) for v, e in zip(z, want_z)) <= 1e-12 * z_scale, b


# the batch factor and LAPACK each round the Gram and the solve
# differently; a relative difference of up to kappa n eps follows, and
# the largest seen over 2,000 draws was 2.2 n eps kappa for the solve and
# 1.5 n eps kappa for the inverse
FACTOR_ERR = 10.0


@settings(max_examples=60, deadline=None)
@given(blocks())
def test_factor_solve_and_inverse_match_lapack(block):
    h, x, alpha = block
    prepared = PreparedBlock(h, x, alpha)
    soft = detect_linear_mmse_batch(None, None, alpha, prepared=prepared).soft
    q = prepared.dense_inverse
    hp = equivalent_channel_batch(h)
    n = hp.shape[-1]
    for b in range(len(h)):
        g = np.conj(hp[b]).T @ hp[b] + alpha * np.eye(n)
        bound = FACTOR_ERR * n * np.finfo(float).eps * np.linalg.cond(g)
        want = np.linalg.solve(g, np.conj(hp[b]).T @ x[b])
        assert np.linalg.norm(soft[b] - want) <= bound * np.linalg.norm(want), b
        want_q = np.linalg.inv(g)
        assert np.linalg.norm(q[b] - want_q, 2) <= bound * np.linalg.norm(want_q, 2), b
        # blockwise Alamouti, with real scalar diagonal blocks, exactly
        sbm_from_dense(q[b], tol=0)
