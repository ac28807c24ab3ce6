"""Property sweeps of the closed-form operator spectrum against the dense operator."""

import numpy as np
from hypothesis import example, given, strategies as st

from mpjl import differential as df, matcore as mc, measures


def _case(n, m, q, scale, seed):
    return n, m, q, scale * mc.random_rank_q(n, m, q, mc.make_rng(seed))


@st.composite
def instances(draw):
    """(n, m, q, X): shapes up to 6x6, any rank, spectrum scaled by 1/4 to 4."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    q = draw(st.integers(1, min(n, m)))
    scale = 2.0 ** draw(st.floats(-2.0, 2.0))
    return _case(n, m, q, scale, draw(st.integers(0, 2**31 - 1)))


@given(instances())
@example(_case(1, 5, 1, 0.25, 1))
@example(_case(5, 1, 1, 4.0, 2))
@example(_case(6, 6, 2, 1.0, 3))
def test_operator_spectrum_matches_dense_operator(case):
    n, m, q, x = case
    op = df.jacobian_operator(x)
    info = mc.rank_profile(x)
    spectrum = df.operator_spectrum(x, info)
    assert spectrum.size == n * q + m * q - q * q
    assert spectrum.size == mc.rank_profile(op).rank
    dense = np.linalg.svd(op, compute_uv=False)[: spectrum.size]
    np.testing.assert_allclose(spectrum, dense, rtol=1e-10, atol=0)
    d = info.singular_values[:q]
    factor = measures.nonfullrank_jacobian_factor(n, m, d)
    assert abs(np.prod(spectrum) - factor) <= 1e-10 * factor
    if q == min(n, m):
        det = abs(np.linalg.det(op))
        assert abs(df.jacobian_det_operator(x, info) - det) <= 1e-8 * det
    else:
        assert df.jacobian_det_operator(x, info) == 0.0
