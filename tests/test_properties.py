"""Property sweeps: the closed-form operator spectrum against the dense
operator, the pivots of ``decompose`` against the greedy loop, and the
stacked FD differential against one factorization per point."""

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from mpjl import chart, differential as df, matcore as mc, measures
from mpjl.errors import RankDrift


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


def _greedy_pivots(x, q):
    """Oracle of decompose's permutations: complete pivoting over index lists.

    The largest remaining entry of the eliminated working copy, first in
    row-major order among the remaining rows and columns, becomes the next
    pivot; the remaining rows and columns follow in original order.
    """
    n, m = x.shape
    work = x.copy()
    rows, cols = list(range(n)), list(range(m))
    pivot_rows, pivot_cols = [], []
    for _ in range(q):
        sub = np.abs(work[np.ix_(rows, cols)])
        i, j = divmod(int(np.argmax(sub)), len(cols))
        pr, pc = rows[i], cols[j]
        pivot_rows.append(pr)
        pivot_cols.append(pc)
        rows.remove(pr)
        cols.remove(pc)
        if rows and cols:
            factors = work[np.ix_(rows, [pc])] / work[pr, pc]
            work[np.ix_(rows, cols)] -= factors @ work[np.ix_([pr], cols)]
    return pivot_rows + rows, pivot_cols + cols


def _check_pivots(x, q):
    b = chart.decompose(x, q)
    assert (b.row_perm.tolist(), b.col_perm.tolist()) == _greedy_pivots(x, q)
    xp = x[np.ix_(b.row_perm, b.col_perm)]
    for block, want in [(b.x11, xp[:q, :q]), (b.x12, xp[:q, q:]), (b.x21, xp[q:, :q])]:
        assert block.flags.c_contiguous and np.array_equal(block, want)


@st.composite
def scaled_instances(draw):
    """(X or pinv(X), q): shapes up to 8x8, any rank, spectrum scale 1e-3 to 1e3."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    q = draw(st.integers(1, min(n, m)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    x = scale * mc.random_rank_q(n, m, q, mc.make_rng(draw(st.integers(0, 2**31 - 1))))
    return (mc.pinv(x) if draw(st.booleans()) else x), q


@given(scaled_instances())
def test_decompose_pivots_match_greedy_loop(case):
    _check_pivots(*case)


@st.composite
def integer_products(draw):
    """(A B, q) with small-integer A (n x q) and B (q x m): exact ties everywhere."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    q = draw(st.integers(1, min(n, m)))
    ints = st.integers(-2, 2)
    a = np.array(draw(st.lists(ints, min_size=n * q, max_size=n * q)), float).reshape(n, q)
    b = np.array(draw(st.lists(ints, min_size=q * m, max_size=q * m)), float).reshape(q, m)
    return a @ b, q


@given(integer_products())
@example((np.ones((3, 4)), 1))
@example((np.array([[1.0, 1.0], [1.0, -1.0]]), 2))
@example((np.array([[2.0, -2.0, 0.0], [0.0, 2.0, -2.0], [2.0, 0.0, -2.0]]), 2))
def test_decompose_pivots_match_greedy_loop_on_ties(case):
    x, q = case
    assume(mc.rank_profile(x).rank == q)
    _check_pivots(x, q)


def _fd_pinv_differential_per_point(x, dx, cfg=df.FdConfig()):
    """Oracle of the stacked FD differential: one SVD per evaluation point."""
    info = mc.rank_profile(x)
    q, h = info.rank, cfg.effective_step(x)
    rel_cut = (h / info.singular_values[0]) ** 1.5
    pinvs = []
    for point in (x + h * dx, x - h * dx):
        u, s, vt = np.linalg.svd(point, full_matrices=False)
        if q < min(x.shape) and s[q] > rel_cut * s[0]:
            raise RankDrift(f"sigma[{q}] = {s[q]:.3e}")
        pinvs.append(mc._pinv_from_svd(u, s, vt, q))
    return (pinvs[0] - pinvs[1]) / (2.0 * h)


@given(scaled_instances(), st.integers(0, 2**31 - 1), st.booleans())
def test_fd_differential_stack_matches_per_point(case, seed, tangent):
    # Tangent directions keep the rank; free ones mostly drift on deficient X.
    x, q = case
    rng = mc.make_rng(seed)
    n, m = x.shape
    if tangent:
        b = chart.decompose(x, q)
        dx = chart.tangent_perturbation(
            b, rng.standard_normal((q, q)), rng.standard_normal((q, m - q)),
            rng.standard_normal((n - q, q)),
        )
    else:
        dx = rng.standard_normal((n, m))
    dx /= np.linalg.norm(dx)
    try:
        expected = _fd_pinv_differential_per_point(x, dx)
    except RankDrift:
        with pytest.raises(RankDrift):
            df.fd_pinv_differential(x, dx)
    else:
        assert np.array_equal(df.fd_pinv_differential(x, dx), expected)
