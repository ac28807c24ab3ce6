"""Block decomposition tests: pivoting, assembly, block pseudoinverse, tangents."""

import dataclasses

import numpy as np
import pytest

from helpers import chart_positions, make_blocks, perturbed_assemble
from mpjl import chart, differential as df, matcore as mc, suites
from mpjl.errors import IllConditionedPivot, RankMismatch, ShapeMismatch


def test_decompose_pivots_to_largest_entry():
    b = chart.decompose(np.array([[1.0, 2.0], [3.0, 6.0]]), 1)
    assert b.x11[0, 0] == 6.0
    np.testing.assert_allclose(chart.assemble(b), [[1.0, 2.0], [3.0, 6.0]], rtol=1e-12)


def test_decompose_full_rank_square():
    rng = mc.make_rng(20)
    x = mc.random_rank_q(3, 3, 3, rng)
    b = chart.decompose(x, 3)
    assert b.x12.shape == (3, 0)
    assert b.x21.shape == (0, 3)
    np.testing.assert_allclose(chart.assemble(b), x, rtol=1e-12, atol=1e-14)


def test_decompose_moves_nonzero_into_pivot():
    b = chart.decompose(np.array([[0.0, 1.0], [0.0, 2.0]]), 1)
    assert b.x11[0, 0] == 2.0


def test_decompose_rank_mismatch():
    with pytest.raises(RankMismatch):
        chart.decompose(np.array([[1.0, 2.0], [3.0, 6.0]]), 2)


def test_decompose_ill_conditioned_pivot():
    x = np.diag([1.0, 1e-9, 0.0])
    with pytest.raises(IllConditionedPivot):
        chart.decompose(x, 2)


@pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6])
def test_pivot_cap_splits_diagonal_blocks_at_cond_1e8(factor):
    # A diagonal X11 of condition 1e8 (1 -+ 1e-6) passes (fails) the pivot
    # test when a chart is built.
    small = 1.0 / (chart.PIVOT_COND_CAP * factor)
    x = np.diag([1.0, small])
    if factor < 1:
        assert np.array_equal(chart.decompose(x, 2).x11, x)
    else:
        with pytest.raises(IllConditionedPivot, match=r"condition 1\.000e\+08 > 1e\+08"):
            chart.decompose(x, 2)


def test_x22_formula_forced():
    b = make_blocks([[1.0]], [[2.0]], [[3.0]])
    np.testing.assert_allclose(chart.x22_from_blocks(b), [[6.0]])


def test_x22_empty_when_full_column_rank():
    x = mc.random_rank_q(5, 2, 2, mc.make_rng(21))
    b = chart.decompose(x, 2)
    assert chart.x22_from_blocks(b).shape == (3, 0)


def test_x22_gives_rank_q_assembly():
    rng = mc.make_rng(22)
    b = make_blocks(
        rng.standard_normal((2, 2)) + 2 * np.eye(2),
        rng.standard_normal((2, 2)),
        rng.standard_normal((2, 2)),
    )
    assert mc.rank_profile(chart.assemble(b)).rank == 2


def test_x22_requires_invertible_x11():
    # A singular X11 is refused when the blocks are built, before any use.
    with pytest.raises(IllConditionedPivot, match="pivot block"):
        make_blocks([[0.0]], [[2.0]], [[3.0]])
    with pytest.raises(IllConditionedPivot, match="pivot block"):
        make_blocks([[1.0, 1.0], [1.0, 1.0 + 1e-9]], np.ones((2, 1)), np.ones((1, 2)))


def test_assemble_matches_outer_product_form():
    # Oracle: the rank-q matrix equals [X11; X21] inv(X11) (X11, X12).
    rng = mc.make_rng(23)
    for _ in range(10):
        q = int(rng.integers(1, 4))
        n = int(rng.integers(q, 7))
        m = int(rng.integers(q, 7))
        x = mc.random_rank_q(n, m, q, rng)
        b = chart.decompose(x, q)
        tall = np.vstack([b.x11, b.x21])
        wide = np.hstack([b.x11, b.x12])
        outer = tall @ np.linalg.solve(b.x11, wide)
        permuted = chart.assemble(b)[np.ix_(b.row_perm, b.col_perm)]
        np.testing.assert_allclose(permuted, outer, rtol=0, atol=1e-12 * np.linalg.norm(x))


def test_assemble_hand_example():
    b = make_blocks([[1.0]], [[2.0]], [[3.0]])
    np.testing.assert_allclose(chart.assemble(b), [[1.0, 2.0], [3.0, 6.0]])


def test_decompose_assemble_roundtrip_sweep():
    rng = mc.make_rng(24)
    for _ in range(25):
        q = int(rng.integers(1, 5))
        n = int(rng.integers(q, 11))
        m = int(rng.integers(q, 11))
        x = mc.random_rank_q(n, m, q, rng)
        b = chart.decompose(x, q)
        err = np.linalg.norm(chart.assemble(b) - x) / np.linalg.norm(x)
        assert err <= 1e-10


def test_pinv_from_blocks_hand_example():
    b = make_blocks([[1.0]], [[2.0]], [[3.0]])
    np.testing.assert_allclose(
        chart.pinv_from_blocks(b), [[0.02, 0.06], [0.04, 0.12]], rtol=1e-12
    )


def test_pinv_from_blocks_full_column_rank_reduction():
    # With X12 empty the closed form must reduce to inv(X'X) X'.
    x = mc.random_rank_q(6, 3, 3, mc.make_rng(25))
    b = chart.decompose(x, 3)
    direct = np.linalg.solve(x.T @ x, x.T)
    np.testing.assert_allclose(chart.pinv_from_blocks(b), direct, rtol=0, atol=1e-10)


def test_pinv_from_blocks_matches_svd_pinv():
    x = mc.random_rank_q(6, 4, 2, mc.make_rng(26))
    y = mc.pinv(x)
    err = np.linalg.norm(chart.pinv_from_blocks(chart.decompose(x, 2)) - y)
    assert err <= 1e-8 * np.linalg.norm(y)


def test_pinv_from_blocks_edge_ranks():
    for n, m, q in [(5, 3, 3), (3, 5, 3), (4, 4, 4)]:
        x = mc.random_rank_q(n, m, q, mc.make_rng(27, n, m))
        y = mc.pinv(x)
        err = np.linalg.norm(chart.pinv_from_blocks(chart.decompose(x, q)) - y)
        assert err <= 1e-8 * np.linalg.norm(y)


def test_blocks_refuse_a_permutation_that_is_not_one():
    # A repeated index left an entry of assemble unwritten (uninitialized
    # memory), and float indices were truncated to integers without a word.
    for perm in ([0, 0], [0.7, 1.2], [1, 2], [True, False]):
        with pytest.raises(ShapeMismatch, match="row_perm must be an integer permutation"):
            make_blocks([[1.0]], [[2.0]], [[3.0]], row_perm=perm)
    with pytest.raises(ShapeMismatch, match="col_perm must be an integer permutation of 0..1"):
        make_blocks([[1.0]], [[2.0]], [[3.0]], col_perm=[1, 1])
    b = make_blocks([[1.0]], [[2.0]], [[3.0]], row_perm=np.array([1, 0], np.uint8))
    assert b.row_perm.dtype == np.intp
    assert np.array_equal(chart.assemble(b), [[3.0, 6.0], [1.0, 2.0]])


def test_tangent_perturbation_hand_values():
    b = make_blocks([[1.0]], [[2.0]], [[3.0]])
    # FD oracle on X22 = x21 x12 / x11 gives dX22/dx11 = -6, dX22/dx12 = 3.
    d11 = chart.tangent_perturbation(b, [[1.0]], [[0.0]], [[0.0]])
    np.testing.assert_allclose(d11, [[1.0, 0.0], [0.0, -6.0]])
    d12 = chart.tangent_perturbation(b, [[0.0]], [[1.0]], [[0.0]])
    np.testing.assert_allclose(d12, [[0.0, 1.0], [0.0, 3.0]])


def test_tangent_perturbation_zero():
    b = make_blocks([[1.0]], [[2.0]], [[3.0]])
    assert np.all(chart.tangent_perturbation(b, [[0.0]], [[0.0]], [[0.0]]) == 0.0)


def test_tangent_perturbation_refuses_misshapen_directions():
    # A transposed or flattened direction used to be reshaped silently into
    # a different direction; every block is held to its own shape, and a
    # stack of directions to one leading shape.
    rng = mc.make_rng(38)
    b = chart.decompose(mc.random_rank_q(5, 4, 2, rng), 2)
    d11, d12, d21 = (rng.standard_normal(shape) for shape in ((2, 2), (2, 2), (3, 2)))
    chart.tangent_perturbation(b, d11, d12, d21)
    with pytest.raises(ShapeMismatch, match="dX21 must be 3x2"):
        chart.tangent_perturbation(b, d11, d12, d21.T)
    with pytest.raises(ShapeMismatch, match="dX12 must be 2x2"):
        chart.tangent_perturbation(b, d11, d12.ravel(), d21)
    with pytest.raises(ShapeMismatch, match=r"dX12 must be 2x2, got \(3, 2, 2\)"):
        chart.tangent_perturbation(b, np.stack([d11] * 2), np.stack([d12] * 3), np.stack([d21] * 2))
    stacked = chart.decompose(mc.random_rank_q(5, 4, 2, rng)[None], 2)
    with pytest.raises(ShapeMismatch, match=r"dX11 must be 1x2x2, got \(2, 2\)"):
        chart.tangent_perturbation(stacked, d11, d12, d21)


def test_tangent_perturbation_stack_of_directions_gives_the_bits_of_each():
    # Leading direction axes (k, [T,] block): each direction, of each slice,
    # with the bits of its own call.
    rng = mc.make_rng(41)
    for n, m, q in [(5, 4, 2), (4, 6, 3), (3, 3, 3), (5, 4, 4), (1, 3, 1)]:
        x = np.array([mc.random_rank_q(n, m, q, rng) for _ in range(3)])
        b = chart.decompose(x, q)
        d = [rng.standard_normal((4, 3) + a.shape[1:]) for a in (b.x11, b.x12, b.x21)]
        stack = chart.tangent_perturbation(b, *d)
        assert stack.shape == (4, 3, n, m)
        for t in range(3):
            one = chart.decompose(x[t], q)
            for c in range(4):
                single = chart.tangent_perturbation(one, *(a[c, t] for a in d))
                assert np.array_equal(stack[c, t], single)
                assert np.array_equal(chart.tangent_perturbation(b, *(a[c] for a in d))[t],
                                      single)


def test_tangent_perturbation_matches_the_solved_product_rule():
    # The three-solve form dX21 X11^-1 X12 - X21 X11^-1 dX11 X11^-1 X12 +
    # X21 X11^-1 dX12 of the product rule, against the chart's W and Z.
    rng = mc.make_rng(42)
    for n, m, q in [(5, 4, 2), (7, 5, 3), (4, 6, 3), (8, 6, 3)]:
        b = chart.decompose(mc.random_rank_q(n, m, q, rng), q)
        d11, d12, d21 = (rng.standard_normal(a.shape) for a in (b.x11, b.x12, b.x21))
        solve = np.linalg.solve
        x22 = (d21 @ solve(b.x11, b.x12) - b.x21 @ solve(b.x11, d11) @ solve(b.x11, b.x12)
               + b.x21 @ solve(b.x11, d12))
        got = chart.tangent_perturbation(b, d11, d12, d21)[np.ix_(b.row_perm, b.col_perm)]
        np.testing.assert_allclose(got[q:, q:], x22, rtol=0, atol=1e-12 * np.abs(x22).max())


def test_tangent_matches_finite_difference_of_assemble():
    rng = mc.make_rng(28)
    h = 1e-5
    for _ in range(10):
        q = int(rng.integers(1, 4))
        n = int(rng.integers(q + 1, 8))
        m = int(rng.integers(q + 1, 8))
        x = mc.random_rank_q(n, m, q, rng)
        b = chart.decompose(x, q)
        d11 = rng.standard_normal((q, q))
        d12 = rng.standard_normal((q, m - q))
        d21 = rng.standard_normal((n - q, q))
        scale = np.sqrt(np.sum(d11**2) + np.sum(d12**2) + np.sum(d21**2))
        d11, d12, d21 = d11 / scale, d12 / scale, d21 / scale
        analytic = chart.tangent_perturbation(b, d11, d12, d21)

        def shifted(sign):
            moved = make_blocks(
                b.x11 + sign * h * d11,
                b.x12 + sign * h * d12,
                b.x21 + sign * h * d21,
                row_perm=b.row_perm, col_perm=b.col_perm,
            )
            return chart.assemble(moved)

        fd = (shifted(+1) - shifted(-1)) / (2 * h)
        assert np.max(np.abs(fd - analytic)) <= 1e-6


def test_tangent_preserves_rank_to_first_order():
    x = mc.random_rank_q(5, 4, 2, mc.make_rng(29))
    b = chart.decompose(x, 2)
    rng = mc.make_rng(30)
    dx = chart.tangent_perturbation(
        b, rng.standard_normal((2, 2)), rng.standard_normal((2, 2)), rng.standard_normal((3, 2))
    )
    dx /= np.linalg.norm(dx)
    t = 1e-6
    s = np.linalg.svd(x + t * dx, compute_uv=False)
    assert s[2] <= 10 * t**2  # second-order leakage only


def test_chart_positions_2x2_rank1():
    b = make_blocks([[1.0]], [[2.0]], [[3.0]])
    assert chart_positions(b).tolist() == [[0, 0], [0, 1], [1, 0]]
    assert len(b) == 3


def test_chart_is_its_blocks_and_permutations():
    fields = [f.name for f in dataclasses.fields(chart.BlockDecomposition)]
    assert fields == ["x11", "x12", "x21", "row_perm", "col_perm"]
    given = np.array([1, 0, 2])
    b = make_blocks([[1.0]], [[2.0, 0.0]], [[3.0], [0.0]], row_perm=given, col_perm=(2, 0, 1))
    assert (b.q, b.n, b.m) == (1, 3, 3)
    assert b.row_perm.tolist() == [1, 0, 2] and b.col_perm.tolist() == [2, 0, 1]
    assert chart_positions(b).tolist() == [[1, 2], [1, 0], [1, 1], [0, 2], [2, 2]]
    for a in (b.row_perm, b.col_perm):
        assert a.dtype == np.intp and not a.flags.writeable
    given[0] = 2  # the chart keeps its own copy
    assert b.row_perm.tolist() == [1, 0, 2]
    for row_perm, col_perm in [([0, 1], range(3)), (range(3), [0, 1, 2, 3]),
                               ([[0, 1, 2]], range(3))]:
        with pytest.raises(ShapeMismatch):
            make_blocks([[1.0]], [[2.0, 0.0]], [[3.0], [0.0]], row_perm, col_perm)
    stacked = chart.decompose(np.stack([np.eye(3), np.eye(3)[::-1]]), 3)
    assert chart_positions(stacked).shape == (2, 9, 2)
    assert (stacked.q, stacked.n, stacked.m) == (3, 3, 3)
    with pytest.raises(ShapeMismatch):
        chart.BlockDecomposition(stacked.x11, stacked.x12, stacked.x21, range(3), range(3))


def test_chart_positions_full_chart():
    x = mc.random_rank_q(3, 3, 3, mc.make_rng(31))
    b = chart.decompose(x, 3)
    assert len(b) == 9
    assert sorted(chart_positions(b).tolist()) == [[i, j] for i in range(3) for j in range(3)]


def test_chart_positions_count_formula():
    rng = mc.make_rng(32)
    for _ in range(15):
        q = int(rng.integers(1, 5))
        n = int(rng.integers(q, 9))
        m = int(rng.integers(q, 9))
        x = mc.random_rank_q(n, m, q, rng)
        b = chart.decompose(x, q)
        assert len(b) == len(chart_positions(b)) == n * q + m * q - q * q


def test_chart_positions_3x2_rank1_length():
    x = mc.random_rank_q(3, 2, 1, mc.make_rng(33))
    b = chart.decompose(x, 1)
    assert len(b) == 4


def test_tangent_perturbation_tests_x11_once(svd_shapes):
    rng = mc.make_rng(35)
    x = mc.random_rank_q(8, 6, 3, rng)
    svd_shapes.clear()
    b = chart.decompose(x, 3)
    chart.tangent_perturbation(
        b, rng.standard_normal((3, 3)), rng.standard_normal((3, 3)), rng.standard_normal((5, 3))
    )
    # The rank of X and the X11 test when the blocks are built; the
    # tangent's W and Z solves test nothing again.
    assert svd_shapes == [(8, 6), (3, 3)]


def test_blocks_trial_tests_x11_once(svd_shapes):
    [report] = suites._run_stack("blocks", suites.RunConfig(n=8, m=6, q=3, seed=61), range(1))
    assert report.passed and report.inputs["attempt"] == 0
    # One SVD of X gives pinv(X) and the chart's rank test; then the X11
    # test.  Neither assemble, x22_from_blocks nor pinv_from_blocks tests
    # X11 again, and the factored pseudoinverse has nothing else to test.
    # The trial is checked as a stack of one.
    assert svd_shapes == [(1, 8, 6), (1, 3, 3)]


def test_deficient_differential_trial_tests_x11_once(svd_shapes):
    [report] = suites._run_stack("differential", suites.RunConfig(n=7, m=5, q=3, seed=48), range(1))
    assert report.passed and report.inputs["attempt"] == 0
    # One SVD of X gives pinv(X), for the analytic differential, and the
    # chart's rank test; then the X11 test.  The tangent direction tests
    # nothing, and the oracle's tangent of pinv factors nothing.  The trial
    # is checked as a stack of one.
    assert svd_shapes == [(1, 7, 5), (1, 3, 3)]


def test_sandwich_chart_jacobian_tests_no_x11(svd_shapes):
    x = mc.random_rank_q(8, 6, 3, mc.make_rng(36))
    b = chart.decompose(x, 3)
    svd_shapes.clear()
    df.sandwich_chart_jacobian(df.OrthogonalSandwichMap(np.eye(8), np.eye(6)), b, b)
    # X11 was tested when b was built; the exact tangents move no point, so
    # there is nothing to test again.
    assert svd_shapes == []


# ``perturbed_assemble`` (helpers) moves the free blocks by
# ``helpers.moved_blocks``, the chart arithmetic of the complex step, with
# real or complex deltas, split by ``chart._delta_blocks``.

def test_perturbed_assemble_moves_each_chart_position():
    # Oracle: scatter the deltas to their chart positions, read the free
    # blocks back in permuted coordinates, and assemble from scratch.
    rng = mc.make_rng(37)
    for n, m, q in [(2, 2, 1), (5, 4, 2), (4, 6, 3), (3, 3, 3)]:
        x = mc.random_rank_q(n, m, q, rng)
        b = chart.decompose(x, q)
        deltas = 1e-3 * rng.standard_normal(len(b))
        full = np.zeros((n, m))
        full[tuple(chart_positions(b).T)] = deltas
        dp = full[np.ix_(b.row_perm, b.col_perm)]
        moved = make_blocks(
            b.x11 + dp[:q, :q], b.x12 + dp[:q, q:], b.x21 + dp[q:, :q],
            row_perm=b.row_perm, col_perm=b.col_perm,
        )
        assert np.array_equal(perturbed_assemble(b, deltas), chart.assemble(moved))


def _same_bits(a, b):
    # Equal values and equal signs of zero.
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_perturbed_assemble_stack_matches_rows():
    rng = mc.make_rng(38)
    for n, m, q in [(2, 2, 1), (5, 4, 2), (4, 6, 3), (3, 3, 3), (5, 4, 4), (1, 3, 1), (8, 6, 3)]:
        if q < m:  # a last column of -0.0 keeps the rank
            x = np.hstack([mc.random_rank_q(n, m - 1, q, rng), np.full((n, 1), -0.0)])
        else:
            x = mc.random_rank_q(n, m, q, rng)
        b = chart.decompose(x, q)
        deltas = 1e-3 * rng.standard_normal((5, len(b)))
        deltas[1] = 0.0
        deltas[2, ::2] = -0.0
        stack = perturbed_assemble(b, deltas)
        assert stack.shape == (5, n, m)
        assert _same_bits(perturbed_assemble(b, deltas.tolist()), stack)
        for row, point in zip(deltas, stack):
            assert _same_bits(point, perturbed_assemble(b, row))


def test_perturbed_assemble_keeps_complex_deltas():
    # A complex step i h e through the chart: the real part is the base
    # point, and the imaginary part over h the tangent along e.
    rng = mc.make_rng(40)
    b = chart.decompose(mc.random_rank_q(5, 4, 2, rng), 2)
    d = [rng.standard_normal(a.shape) for a in (b.x11, b.x12, b.x21)]
    deltas = np.concatenate([a.T.ravel() for a in d])  # chart order: column-major blocks
    h = 1e-20
    point = perturbed_assemble(b, 1j * h * deltas)
    assert point.dtype == complex
    np.testing.assert_allclose(point.real, chart.assemble(b), rtol=0, atol=1e-15)
    tangent = chart.tangent_perturbation(b, *d)
    np.testing.assert_allclose(point.imag / h, tangent, rtol=0, atol=1e-13)


def test_perturbed_assemble_rejects_wrong_delta_shapes():
    x = mc.random_rank_q(4, 3, 2, mc.make_rng(39))
    b = chart.decompose(x, 2)
    k = len(b)
    for shape in [(k + 1,), (2, k - 1), (2, 2, k), ()]:
        with pytest.raises(ShapeMismatch):
            perturbed_assemble(b, np.zeros(shape))
