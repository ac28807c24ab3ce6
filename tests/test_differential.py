"""Differential and Jacobian-operator tests against finite-difference oracles."""

import numpy as np
import pytest

from helpers import commutation_matrix, make_blocks
from mpjl import chart, matcore as mc, suites
from mpjl import differential as df
from mpjl.errors import NotFullRank, RankDrift
from mpjl.reports import dumps_canonical


def _unit(a):
    return a / np.linalg.norm(a)


def test_differential_of_identity_perturbation():
    # Invertible case: projector terms vanish, dY = -inv(X) dX inv(X).
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    np.testing.assert_allclose(df.pinv_differential(np.eye(2), e11), -e11, atol=1e-14)


def test_differential_full_column_rank_vs_fd():
    rng = mc.make_rng(40)
    x = mc.random_rank_q(3, 2, 2, rng)
    dx = _unit(rng.standard_normal((3, 2)))
    analytic = df.pinv_differential(x, dx)
    fd = df.fd_pinv_differential(x, dx)
    assert np.linalg.norm(analytic - fd) <= 1e-6 * np.linalg.norm(analytic)


def test_differential_rank_deficient_along_curve():
    # FD along the in-chart curve t -> assemble(X11 + t dX11, ...).
    x = np.array([[1.0, 2.0], [3.0, 6.0]])
    b = chart.decompose(x, 1)
    dx = chart.tangent_perturbation(b, [[1.0]], [[0.0]], [[0.0]])
    analytic = df.pinv_differential(x, dx)

    h = 1e-5

    def curve(t):
        moved = make_blocks(
            b.x11 + t * np.ones((1, 1)), b.x12, b.x21,
            row_perm=b.row_perm, col_perm=b.col_perm,
        )
        return mc.pinv(chart.assemble(moved))

    fd = (curve(h) - curve(-h)) / (2 * h)
    assert np.linalg.norm(analytic - fd) <= 1e-6 * max(np.linalg.norm(analytic), 1.0)


def test_differential_linearity():
    rng = mc.make_rng(41)
    x = mc.random_rank_q(4, 3, 2, rng)
    d1 = rng.standard_normal((4, 3))
    d2 = rng.standard_normal((4, 3))
    combo = df.pinv_differential(x, 2.5 * d1 - 0.75 * d2)
    split = 2.5 * df.pinv_differential(x, d1) - 0.75 * df.pinv_differential(x, d2)
    np.testing.assert_allclose(combo, split, rtol=0, atol=1e-12 * np.linalg.norm(split))


def test_operator_scalar():
    op = df.jacobian_operator(np.array([[1.0]]))
    np.testing.assert_allclose(op, [[-1.0]])


def test_operator_consistent_with_differential():
    rng = mc.make_rng(42)
    x = mc.random_rank_q(3, 2, 2, rng)
    op = df.jacobian_operator(x)
    for _ in range(10):
        dx = rng.standard_normal((3, 2))
        lhs = op @ mc.vec(dx)
        rhs = mc.vec(df.pinv_differential(x, dx))
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_operator_consistency_across_shapes_and_ranks():
    rng = mc.make_rng(43)
    for _ in range(15):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        q = int(rng.integers(1, min(n, m) + 1))
        x = mc.random_rank_q(n, m, q, rng)
        op = df.jacobian_operator(x)
        dx = rng.standard_normal((n, m))
        lhs = op @ mc.vec(dx)
        rhs = mc.vec(df.pinv_differential(x, dx))
        scale = max(np.linalg.norm(rhs), np.linalg.norm(op) * np.linalg.norm(dx))
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale


@pytest.mark.parametrize(
    "n, m, q",
    [(1, 1, 1), (1, 5, 1), (5, 1, 1), (2, 3, 1), (3, 2, 2), (4, 4, 2), (5, 3, 3), (6, 4, 2), (3, 7, 1)],
)
def test_operator_commutation_is_exact_permutation(n, m, q):
    x = mc.random_rank_q(n, m, q, mc.make_rng(100 + 10 * n + m))
    y = mc.pinv(x)
    left_proj = np.eye(n) - x @ y
    right_proj = np.eye(m) - y @ x
    formula = -np.kron(y.T, y) + (
        np.kron(left_proj, y @ y.T) + np.kron(y.T @ y, right_proj)
    ) @ commutation_matrix(m, n)
    assert np.array_equal(df.jacobian_operator(x), formula)


def test_det_operator_factors_no_operator_sized_matrix(svd_shapes):
    n, m = 24, 20
    x = mc.random_rank_q(n, m, m, mc.make_rng(47))
    svd_shapes.clear()
    df.jacobian_det_operator(x, mc.rank_profile(x))
    assert svd_shapes
    assert max(s[0] for s in svd_shapes) <= max(n, m)


def test_determinant_suites_never_build_the_dense_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense Jacobian operator built")

    monkeypatch.setattr(df, "jacobian_operator", refuse)
    runs = [("jacobian-full", 32, 24), ("exterior-chain", 24, 16)]
    for suite, n, m in runs:
        result = suites.run_suite(suite, suites.RunConfig(n=n, m=m, trials=1, seed=49))
        assert result.all_passed, suite


@pytest.mark.parametrize("suite, svds", [("jacobian-full", 1), ("exterior-chain", 2)])
def test_determinant_suites_factor_x_as_often_as_needed(svd_shapes, suite, svds):
    # Above the FD cross-check size: jacobian-full shares one rank profile
    # between both determinants; exterior-chain adds only pinv(X).
    n, m = 6, 4
    assert n * m > suites.FD_CROSS_CHECK_MAX_ENTRIES
    report = suites.run_trial(suite, suites.RunConfig(n=n, m=m, seed=51), 0)
    assert report.passed and report.inputs["attempt"] == 0
    assert svd_shapes == [(n, m)] * svds


def test_operator_rank_suite_keeps_svd_rank_oracle(svd_shapes):
    n, m = 24, 20
    result = suites.run_suite("operator-rank", suites.RunConfig(n=n, m=m, q=8, trials=1, seed=48))
    assert result.reports[0].passed
    assert max(s[0] for s in svd_shapes) == n * m


@pytest.mark.parametrize("scale", [1.0, 0.01])
def test_operator_rank_pseudo_det_stays_finite(scale):
    # prod d^-72 is about e^-1608 for d = 20..13 and e^+1707 for d = 0.2..0.13:
    # out of float range either way, so the residual must be formed from logs.
    spectrum = tuple(scale * v for v in range(20, 12, -1))
    cfg = suites.RunConfig(n=24, m=20, q=8, trials=1, seed=50, spectrum=spectrum)
    result = suites.run_suite("operator-rank", cfg)
    residual = result.reports[0].residuals["pseudo_det"]
    assert result.all_passed
    assert np.isfinite(residual) and residual <= 1e-8
    dumps_canonical(result.to_json())  # no NaN or inf reaches the JSON report


def test_operator_rank_law_hand_case():
    op = df.jacobian_operator(np.array([[1.0, 2.0], [3.0, 6.0]]))
    assert mc.rank_profile(op).rank == 3  # nq + mq - q^2 = 2 + 2 - 1


def test_operator_rank_law_sweep():
    rng = mc.make_rng(44)
    for _ in range(15):
        q = int(rng.integers(1, 4))
        n = int(rng.integers(q + 1, 7))
        m = int(rng.integers(q + 1, 7))
        x = mc.random_rank_q(n, m, q, rng)
        op = df.jacobian_operator(x)
        assert mc.rank_profile(op).rank == n * q + m * q - q * q


def test_operator_annihilates_normal_directions():
    rng = mc.make_rng(45)
    for _ in range(10):
        q = int(rng.integers(1, 4))
        n = int(rng.integers(q + 1, 7))
        m = int(rng.integers(q + 1, 7))
        x = mc.random_rank_q(n, m, q, rng)
        y = mc.pinv(x)
        op = df.jacobian_operator(x)
        v = rng.standard_normal((n, m))
        projected = (np.eye(n) - x @ y) @ v @ (np.eye(m) - y @ x)
        image = op @ mc.vec(projected)
        scale = np.linalg.norm(op) * np.linalg.norm(projected)
        assert np.linalg.norm(image) <= 1e-12 * scale


def test_det_operator_scalar():
    x = np.array([[2.0]])
    assert abs(df.jacobian_det_operator(x, mc.rank_profile(x)) - 0.25) <= 1e-15


def test_det_operator_matches_closed_form_tall():
    x = mc.random_rank_q(4, 2, 2, mc.make_rng(46))
    det_op = df.jacobian_det_operator(x, mc.rank_profile(x))
    closed = abs(np.linalg.det(x.T @ x)) ** -4.0
    assert abs(det_op - closed) <= 1e-8 * closed


def test_det_operator_vanishes_when_deficient():
    x = np.array([[1.0, 2.0], [3.0, 6.0]])
    op = df.jacobian_operator(x)
    scale = mc.rank_profile(op).singular_values[0] ** 4
    assert df.jacobian_det_operator(x, mc.rank_profile(x)) <= 1e-12 * scale


def _closed_form_det(x):
    return df.jacobian_det_full_rank(x, mc.rank_profile(x))


def test_det_full_rank_examples():
    assert _closed_form_det(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])) == 1.0
    x = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    assert abs(_closed_form_det(x) - 36.0 ** -3) <= 1e-20


def test_det_full_rank_square_branches_agree():
    x = mc.random_rank_q(4, 4, 4, mc.make_rng(47))
    value = _closed_form_det(x)
    alt = abs(np.linalg.det(x)) ** -8.0
    assert abs(value - alt) <= 1e-10 * alt


def test_det_full_rank_rejects_deficient():
    with pytest.raises(NotFullRank):
        _closed_form_det(np.array([[1.0, 2.0], [3.0, 6.0]]))


def test_det_agreement_both_orientations():
    rng = mc.make_rng(48)
    cases = []
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        cases.append(mc.random_rank_q(n, m, min(n, m), rng))
    # 1.2662e-262 at 32x24, where a running product of d_i^-64 underflows to 0.
    d = np.concatenate([np.linspace(2.5, 1.8, 16), np.linspace(0.95, 0.5, 8)])
    cases.append(mc.random_rank_q(32, 24, 24, mc.make_rng(3), spectrum=d))
    for x in cases:
        info = mc.rank_profile(x)
        det_op = df.jacobian_det_operator(x, info)
        closed = df.jacobian_det_full_rank(x, info)
        assert det_op > 0.0
        assert abs(det_op - closed) <= 1e-8 * closed


def test_fd_differential_identity_case():
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    fd = df.fd_pinv_differential(np.eye(2), e11)
    assert np.max(np.abs(fd + e11)) <= 1e-9


def test_fd_matches_analytic_full_rank_sweep():
    rng = mc.make_rng(49)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        x = mc.random_rank_q(n, m, min(n, m), rng)
        dx = _unit(rng.standard_normal((n, m)))
        analytic = df.pinv_differential(x, dx)
        fd = df.fd_pinv_differential(x, dx)
        assert np.linalg.norm(analytic - fd) <= 1e-6 * np.linalg.norm(analytic)


def test_fd_differential_factors_each_point_once(svd_shapes):
    x = mc.random_rank_q(7, 5, 3, mc.make_rng(56))
    rng = mc.make_rng(57)
    b = chart.decompose(x, 3)
    dx = chart.tangent_perturbation(
        b, rng.standard_normal((3, 3)), rng.standard_normal((3, 2)), rng.standard_normal((4, 3))
    )
    svd_shapes.clear()
    df.fd_pinv_differential(x, _unit(dx))
    assert svd_shapes == [(7, 5), (2, 7, 5)]  # the base point, then both evaluation points


def test_fd_raises_rank_drift_off_manifold():
    x = mc.random_rank_q(4, 3, 2, mc.make_rng(50))
    dx = _unit(mc.make_rng(51).standard_normal((4, 3)))
    with pytest.raises(RankDrift):
        df.fd_pinv_differential(x, dx)


def test_fd_convergence_order():
    # Central scheme: halving h should reduce the error about 4x.
    rng = mc.make_rng(52)
    x = mc.random_rank_q(4, 3, 3, rng)
    dx = _unit(rng.standard_normal((4, 3)))
    analytic = df.pinv_differential(x, dx)
    errors = []
    for h in (1e-3, 5e-4, 2.5e-4):
        fd = df.fd_pinv_differential(x, dx, df.FdConfig(step=h))
        errors.append(np.linalg.norm(fd - analytic))
    assert 2.5 <= errors[0] / errors[1] <= 6.0
    assert 2.5 <= errors[1] / errors[2] <= 6.0


def test_projector_differential_stays_symmetric():
    # d(X Y) from the analytic differential must be symmetric: XY is an
    # orthogonal projector along the whole rank-preserving motion.
    rng = mc.make_rng(53)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        q = int(rng.integers(1, min(n, m) + 1))
        x = mc.random_rank_q(n, m, q, rng)
        dx = rng.standard_normal((n, m))
        y = mc.pinv(x)
        dxy = dx @ y + x @ df.pinv_differential(x, dx)
        assert np.max(np.abs(dxy - dxy.T)) <= 1e-10 * max(np.max(np.abs(dxy)), 1.0)


def test_fd_chart_jacobian_identity_map():
    x = mc.random_rank_q(4, 3, 2, mc.make_rng(54))
    b = chart.decompose(x, 2)
    identity = df.OrthogonalSandwichMap(np.eye(4), np.eye(3))
    jac = df.fd_chart_jacobian(identity, x, b, b)
    np.testing.assert_allclose(jac, np.eye(len(b)), atol=1e-9)


class _Doubling:
    """X -> 2 X."""

    def apply(self, x):
        return 2.0 * x


def test_fd_chart_jacobian_scaling_map():
    x = np.array([[1.0, 2.0], [3.0, 6.0]])
    in_chart = chart.decompose(x, 1)
    out_chart = chart.decompose(2 * x, 1)
    jac = df.fd_chart_jacobian(_Doubling(), x, in_chart, out_chart)
    assert abs(abs(np.linalg.det(jac)) - 8.0) <= 1e-6


def test_fd_chart_jacobian_rejects_pivot_degeneration():
    # A step that cancels the pivot block's determinant must be refused,
    # not silently differentiated across the singularity.
    from mpjl.errors import ChartInvalid

    x11 = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-5 + 1e-9]])
    b = make_blocks(x11, np.zeros((2, 1)), np.zeros((1, 2)))
    x = chart.assemble(b)
    identity = df.OrthogonalSandwichMap(np.eye(3), np.eye(3))
    with pytest.raises(ChartInvalid):
        df.fd_chart_jacobian(identity, x, b, b, df.FdConfig(step=1e-5))


def test_fd_chart_jacobian_pinv_full_rank():
    x = mc.random_rank_q(3, 2, 2, mc.make_rng(55))
    in_chart = chart.decompose(x, 2)
    assert len(in_chart) == 6
    y = mc.pinv(x)
    out_chart = chart.decompose(y, 2)
    jac = df.fd_chart_jacobian(df.PinvMap(rank=2), x, in_chart, out_chart)
    closed = _closed_form_det(x)
    assert abs(abs(np.linalg.det(jac)) - closed) <= 1e-4 * closed


def _per_point_assemble(b, deltas):
    # The unstacked assembly: blocks moved, X22 solved and np.block placed
    # through the permutations, one evaluation point at a time.
    q, n, m = b.q, b.n, b.m
    x11 = b.x11 + deltas[: q * q].reshape((q, q), order="F")
    x12 = b.x12 + deltas[q * q : q * m].reshape((q, m - q), order="F")
    x21 = b.x21 + deltas[q * m :].reshape((n - q, q), order="F")
    x22 = x21 @ np.linalg.solve(x11, x12) if n > q and m > q else np.zeros((n - q, m - q))
    a = np.empty((n, m))
    a[np.ix_(b.row_perm, b.col_perm)] = np.block([[x11, x12], [x21, x22]])
    return a


def _per_point_apply(f, point):
    if isinstance(f, df.PinvMap):
        u, s, vt = np.linalg.svd(point, full_matrices=False)
        return (vt[: f.rank].T / s[: f.rank]) @ u[:, : f.rank].T
    return f.left @ point @ f.right


def _per_point_fd_chart_jacobian(f, x, in_chart, out_chart):
    # Oracle of the stacked fd_chart_jacobian: two evaluations per column.
    h = df.FdConfig().effective_step(x)
    jac = np.empty((len(out_chart), len(in_chart)))
    out_rows, out_cols = np.array(out_chart.positions).T
    deltas = np.zeros(len(in_chart))
    for k in range(len(in_chart)):
        deltas[k] = h
        plus = _per_point_apply(f, _per_point_assemble(in_chart, deltas))
        deltas[k] = -h
        minus = _per_point_apply(f, _per_point_assemble(in_chart, deltas))
        deltas[k] = 0.0
        jac[:, k] = (plus[out_rows, out_cols] - minus[out_rows, out_cols]) / (2.0 * h)
    return jac


def _same_bits(a, b):
    # Equal values and equal signs of zero.
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


CHART_SHAPES = [(2, 2, 1), (3, 4, 3), (4, 3, 3), (4, 3, 2), (8, 6, 3), (5, 4, 4), (1, 3, 1)]


@pytest.mark.parametrize("n, m, q", CHART_SHAPES)
def test_fd_chart_jacobian_matches_per_point_loop(n, m, q):
    rng = mc.make_rng(56, n, m, q)
    for trial in range(3):
        x = mc.random_rank_q(n, m, q, rng)
        if trial == 0 and q < m:  # a last column of -0.0 keeps the rank
            x = np.hstack([mc.random_rank_q(n, m - 1, q, rng), np.full((n, 1), -0.0)])
        in_chart = chart.decompose(x, q)
        sandwich = df.OrthogonalSandwichMap(mc.random_stiefel(n, n, rng), mc.random_stiefel(m, m, rng))
        for f, y in [(df.PinvMap(rank=q), mc.pinv(x)), (sandwich, sandwich.apply(x))]:
            out_chart = chart.decompose(y, q)
            assert _same_bits(
                df.fd_chart_jacobian(f, x, in_chart, out_chart),
                _per_point_fd_chart_jacobian(f, x, in_chart, out_chart),
            )


class _Recording:
    """X -> X, keeping every stack it maps."""

    def __init__(self):
        self.stacks = []

    def apply(self, x):
        self.stacks.append(x)
        return x


@pytest.mark.parametrize("n, m, q", [s for s in CHART_SHAPES if s[2] < s[1]])
def test_fd_chart_jacobian_evaluates_the_per_point_matrices(n, m, q):
    # Signs of zero included: the -0.0 column of X must come out +0.0 at
    # every point, as the per-point steps of +0.0 left it.
    x = np.hstack([mc.random_rank_q(n, m - 1, q, mc.make_rng(59, n, m)), np.full((n, 1), -0.0)])
    in_chart = chart.decompose(x, q)
    f = _Recording()
    df.fd_chart_jacobian(f, x, in_chart, in_chart)
    [points] = f.stacks
    k = len(in_chart)
    h = df.FdConfig().effective_step(x)
    for i in range(k):
        deltas = np.zeros(k)
        deltas[i] = h
        assert _same_bits(points[i], _per_point_assemble(in_chart, deltas))
        deltas[i] = -h
        assert _same_bits(points[k + i], _per_point_assemble(in_chart, deltas))


def test_fd_chart_jacobian_pinv_factors_one_stack(svd_shapes):
    x = mc.random_rank_q(4, 3, 2, mc.make_rng(57))
    in_chart = chart.decompose(x, 2)
    out_chart = chart.decompose(mc.pinv(x), 2)
    svd_shapes.clear()
    df.fd_chart_jacobian(df.PinvMap(rank=2), x, in_chart, out_chart)
    points = 2 * len(in_chart)
    # Stacked pivot test, one stacked SVD for pinv; the base point's X11
    # was tested when in_chart was built.
    assert svd_shapes == [(points, 2, 2), (points, 4, 3)]


def test_pinv_fixed_rank_stack_checks():
    x = mc.random_rank_q(4, 3, 2, mc.make_rng(58))
    stack = np.stack([x, 2.0 * x, -x])
    got = mc.pinv_fixed_rank(stack, 2)
    assert got.shape == (3, 3, 4)
    for point, y in zip(stack, got):
        assert _same_bits(y, mc.pinv_fixed_rank(point, 2))
    stack[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        mc.pinv_fixed_rank(stack, 2)
    with pytest.raises(ValueError, match="out of range"):
        mc.pinv_fixed_rank(np.stack([x, x]), 4)
