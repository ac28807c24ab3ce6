"""Differential, Jacobian-operator and chart-Jacobian tests against forward-mode tangent,
complex-step, exact-tangent and finite-difference oracles."""

import tracemalloc

import numpy as np
import pytest

from helpers import (
    Sandwich, broadcast_pair_operator, chart_positions, commutation_matrix, fd_chart_jacobian,
    fd_step, jacobian_operator, make_blocks, pair_factors, pinv_chart_log_det, pinv_complex_step,
    random_rank_q, random_stiefel, vec,
)
from mpjl import chart, matcore as mc, measures as ms, suites
from mpjl import differential as df
from mpjl.errors import RankMismatch
from mpjl.reports import dumps_canonical


def _unit(a):
    return a / np.linalg.norm(a)


def _chart_derivative(x, q, dx):
    # The differential suite's oracle: dX read in X's chart.
    b = chart.decompose(x, q)
    return chart.pinv_chart_derivative(b, b.coordinates(dx))


def test_differential_of_identity_perturbation():
    # Invertible case: projector terms vanish, dY = -inv(X) dX inv(X).
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    np.testing.assert_allclose(df.pinv_differential(np.eye(2), e11), -e11, atol=1e-14)


def test_differential_full_column_rank_vs_fd():
    rng = mc.make_rng(40)
    x = random_rank_q(3, 2, 2, rng)
    dx = _unit(rng.standard_normal((3, 2)))
    analytic = df.pinv_differential(x, dx)
    oracle = _chart_derivative(x, 2, dx)
    assert np.linalg.norm(analytic - oracle) <= 1e-12 * np.linalg.norm(analytic)


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
    x = random_rank_q(4, 3, 2, rng)
    d1 = rng.standard_normal((4, 3))
    d2 = rng.standard_normal((4, 3))
    combo = df.pinv_differential(x, 2.5 * d1 - 0.75 * d2)
    split = 2.5 * df.pinv_differential(x, d1) - 0.75 * df.pinv_differential(x, d2)
    np.testing.assert_allclose(combo, split, rtol=0, atol=1e-12 * np.linalg.norm(split))


def test_operator_scalar():
    op = jacobian_operator(np.array([[1.0]]))
    np.testing.assert_allclose(op, [[-1.0]])


def test_operator_consistent_with_differential():
    rng = mc.make_rng(42)
    x = random_rank_q(3, 2, 2, rng)
    op = jacobian_operator(x)
    for _ in range(10):
        dx = rng.standard_normal((3, 2))
        lhs = op @ vec(dx.T)
        rhs = vec(df.pinv_differential(x, dx))
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_operator_consistency_across_shapes_and_ranks():
    rng = mc.make_rng(43)
    for _ in range(15):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        q = int(rng.integers(1, min(n, m) + 1))
        x = random_rank_q(n, m, q, rng)
        op = jacobian_operator(x)
        dx = rng.standard_normal((n, m))
        lhs = op @ vec(dx.T)
        rhs = vec(df.pinv_differential(x, dx))
        scale = max(np.linalg.norm(rhs), np.linalg.norm(op) * np.linalg.norm(dx))
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale


@pytest.mark.parametrize(
    "n, m, q",
    [(1, 1, 1), (1, 5, 1), (5, 1, 1), (2, 3, 1), (3, 2, 2), (4, 4, 2), (5, 3, 3), (6, 4, 2), (3, 7, 1)],
)
def test_operator_commutation_is_exact_permutation(n, m, q):
    x = random_rank_q(n, m, q, mc.make_rng(100 + 10 * n + m))
    y = mc.pinv(x)
    left_proj, right_proj, yyt, yty = (0.5 * (a + a.T) for a in (
        np.eye(n) - x @ y, np.eye(m) - y @ x, y @ y.T, y.T @ y))
    # K sends vec(dX') to vec(dX): the commutation of m x n matrices.
    formula = -(np.kron(y.T, y) @ commutation_matrix(n, m)) + (
        np.kron(left_proj, yyt) + np.kron(yty, right_proj)
    )
    assert np.array_equal(jacobian_operator(x), formula)


def test_det_operator_factors_no_operator_sized_matrix(svd_shapes):
    n, m = 24, 20
    x = random_rank_q(n, m, m, mc.make_rng(47))
    svd_shapes.clear()
    ms.log_nonfullrank_jacobian_factor(n, m, mc.rank_profile(x).singular_values)
    assert svd_shapes
    assert max(s[0] for s in svd_shapes) <= max(n, m)


def test_determinant_suites_never_build_the_dense_operator():
    # At its peak each check holds less than a tenth of one dense operator's
    # 8 (nm)^2 bytes.
    runs = [("jacobian-full", 32, 24), ("exterior-chain", 24, 16)]
    for suite, n, m in runs:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            result = suites.run_suite(suite, suites.RunConfig(n=n, m=m, trials=1, seed=49))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.all_passed, suite
        assert peak < 0.1 * 8 * (n * m) ** 2, suite


@pytest.mark.parametrize("suite, svds", [("jacobian-full", 1), ("exterior-chain", 1)])
def test_determinant_suites_factor_x_as_often_as_needed(svd_shapes, qr_shapes, suite, svds):
    # Above the FD cross-check size: jacobian-full shares one rank profile
    # of the (T, n, m) stack between both determinants of every trial;
    # exterior-chain takes its rank test and pinv(X) from one thin SVD of
    # the stack.  After the draw's two frames, each takes one QR of the
    # stack of X, for log|X'X| (and exterior-chain for inv(X'X)).
    n, m, trials = 6, 4, 3
    assert n * m > suites.FD_CROSS_CHECK_MAX_ENTRIES
    result = suites.run_suite(suite, suites.RunConfig(n=n, m=m, trials=trials, seed=51))
    assert result.all_passed and [r.inputs["attempt"] for r in result.reports] == [0] * trials
    assert svd_shapes == [(trials, n, m)] * svds
    assert qr_shapes == [(trials, n, m), (trials, m, m), (trials, n, m)]


def test_operator_rank_suite_keeps_dense_rank_oracle(svd_shapes, eigvalsh_shapes, eigh_shapes):
    # The operator is read in X's SVD basis from its factors, its 1x1 and 2x2
    # pair blocks in closed form: one full SVD of each (T, n, m) stack of X,
    # and no eigensolve or SVD of the operator or of any block of it.  Each
    # case runs as one stack: 24x20 too, since no operator is built; 6x5
    # below and at full rank (no pairs outside the q x q block).
    for n, m, q, trials, stacks in ((24, 20, 8, 2, [2]), (6, 5, 2, 3, [3]), (6, 5, 5, 3, [3])):
        svd_shapes.clear()
        cfg = suites.RunConfig(n=n, m=m, q=q, trials=trials, seed=48)
        result = suites.run_suite("operator-rank", cfg)
        assert result.all_passed and [r.inputs["attempt"] for r in result.reports] == [0] * trials
        ranks = [r.values["operator_rank"] for r in result.reports]
        assert ranks == [n * q + m * q - q * q] * trials
        assert svd_shapes == [(t, n, m) for t in stacks]
        assert eigvalsh_shapes == eigh_shapes == []


def test_operator_rank_never_builds_the_dense_operator():
    # 24x20 q=8: at its peak the check holds less than a tenth of one dense
    # operator's 8 (nm)^2 bytes.
    cfg = suites.RunConfig(n=24, m=20, q=8, trials=1, seed=49)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = suites.run_suite("operator-rank", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.all_passed
    assert peak < 0.1 * 8 * (24 * 20) ** 2


def test_operator_rank_leak_reads_0_where_e_vanishes_below_its_rounding():
    # 1x4 at full rank, spectrum (1,): trial 2's E is 6.8e-35 (the dense
    # operator's), far below the rounding of ||S - S0||^2 in its Gram sum,
    # which reads a tiny negative square; the leak reads 0, not NaN.
    cfg = suites.RunConfig(n=1, m=4, q=1, trials=3, seed=3, spectrum=(1.0,))
    result = suites.run_suite("operator-rank", cfg)
    assert result.all_passed
    assert [r.residuals["leak"] for r in result.reports][2] == 0.0
    dumps_canonical(result)  # no NaN reaches the JSON report


def _leaky_reports(monkeypatch, cfg, factor, i, j, size):
    # operator-rank's reports with one factor of S in the basis U kron V
    # (0: P_L, 1: Y'Y, 2: Y Y', 3: P_R) coupled at (i, j) and (j, i) by
    # size times its norm, upstream of every read: the factors stay exactly
    # symmetric, and S with them, and no pair entry moves.
    assert suites.run_suite("operator-rank", cfg).all_passed
    factors = df._pair_factors

    def leaky(x, y):
        stacks = factors(x, y)
        f = stacks[factor // 2][:, factor % 2]
        c = size * np.sqrt((f * f).sum(axis=(-2, -1)))
        f[:, i, j] += c
        f[:, j, i] += c
        return stacks

    monkeypatch.setattr(df, "_pair_factors", leaky)
    return suites.run_suite("operator-rank", cfg).reports


def test_operator_rank_leak_catches_an_off_block_pair(monkeypatch):
    # P_L coupled at rows 0 and 4 couples col(X) kron row(X) to null(X')
    # kron row(X), through (Y Y')[0, 0] = 1/d_1^2; only the leak can see it.
    cfg = suites.RunConfig(n=5, m=4, q=2, trials=3, seed=52)
    for report in _leaky_reports(monkeypatch, cfg, 0, 0, 4, 1e-6):
        residuals, tolerances = report.residuals, report.tolerances
        assert not report.passed
        assert residuals["leak"] > 1e3 * tolerances["leak"]


def test_operator_rank_leak_catches_an_off_pattern_pair_inside_a_block(monkeypatch):
    # Y Y' coupled at rows 2 and 3 couples (l, 2) to (l, 3) for l >= q,
    # through P_L[l, l] = 1: both lie in null(X') kron null(X), so a split
    # into the four subspace blocks would keep the pair inside a block; it is
    # off the pattern of the 1x1 and 2x2 pair blocks, and the leak sees it.
    # The pair also maps that normal space to nonzero images, and the
    # annihilation sees it too.
    cfg = suites.RunConfig(n=5, m=4, q=2, trials=3, seed=52)
    for report in _leaky_reports(monkeypatch, cfg, 2, 2, 3, 1e-6):
        residuals, tolerances = report.residuals, report.tolerances
        assert not report.passed
        assert residuals["leak"] > 1e3 * tolerances["leak"]
        assert residuals["annihilation"] > 1e3 * tolerances["annihilation"]
        assert report.values["operator_rank"] == report.values["expected_rank"]


@pytest.mark.parametrize("spectrum", [(1.2e69, 6e68), (5e-76, 4.8e-77)])
def test_operator_rank_sees_a_leak_at_the_float_range_edges(monkeypatch, spectrum):
    # Just inside either bound of the refused spectra the norms stay
    # positive and finite: a clean run passes with finite residuals, and an
    # off-pattern pair of 1e-8 ||Y Y'|| still fails the leak, so no residual
    # reads 0 by underflow.
    cfg = suites.RunConfig(n=6, m=5, q=2, trials=2, seed=3, spectrum=spectrum)
    for report in suites.run_suite("operator-rank", cfg).reports:
        assert np.all(np.isfinite(list(report.residuals.values())))
    for report in _leaky_reports(monkeypatch, cfg, 2, 2, 4, 1e-8):
        assert not report.passed
        assert report.residuals["leak"] > 1e2 * report.tolerances["leak"]


@pytest.mark.parametrize("n, m, q", [(5, 4, 3), (3, 6, 1), (4, 4, 4), (6, 2, 2)])
@pytest.mark.parametrize("noise", [0.0, 1e-9, 1e-4])
def test_pair_blocks_give_the_spectrum_within_the_weyl_bound(n, m, q, noise):
    # A stack of rotated pairs (U'XV, V'YU), each entry moved by noise times
    # a Gaussian, so S leaves the pair pattern by E: the values read from the
    # pair blocks are the absolute eigenvalues of the dense S (eigvalsh)
    # within the ||E||_F that pair_block_profile reads, by Weyl's inequality.
    t, rng = 3, mc.make_rng(53, n, m, q)
    _, (x, y) = _pairs(rng, n, m, q, 1e2, t)
    x, y = (a + noise * np.max(np.abs(a)) * rng.standard_normal(a.shape) for a in (x, y))
    info, (norm, _, leak) = df.pair_block_profile(x, y, q)
    whole = broadcast_pair_operator(x, y).reshape(t, n * m, n * m)
    assert noise == 0.0 or np.all(leak > 1e-3 * noise * norm)
    for values, op, bound in zip(info.singular_values, whole, leak + 1e-14 * norm):
        exact = np.sort(np.abs(np.linalg.eigvalsh(op)))[::-1]
        assert np.max(np.abs(values - exact)) <= bound


# The shapes of the cond(X) sweep, 160 reports per condition number.
SWEEP_SHAPES = [(4, 3, 2), (5, 5, 3), (6, 5, 2), (6, 5, 4), (8, 6, 3), (8, 6, 5), (12, 10, 6),
                (24, 20, 8)]


def _sweep_reports(n, m, q, cond):
    spectrum = tuple(np.geomspace(1.0, 1.0 / cond, q))
    for seed in range(1, 6):
        cfg = suites.RunConfig(n=n, m=m, q=q, trials=4, seed=seed, spectrum=spectrum)
        yield from suites.run_suite("operator-rank", cfg).reports


def _pairs(rng, n, m, q, cond, t):
    # The plain pair (X, pinv X) and the rotated pair (U'XV, V'YU) that
    # operator-rank builds, of a stack of t slices of spectrum
    # geomspace(1, 1/cond, q).
    d = np.geomspace(1.0, 1.0 / cond, q)
    x = mc.rank_q_from_draw(np.stack([d] * t), rng.standard_normal((t, n, q)),
                            rng.standard_normal((t, m, q)))
    u, _, vt, y = mc.svd_full(x)
    return (x, y), (u.swapaxes(-1, -2) @ x @ vt.swapaxes(-1, -2), vt @ y @ u)


@pytest.mark.parametrize("cond", [1.0, 1e3, 1e5])
@pytest.mark.parametrize("n, m, q", SWEEP_SHAPES)
def test_pair_operator_is_exactly_symmetric(n, m, q, cond):
    # The four factors that pair_block_profile reads are symmetrized, and the
    # product term pairs with its transpose entry by entry, so S == S' holds
    # in floating point with no tolerance: of the pair (X, pinv(X)) and of the
    # rotated pair that operator-rank reads (see ``_check_operator_rank``).
    # cond = 1 is a spectrum of ties, which the request gap refuses, so X is
    # built from its draw directly.
    for x, y in _pairs(mc.make_rng(60, n, m, q), n, m, q, cond, 2):
        for factor in df._pair_factors(x, y):
            assert np.array_equal(factor, factor.swapaxes(-1, -2))
        op = broadcast_pair_operator(x, y).reshape(2, n * m, n * m)
        assert np.array_equal(op, op.swapaxes(-1, -2))


@pytest.mark.parametrize("cond", [1.0, 1e3, 1e5])
@pytest.mark.parametrize("n, m, q", SWEEP_SHAPES)
def test_pair_operator_keeps_the_bits_of_the_broadcast_build(n, m, q, cond):
    # The dense S that the tests build reads the operator that pair_block_profile
    # reads: _pair_factors stacks (P_L, Y'Y) and (Y Y', P_R) with the bits of the
    # broadcast build's own factors.  And the broadcast build gives a slice of a
    # stack of several the bits of that slice alone (a 2-D pair or a stack of one).
    for t in (1, 3):
        for x, y in _pairs(mc.make_rng(61, n, m, q, t), n, m, q, cond, t):
            (lb, ar), (left, right, yyt, yty) = df._pair_factors(x, y), pair_factors(x, y)
            for got, want in zip([*np.moveaxis(lb, -3, 0), *np.moveaxis(ar, -3, 0)],
                                 (left, yty, yyt, right)):
                assert got.tobytes() == want.tobytes()
            whole = broadcast_pair_operator(x, y)
            for i in range(t):
                for a, b in [(x[i], y[i]), (x[i:i + 1], y[i:i + 1])]:
                    alone = broadcast_pair_operator(a, b)
                    assert alone.tobytes() == whole[i].tobytes()


@pytest.mark.parametrize("n, m, q", SWEEP_SHAPES)
def test_operator_rank_passes_at_cond_1e3(n, m, q):
    assert all(report.passed for report in _sweep_reports(n, m, q, 1e3))


@pytest.mark.parametrize("n, m, q", SWEEP_SHAPES)
def test_operator_rank_passes_at_cond_1e4(n, m, q):
    assert all(report.passed for report in _sweep_reports(n, m, q, 1e4))


@pytest.mark.parametrize("n, m, q", SWEEP_SHAPES)
def test_operator_rank_pseudo_det_holds_at_cond_1e5(n, m, q):
    # At cond(X) = 1e5 the leak may fail honestly; the pair blocks still
    # give the pseudo-determinant within its tolerance, and the normal
    # block, read in X's SVD basis with no projector rounded at
    # eps * cond(X), is still annihilated within its own.
    for report in _sweep_reports(n, m, q, 1e5):
        for key in ("pseudo_det", "annihilation"):
            assert report.residuals[key] <= report.tolerances[key]


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
    dumps_canonical(result)  # no NaN or inf reaches the JSON report


def test_operator_rank_law_hand_case():
    op = jacobian_operator(np.array([[1.0, 2.0], [3.0, 6.0]]))
    assert mc.rank_profile(op).rank == 3  # nq + mq - q^2 = 2 + 2 - 1


def test_operator_rank_law_sweep():
    rng = mc.make_rng(44)
    for _ in range(15):
        q = int(rng.integers(1, 4))
        n = int(rng.integers(q + 1, 7))
        m = int(rng.integers(q + 1, 7))
        x = random_rank_q(n, m, q, rng)
        op = jacobian_operator(x)
        assert mc.rank_profile(op).rank == n * q + m * q - q * q


def test_operator_annihilates_normal_directions():
    rng = mc.make_rng(45)
    for _ in range(10):
        q = int(rng.integers(1, 4))
        n = int(rng.integers(q + 1, 7))
        m = int(rng.integers(q + 1, 7))
        x = random_rank_q(n, m, q, rng)
        y = mc.pinv(x)
        op = jacobian_operator(x)
        v = rng.standard_normal((n, m))
        projected = (np.eye(n) - x @ y) @ v @ (np.eye(m) - y @ x)
        image = op @ vec(projected.T)
        scale = np.linalg.norm(op) * np.linalg.norm(projected)
        assert np.linalg.norm(image) <= 1e-12 * scale


def test_det_operator_scalar():
    x = np.array([[2.0]])
    log_det_op = ms.log_nonfullrank_jacobian_factor(1, 1, mc.rank_profile(x).singular_values)
    assert abs(log_det_op - np.log(0.25)) <= 1e-15


def test_det_operator_matches_closed_form_tall():
    x = random_rank_q(4, 2, 2, mc.make_rng(46))
    log_det_op = ms.log_nonfullrank_jacobian_factor(4, 2, mc.rank_profile(x).singular_values)
    closed = -4.0 * np.linalg.slogdet(x.T @ x)[1]
    assert abs(log_det_op - closed) <= 1e-8


def test_det_operator_vanishes_when_deficient():
    # Below full rank the operator has fewer than nm nonzero singular values:
    # its determinant is 0, and only its pseudo-determinant has a log, the
    # factor of X's one retained singular value.
    x = np.array([[1.0, 2.0], [3.0, 6.0]])
    dense = mc.rank_profile(jacobian_operator(x))
    info = mc.rank_profile(x)
    assert dense.rank == 3 and info.rank == 1
    log_pdet = np.log(dense.singular_values[:3]).sum()
    log_factor = ms.log_nonfullrank_jacobian_factor(2, 2, info.singular_values[:1])
    assert abs(log_pdet - log_factor) <= 1e-13 * abs(log_factor)


def _closed_form_log_det(x):
    return df.log_jacobian_det_full_rank(x, mc.rank_profile(x))


def test_det_full_rank_examples():
    assert _closed_form_log_det(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])) == 0.0
    x = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    assert abs(_closed_form_log_det(x) - np.log(36.0 ** -3)) <= 1e-14


def test_det_full_rank_square_branches_agree():
    x = random_rank_q(4, 4, 4, mc.make_rng(47))
    value = _closed_form_log_det(x)
    alt = -8.0 * np.linalg.slogdet(x)[1]
    assert abs(value - alt) <= 1e-10 * max(1.0, abs(alt))


def test_det_full_rank_rejects_deficient():
    with pytest.raises(RankMismatch):
        _closed_form_log_det(np.array([[1.0, 2.0], [3.0, 6.0]]))


def test_det_agreement_both_orientations():
    rng = mc.make_rng(48)
    cases = []
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        cases.append(random_rank_q(n, m, min(n, m), rng))
    # exp(-603.0) at 32x24, where a running product of d_i^-64 underflows to 0.
    d = np.concatenate([np.linspace(2.5, 1.8, 16), np.linspace(0.95, 0.5, 8)])
    cases.append(random_rank_q(32, 24, 24, mc.make_rng(3), spectrum=d))
    for x in cases:
        info = mc.rank_profile(x)
        log_det_op = ms.log_nonfullrank_jacobian_factor(*x.shape, info.singular_values)
        closed = df.log_jacobian_det_full_rank(x, info)
        assert np.isfinite(log_det_op)
        assert abs(log_det_op - closed) <= 1e-8


def test_fd_differential_identity_case():
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    oracle = _chart_derivative(np.eye(2), 2, e11)
    assert np.max(np.abs(oracle + e11)) <= 1e-15


def test_fd_matches_analytic_full_rank_sweep():
    rng = mc.make_rng(49)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        x = random_rank_q(n, m, min(n, m), rng)
        dx = _unit(rng.standard_normal((n, m)))
        analytic = df.pinv_differential(x, dx)
        oracle = _chart_derivative(x, min(n, m), dx)
        assert np.linalg.norm(analytic - oracle) <= 1e-12 * np.linalg.norm(analytic)


def test_complex_step_differential_factors_no_point(svd_shapes):
    x = random_rank_q(7, 5, 3, mc.make_rng(56))
    rng = mc.make_rng(57)
    b = chart.decompose(x, 3)
    dx = chart.tangent_perturbation(
        b, rng.standard_normal((3, 3)), rng.standard_normal((3, 2)), rng.standard_normal((4, 3))
    )
    svd_shapes.clear()
    oracle = chart.pinv_chart_derivative(b, b.coordinates(_unit(dx)))
    reference = pinv_complex_step(b, b.coordinates(_unit(dx)))
    # The tangent, and the complex point of the tests' reference, keep X's
    # chart: no rank test, no pivot test, no SVD.
    assert svd_shapes == []
    analytic = df.pinv_differential(x, _unit(dx))
    for derivative in (oracle, reference):
        assert np.linalg.norm(derivative - analytic) <= 1e-12 * np.linalg.norm(analytic)


def test_projector_differential_stays_symmetric():
    # d(X Y) from the analytic differential must be symmetric: XY is an
    # orthogonal projector along the whole rank-preserving motion.
    rng = mc.make_rng(53)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        q = int(rng.integers(1, min(n, m) + 1))
        x = random_rank_q(n, m, q, rng)
        dx = rng.standard_normal((n, m))
        y = mc.pinv(x)
        dxy = dx @ y + x @ df.pinv_differential(x, dx)
        assert np.max(np.abs(dxy - dxy.T)) <= 1e-10 * max(np.max(np.abs(dxy)), 1.0)


def test_fd_chart_jacobian_identity_map():
    # The FD oracle to its step, and the exact tangent map to the bit.
    x = random_rank_q(4, 3, 2, mc.make_rng(54))
    b = chart.decompose(x, 2)
    jac = fd_chart_jacobian(Sandwich(np.eye(4), np.eye(3)), x, b, b)
    np.testing.assert_allclose(jac, np.eye(len(b)), atol=1e-9)
    assert np.array_equal(chart.sandwich_chart_jacobian(np.eye(4), np.eye(3), b, b), np.eye(len(b)))


class _Doubling:
    """X -> 2 X."""

    def apply(self, x):
        return 2.0 * x


def test_fd_chart_jacobian_scaling_map():
    x = np.array([[1.0, 2.0], [3.0, 6.0]])
    in_chart = chart.decompose(x, 1)
    out_chart = chart.decompose(2 * x, 1)
    jac = fd_chart_jacobian(_Doubling(), x, in_chart, out_chart)
    assert abs(abs(np.linalg.det(jac)) - 8.0) <= 1e-6


class _Pinv:
    """X -> pinv(X)' by one stacked SVD, truncated to ``rank`` triplets at every
    point: a map the FD chart Jacobian can take, but not the chart tangent.
    pinv(X)' has X's shape, and X's chart is a chart of it (see ``chart``)."""

    def __init__(self, rank):
        self.rank = rank

    def apply(self, x):
        return mc._pinv_from_svd(*np.linalg.svd(x, full_matrices=False), self.rank).swapaxes(-1, -2)


def test_fd_convergence_order():
    # Central scheme: halving h should reduce the error of the FD chart
    # Jacobian of pinv about 4x, against the tangent's.
    x = random_rank_q(4, 3, 2, mc.make_rng(52))
    b = chart.decompose(x, 2)
    exact = chart.pinv_chart_jacobian(b)
    errors = []
    for h in (1e-3, 5e-4, 2.5e-4):
        fd = fd_chart_jacobian(_Pinv(2), x, b, b, step=h)
        errors.append(np.linalg.norm(fd - exact))
    assert 2.5 <= errors[0] / errors[1] <= 6.0
    assert 2.5 <= errors[1] / errors[2] <= 6.0


def test_fd_chart_jacobian_pinv_full_rank():
    x = random_rank_q(3, 2, 2, mc.make_rng(55))
    b = chart.decompose(x, 2)
    assert len(b) == 6
    fd = fd_chart_jacobian(_Pinv(2), x, b, b)
    closed = _closed_form_log_det(x)
    assert abs(np.linalg.slogdet(fd)[1] - closed) <= 1e-4


@pytest.mark.parametrize("n, m, q",
                         [(2, 2, 1), (3, 2, 2), (4, 3, 2), (3, 5, 2), (6, 5, 3), (4, 4, 4)])
def test_pinv_chart_jacobian_matches_fd_and_the_area_formula(n, m, q):
    # Entry by entry against central FD of the SVD pseudoinverse, transposed and read
    # at X's chart positions, and in log|det| against -2(n+m-q) sum log d.
    rng = mc.make_rng(61, n, m, q)
    for _ in range(3):
        x = random_rank_q(n, m, q, rng)
        b = chart.decompose(x, q)
        jac = chart.pinv_chart_jacobian(b)
        fd = fd_chart_jacobian(_Pinv(q), x, b, b)
        assert np.max(np.abs(jac - fd)) <= 1e-7 * np.max(np.abs(jac))
        want, size = pinv_chart_log_det(x, q)
        assert abs(np.linalg.slogdet(jac)[1] - want) <= 1e-13 * max(size, 1.0)


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
    if isinstance(f, _Pinv):
        u, s, vt = np.linalg.svd(point, full_matrices=False)
        return ((vt[: f.rank].T / s[: f.rank]) @ u[:, : f.rank].T).T
    return f.h @ point @ f.qmat


def _per_point_fd_chart_jacobian(f, x, in_chart, out_chart):
    # Oracle of the stacked fd_chart_jacobian: two evaluations per column.
    h = fd_step(x)
    jac = np.empty((len(out_chart), len(in_chart)))
    out_rows, out_cols = chart_positions(out_chart).T
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
    # The stacked FD oracle, whose points move by the complex step's
    # helpers.moved_blocks, gives the bits of independently assembled points.
    rng = mc.make_rng(56, n, m, q)
    for trial in range(3):
        x = random_rank_q(n, m, q, rng)
        if trial == 0 and q < m:  # a last column of -0.0 keeps the rank
            x = np.hstack([random_rank_q(n, m - 1, q, rng), np.full((n, 1), -0.0)])
        in_chart = chart.decompose(x, q)
        sandwich = Sandwich(random_stiefel(n, n, rng), random_stiefel(m, m, rng))
        for f, out_chart in [(_Pinv(q), in_chart),
                             (sandwich, chart.decompose(sandwich.apply(x), q))]:
            assert _same_bits(
                fd_chart_jacobian(f, x, in_chart, out_chart),
                _per_point_fd_chart_jacobian(f, x, in_chart, out_chart),
            )


@pytest.mark.parametrize("n, m, q", CHART_SHAPES + [(3, 5, 2), (10, 7, 4), (3, 3, 3), (3, 1, 1)])
def test_sandwich_chart_jacobian_matches_fd_and_the_area_formula(n, m, q):
    # Entry by entry against central FD of X -> H X Q, and in log|det|
    # against the area formula V(X's chart) - V(H X Q's chart), on stacks of
    # three, each slice with the bits of a stack of one and of one chart; a full
    # chart (dX22 empty) among them.
    rng = mc.make_rng(63, n, m, q)
    x = np.array([random_rank_q(n, m, q, rng) for _ in range(3)])
    h = mc.orthonormal_frames(rng.standard_normal((3, n, n)))
    qmat = mc.orthonormal_frames(rng.standard_normal((3, m, m)))
    sandwich = Sandwich(h, qmat)
    in_chart, out_chart = chart.decompose(x, q), chart.decompose(sandwich.apply(x), q)
    jac = chart.sandwich_chart_jacobian(h, qmat, in_chart, out_chart)
    assert jac.shape == (3, len(in_chart), len(in_chart))
    fd = fd_chart_jacobian(sandwich, x, in_chart, out_chart)
    assert np.max(np.abs(jac - fd)) <= 1e-8 * np.max(np.abs(jac))
    want = chart.log_chart_volume(in_chart) - chart.log_chart_volume(out_chart)
    np.testing.assert_allclose(np.linalg.slogdet(jac)[1], want, rtol=0, atol=1e-12)
    for t in range(3):
        for at in (slice(t, t + 1), t):  # a stack of one, and one chart
            one_charts = chart.decompose(x[at], q), chart.decompose(h[at] @ x[at] @ qmat[at], q)
            got = chart.sandwich_chart_jacobian(h[at], qmat[at], *one_charts)
            assert _same_bits(jac[t], got[0] if isinstance(at, slice) else got)


@pytest.mark.parametrize("n, m, q", [(4, 3, 2), (3, 5, 2), (5, 4, 1), (3, 3, 3)])
def test_sandwich_chart_jacobian_takes_factors_that_are_not_orthogonal(n, m, q):
    # X -> H X Q is linear for any H and Q: orthogonality is a precondition of
    # the invariance claim (suites.judge_invariance refuses other factors), not
    # of the Jacobian.  Diagonal scalings times Householder reflections, entry
    # by entry against central FD, as a stack and slice by slice.
    rng = mc.make_rng(71, n, m, q)

    def factors(size):
        v = rng.standard_normal((3, size, 1))
        reflection = np.eye(size) - 2.0 * v @ v.swapaxes(-1, -2) / (v.swapaxes(-1, -2) @ v)
        return rng.uniform(0.5, 2.0, (3, size, 1)) * reflection

    x = np.array([random_rank_q(n, m, q, rng) for _ in range(3)])
    h, qmat = factors(n), factors(m)
    with pytest.raises(ValueError, match="left factor deviates from orthogonality"):
        suites.judge_invariance(x, q, h, qmat)
    in_chart, out_chart = chart.decompose(x, q), chart.decompose(h @ x @ qmat, q)
    jac = chart.sandwich_chart_jacobian(h, qmat, in_chart, out_chart)
    fd = fd_chart_jacobian(Sandwich(h, qmat), x, in_chart, out_chart)
    np.testing.assert_allclose(jac, fd, rtol=0, atol=1e-8 * np.max(np.abs(jac)))
    for t in range(3):
        one = Sandwich(h[t], qmat[t])
        charts = chart.decompose(x[t], q), chart.decompose(one.apply(x[t]), q)
        got = chart.sandwich_chart_jacobian(h[t], qmat[t], *charts)
        assert _same_bits(jac[t], got)
        np.testing.assert_allclose(got, fd_chart_jacobian(one, x[t], *charts), rtol=0,
                                   atol=1e-8 * np.max(np.abs(got)))


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
    x = np.hstack([random_rank_q(n, m - 1, q, mc.make_rng(59, n, m)), np.full((n, 1), -0.0)])
    in_chart = chart.decompose(x, q)
    f = _Recording()
    fd_chart_jacobian(f, x, in_chart, in_chart)
    [points] = f.stacks
    k = len(in_chart)
    h = fd_step(x)
    for i in range(k):
        deltas = np.zeros(k)
        deltas[i] = h
        assert _same_bits(points[i], _per_point_assemble(in_chart, deltas))
        deltas[i] = -h
        assert _same_bits(points[k + i], _per_point_assemble(in_chart, deltas))


def test_pinv_chart_jacobian_makes_no_svd_per_point(svd_shapes):
    # Five-trial stacks, one stacked SVD each of X, which gives its rank
    # profile and the rank test of X's chart, then of the pivot blocks.
    # jacobian-full's SVD takes values only; operator-rank's full SVD also
    # gives pinv(X).  Each tests X11 alone: X's chart is a chart of Y', so Y
    # needs no chart, and the tangent moves no point that would be factored
    # or pivot-tested.
    cases = [("jacobian-full", 3, 4, None, [(5, 3, 4), (5, 3, 3)]),
             ("operator-rank", 4, 3, 2, [(5, 4, 3), (5, 2, 2)])]
    for suite, n, m, q, svds in cases:
        svd_shapes.clear()
        cfg = suites.validate_config(suites.RunConfig(n=n, m=m, q=q, trials=5, seed=62), suite)
        assert suites._fd_chart(suite, cfg)
        reports = suites._run_stack(suite, cfg, range(5))
        assert all(r.passed for r in reports)
        assert svd_shapes == svds


def test_full_rank_solves_once_and_never_for_an_empty_block(solve_shapes):
    # A full chart has no Z (n = q) or no W (m = q): a jacobian-full stack solves for the
    # other block alone.
    for n, m, rhs in ((3, 4, (5, 3, 1)), (4, 3, (5, 3, 1))):
        solve_shapes.clear()
        cfg = suites.validate_config(suites.RunConfig(n=n, m=m, trials=5, seed=62),
                                     "jacobian-full")
        assert all(r.passed for r in suites._run_stack("jacobian-full", cfg, range(5)))
        assert solve_shapes == [rhs]


def _check_pinv_chart_jacobian_alone(n, m, q):
    # X's chart alone gives the ([T,] k, k) Jacobian: the rows read pinv(X)' at the
    # chart's own free positions, which the complex step's pinv(X), transposed and
    # read there, holds entry by entry.
    x = np.array([random_rank_q(n, m, q, mc.make_rng(66, n, m, q, t)) for t in range(3)])
    b = chart.decompose(x, q)
    k = len(b)
    jac = chart.pinv_chart_jacobian(b)
    assert jac.shape == (3, k, k) and chart.pinv_chart_jacobian(b[0]).shape == (k, k)
    reference = pinv_complex_step(b, np.broadcast_to(np.eye(k)[:, None], (k, 3, k)))
    want = np.moveaxis(b.coordinates(reference.swapaxes(-1, -2)), 0, -1)
    assert np.max(np.abs(jac - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n, m", [(3, 4), (4, 3), (3, 3), (2, 5)])
def test_full_chart_needs_no_out_chart(n, m):
    _check_pinv_chart_jacobian_alone(n, m, min(n, m))


@pytest.mark.parametrize("n, m", [(3, 4), (4, 3), (3, 3), (2, 5)])
def test_a_deficient_chart_needs_no_out_chart(n, m):
    # Deficient charts as well: Y' has X's W and Z on X's pivots, so no chart of Y.
    for q in range(1, min(n, m)):
        _check_pinv_chart_jacobian_alone(n, m, q)


def test_pinv_chart_jacobian_stack_checks():
    x = np.array([random_rank_q(4, 3, 2, mc.make_rng(58, t)) for t in range(3)])
    jac = chart.pinv_chart_jacobian(chart.decompose(x, 2))
    assert jac.shape == (3, 10, 10)
    for t, one in enumerate(x):
        assert _same_bits(jac[t], chart.pinv_chart_jacobian(chart.decompose(one, 2)))


# n = q (no Z), m = q (no W), n = m = q (neither), and a deficient chart with both.
BRANCH_SHAPES = [(3, 4, 3), (1, 3, 1), (4, 3, 3), (3, 1, 1), (3, 3, 3), (1, 1, 1), (5, 4, 2)]


@pytest.mark.parametrize("n, m, q", BRANCH_SHAPES)
def test_tangent_on_every_block_branch_is_the_complex_step_with_the_bits_of_each_slice(n, m, q):
    # The factored pseudoinverse does work only on the blocks a chart has, and its
    # value alone (pinv_from_blocks) takes no tangent: along the unit directions, which
    # carry no stack axis, and along stacked ones, the tangent is the complex step, and
    # each slice of a stack of three has the bits of a stack of one and of one chart.
    rng = mc.make_rng(65, n, m, q)
    x = np.array([random_rank_q(n, m, q, rng) for _ in range(3)])
    b = chart.decompose(x, q)
    k = len(b)
    jac = chart.pinv_chart_jacobian(b)
    reference = pinv_complex_step(b, np.broadcast_to(np.eye(k)[:, None], (k, 3, k)))
    want = np.moveaxis(b.coordinates(reference.swapaxes(-1, -2)), 0, -1)
    assert np.max(np.abs(jac - want)) <= 1e-12 * np.max(np.abs(want))
    deltas = rng.standard_normal((2, 3, k))
    derivative = chart.pinv_chart_derivative(b, deltas)
    reference = pinv_complex_step(b, deltas)
    assert np.max(np.abs(derivative - reference)) <= 1e-12 * np.max(np.abs(reference))
    value = chart.pinv_from_blocks(b)
    assert np.max(np.abs(value - mc.pinv(x))) <= 1e-12 * np.max(np.abs(value))
    for t in range(3):
        for at in (slice(t, t + 1), t):  # a stack of one, and one chart
            b1 = chart.decompose(x[at], q)
            first = 0 if isinstance(at, slice) else ()
            assert _same_bits(jac[t], chart.pinv_chart_jacobian(b1)[first])
            assert _same_bits(value[t], chart.pinv_from_blocks(b1)[first])
            one = chart.pinv_chart_derivative(b1, deltas[:, at])
            assert _same_bits(derivative[:, t], one.reshape(2, m, n))

