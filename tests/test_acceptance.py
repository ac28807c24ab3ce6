"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output).  Tolerances are pinned here, not configurable; runtime
budgets are asserted alongside the numerical checks.
"""

import time
from contextlib import contextmanager

import numpy as np

from helpers import check, penrose_residuals, random_rank_q
from mpjl import chart, matcore as mc, measures as ms, witnesses as wt
from mpjl import differential as df
from mpjl.cli import main
from mpjl.suites import RunConfig, run_suite

ACCEPTANCE_SEED = 20240915


@contextmanager
def criterion(number, name, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {limit_seconds}s"
    )
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.2f}s)")


def _shape_schedule(count, max_dim, min_dim=1, seed_tag=0):
    """Deterministic (n, m, q) cases covering q = 1..min(n, m) per shape."""
    rng = mc.make_rng(ACCEPTANCE_SEED, seed_tag)
    cases = []
    while len(cases) < count:
        n = int(rng.integers(min_dim, max_dim + 1))
        m = int(rng.integers(min_dim, max_dim + 1))
        for q in range(1, min(n, m) + 1):
            cases.append((n, m, q))
    return cases[:count]


def test_criterion_1_penrose_suite():
    with criterion(1, "penrose residuals <= 1e-10", 5.0):
        cases = _shape_schedule(100, max_dim=12, seed_tag=1)
        assert {q for _, _, q in cases} >= {1, 2, 3, 4, 5}
        for trial, (n, m, q) in enumerate(cases):
            x = random_rank_q(n, m, q, mc.make_rng(ACCEPTANCE_SEED, 1, trial))
            residuals = penrose_residuals(x, mc.pinv(x))
            assert max(residuals) <= 1e-10, (n, m, q, residuals)


def test_criterion_2_block_pseudoinverse():
    with criterion(2, "block pseudoinverse <= 1e-8", 5.0):
        boundary = [(6, 4, 4)] * 10 + [(4, 6, 4)] * 10 + [(5, 5, 5)] * 10
        interior = _shape_schedule(70, max_dim=8, min_dim=2, seed_tag=2)
        for trial, (n, m, q) in enumerate(boundary + interior):
            x = random_rank_q(n, m, q, mc.make_rng(ACCEPTANCE_SEED, 2, trial))
            y = mc.pinv(x)
            err = np.linalg.norm(chart.pinv_from_blocks(chart.decompose(x, q)) - y)
            assert err <= 1e-8 * np.linalg.norm(y), (n, m, q)


def test_criterion_3_differential_vs_fd():
    with criterion(3, "differential vs chart tangent <= 1e-6", 20.0):
        # (a) full rank, arbitrary directions
        for trial in range(100):
            rng = mc.make_rng(ACCEPTANCE_SEED, 3, trial)
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            x = random_rank_q(n, m, min(n, m), rng)
            dx = rng.standard_normal((n, m))
            dx /= np.linalg.norm(dx)
            analytic = df.pinv_differential(x, dx)
            b = chart.decompose(x, min(n, m))
            oracle = chart.pinv_chart_derivative(b, b.coordinates(dx))
            assert np.linalg.norm(analytic - oracle) <= 1e-6 * np.linalg.norm(analytic)
        # (b) rank deficient, tangent directions
        for trial in range(100):
            rng = mc.make_rng(ACCEPTANCE_SEED, 30, trial)
            n = int(rng.integers(2, 9))
            m = int(rng.integers(2, 9))
            q = int(rng.integers(1, min(n, m)))
            x = random_rank_q(n, m, q, rng)
            b = chart.decompose(x, q)
            dx = chart.tangent_perturbation(
                b,
                rng.standard_normal((q, q)),
                rng.standard_normal((q, m - q)),
                rng.standard_normal((n - q, q)),
            )
            dx /= np.linalg.norm(dx)
            analytic = df.pinv_differential(x, dx)
            oracle = chart.pinv_chart_derivative(b, b.coordinates(dx))
            assert np.linalg.norm(analytic - oracle) <= 1e-6 * np.linalg.norm(analytic)


def test_criterion_4_full_rank_jacobian_determinant():
    with criterion(4, "full-rank |det| vs closed form", 60.0):
        runs = [
            RunConfig(n=5, m=3, q=3, trials=25, seed=ACCEPTANCE_SEED),
            RunConfig(n=4, m=2, q=2, trials=25, seed=ACCEPTANCE_SEED + 1),
            RunConfig(n=3, m=5, q=3, trials=25, seed=ACCEPTANCE_SEED + 2),
            RunConfig(n=2, m=4, q=2, trials=25, seed=ACCEPTANCE_SEED + 3),
        ]
        for cfg in runs:
            result = run_suite("jacobian-full", cfg)
            assert result.all_passed
            for report in result.reports:
                assert report.tolerances["operator_vs_formula"] == 1e-8
                assert report.residuals["operator_vs_formula"] <= 1e-8
        # FD chart determinant cross-check at n*m <= 12
        fd_run = run_suite(
            "jacobian-full", RunConfig(n=4, m=3, q=3, trials=10, seed=ACCEPTANCE_SEED + 4)
        )
        assert fd_run.all_passed
        for report in fd_run.reports:
            assert report.tolerances["fd_vs_formula"] == 1e-4
            assert report.residuals["fd_vs_formula"] <= 1e-4


def test_criterion_5_operator_rank_law():
    with criterion(5, "operator rank = nq+mq-q^2 and annihilation", 10.0):
        runs = [
            RunConfig(n=4, m=3, q=2, trials=20, seed=ACCEPTANCE_SEED),
            RunConfig(n=5, m=5, q=3, trials=15, seed=ACCEPTANCE_SEED + 1),
            RunConfig(n=3, m=3, q=1, trials=15, seed=ACCEPTANCE_SEED + 2),
        ]
        total = 0
        for cfg in runs:
            result = run_suite("operator-rank", cfg)
            assert result.all_passed
            for report in result.reports:
                assert report.values["operator_rank"] == report.values["expected_rank"]
                assert report.residuals["annihilation"] <= 1e-12
                assert report.residuals["pseudo_det"] <= 1e-8
            total += len(result.reports)
        assert total == 50


def test_criterion_6_hausdorff_chain():
    with criterion(6, "hausdorff ratio identity <= 1e-10", 1.0):
        # hand-computed anchors
        [anchor] = check("hausdorff", ([[2.0]],), n=2, m=2, tol=1e-10)
        assert abs(anchor.values["log_density_x"] - np.log(2.0)) <= 1e-15
        assert anchor.values["log_jacobian_factor"] == np.log(1.0 / 64.0)
        assert anchor.residuals["identity"] <= 1e-10
        assert abs(ms.log_hausdorff_density(3, 2, [2.0, 1.0]) - np.log(1.5)) <= 1e-15
        [mixed] = check("hausdorff", ([[2.0, 1.0]],), n=3, m=2, tol=1e-10)
        assert mixed.residuals["identity"] <= 1e-10
        # 50 random spectra
        for trial in range(50):
            rng = mc.make_rng(ACCEPTANCE_SEED, 6, trial)
            q = int(rng.integers(1, 5))
            n = int(rng.integers(q, 9))
            m = int(rng.integers(q, 9))
            d = mc.sorted_spectra(rng.uniform(*mc.SPECTRUM_RANGE, size=q))
            [rep] = check("hausdorff", (d[None],), n=n, m=m, tol=1e-10)
            assert rep.residuals["identity"] <= 1e-10


def test_criterion_7_symmetric_inverse_jacobian():
    with criterion(7, "symmetric inverse |S|^-(m+1) vs FD <= 1e-4", 10.0):
        for order in (1, 2, 3, 4):
            result = run_suite(
                "symmetric-inverse",
                RunConfig(n=order, m=order, q=order, trials=20, seed=ACCEPTANCE_SEED + order),
            )
            assert result.all_passed
            for report in result.reports:
                assert report.residuals["fd_mismatch"] <= 1e-4


def test_criterion_8_exterior_chain():
    with criterion(8, "exterior chain residuals", 10.0):
        result = run_suite(
            "exterior-chain", RunConfig(n=5, m=3, q=3, trials=50, seed=ACCEPTANCE_SEED)
        )
        assert result.all_passed
        for report in result.reports:
            assert report.residuals["inverse_identity"] <= 1e-10
            assert report.residuals["determinant_algebra"] <= 1e-12
            assert report.residuals["operator_match"] <= 1e-8


def test_criterion_9_invariance_dichotomy():
    with criterion(9, "invariance: full chart |det|=1, witnesses > 0.05", 30.0):
        runs = [
            RunConfig(n=4, m=4, q=4, trials=15, seed=ACCEPTANCE_SEED),
            RunConfig(n=6, m=5, q=5, trials=10, seed=ACCEPTANCE_SEED + 1),
            RunConfig(n=5, m=6, q=5, trials=10, seed=ACCEPTANCE_SEED + 2),
            RunConfig(n=3, m=2, q=2, trials=15, seed=ACCEPTANCE_SEED + 3),
        ]
        total = 0
        for cfg in runs:
            result = run_suite("invariance", cfg)
            assert result.all_passed
            for report in result.reports:
                assert report.values["deviation"] <= 1e-6
            total += len(result.reports)
        assert total == 50
        witnesses = wt.load_witnesses()
        assert {(w["n"], w["m"], w["q"]) for w in witnesses} == {(2, 2, 1), (3, 2, 1), (3, 3, 2)}
        for w in witnesses:
            first = wt.reproduce(w)
            second = wt.reproduce(w)
            assert first.values["abs_det"] == second.values["abs_det"]  # bit-identical rerun
            assert first.values["abs_det"] == w["abs_det"]  # matches stored fixture
            assert first.values["deviation"] > 0.05


def test_criterion_10_reproducibility(tmp_path):
    with criterion(10, "byte-identical JSON reports", 30.0):
        invocations = [
            ["verify", "differential", "--n", "5", "--m", "3", "--q", "2",
             "--trials", "10", "--seed", "123", "--format", "json"],
            ["verify", "blocks", "--n", "6", "--m", "4", "--q", "3",
             "--trials", "10", "--seed", "456", "--format", "json"],
            ["verify", "invariance", "--n", "3", "--m", "3", "--q", "2",
             "--trials", "5", "--seed", "789", "--format", "json"],
        ]
        for idx, argv in enumerate(invocations):
            p1 = tmp_path / f"run{idx}_a.json"
            p2 = tmp_path / f"run{idx}_b.json"
            assert main(argv + ["--out", str(p1)]) == 0
            assert main(argv + ["--out", str(p2)]) == 0
            assert p1.read_bytes() == p2.read_bytes()
