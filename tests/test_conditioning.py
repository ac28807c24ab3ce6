"""Conditioning sweep: suites at spectra geomspace(1, 1/c, q), seeds 1-3 x 4 trials.

A cell passes when every report of its shape passes.  Cells that still
fail for a known cause are marked ``xfail(strict=True)`` with that cause,
so the mark has to go when the cause is mended.
"""

import numpy as np
import pytest

from mpjl import matcore, measures, suites
from mpjl.reports import TOLERANCES


def _reports(suite, n, m, q, cond):
    spectrum = tuple(np.geomspace(1.0, 1.0 / cond, min(n, m) if q is None else q))
    for seed in (1, 2, 3):
        cfg = suites.RunConfig(n=n, m=m, q=q, trials=4, seed=seed, spectrum=spectrum)
        yield from suites.run_suite(suite, cfg).reports


JACOBIAN_FULL_SHAPES = [(4, 3), (3, 4), (3, 3)]


# fd_vs_formula, the full chart determinant against the closed form, grows
# about a hundredfold per decade of cond(X) while operator_vs_formula stays
# below 2e-9: the chart determinant's rounding carries the error.
CHART_DET_ROUNDING_FULL = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 12: at cond(X) 1e7 fd_vs_formula of the full chart "
                        "determinant reads 2.4e-3 (4x3), 2.5e-3 (3x4) and 2.9e-3 (3x3), "
                        "against 1e-4")


@pytest.mark.parametrize("cond", [1e2, 1e3, 1e4, 1e6,
                                  pytest.param(1e7, marks=CHART_DET_ROUNDING_FULL)])
@pytest.mark.parametrize("n, m", JACOBIAN_FULL_SHAPES)
def test_jacobian_full_chart_det_holds(n, m, cond):
    # The tangent chart determinant has no step to scale with cond(X); at 1e6
    # it was measured up to 6.5e-5 (3x4), against 1e-4.
    for report in _reports("jacobian-full", n, m, None, cond):
        assert report.residuals["fd_vs_formula"] <= report.tolerances["fd_vs_formula"]


@pytest.mark.parametrize("cond", [1e2, 1e3, 1e4, 1e5])
@pytest.mark.parametrize("n, m", JACOBIAN_FULL_SHAPES)
def test_jacobian_full_passes(n, m, cond):
    # Both sides are logs: the closed form 2 sum log|r_ii| of a QR of X (of
    # X' when wide), never det(X'X).  At 1e5 operator_vs_formula was measured
    # up to 3.8e-11, against 1e-8, and fd_vs_formula up to 3.6e-7, against 1e-4.
    assert all(report.passed for report in _reports("jacobian-full", n, m, None, cond))


@pytest.mark.parametrize("cond", [1e2, 1e3, 1e4, 1e5, 1e6, 1e7])
@pytest.mark.parametrize("n, m, q", [(8, 6, 3), (6, 5, 2)])
def test_blocks_passes(n, m, q, cond):
    # The factored block pseudoinverse takes X11 once, never squared: pinv_blocks
    # was measured up to 2.5e-10 at 1e6 and 1.5e-9 at 1e7, against 1e-8, and
    # roundtrip at or below 2.0e-16.
    assert all(report.passed for report in _reports("blocks", n, m, q, cond))


@pytest.mark.parametrize("cond", [1e2, 1e3, 1e4, 1e5, 1e6, 1e7])
@pytest.mark.parametrize("n, m, q", [(7, 5, 3), (6, 4, 2), (5, 5, None)])
def test_differential_passes(n, m, q, cond):
    # The tangent oracle has no step to scale with cond(X) and moves no
    # point off rank q, so no draw is retried, let alone past the budget
    # (exit 3).  fd_mismatch was measured up to 1.2e-9 at 1e6 and 4.2e-8 at
    # 1e7 (6x4 q=2), against 1e-6.
    reports = list(_reports("differential", n, m, q, cond))
    assert all(report.passed and report.inputs["attempt"] == 0 for report in reports)


@pytest.mark.parametrize("n, m, q, cond", [
    *((n, m, q, cond) for n, m, q in [(10, 8, 4), (6, 5, 3)]
      for cond in (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)),
    *((40, 32, 20, cond) for cond in (1e2, 1e3, 1e4, 1e5, 1e6))])
def test_hausdorff_passes(n, m, q, cond):
    # The identity is taken between logs, so no product leaves the float
    # range, 40 x 32 at rank 20 included.  identity was measured up to 2.3e-13
    # at 1e8 and, for 40 x 32, 1.8e-12 at 1e6, against 1e-10.  From 1e7 the
    # 20 values of 40 x 32 have a relative gap below matcore.REQUEST_GAP, and
    # the run is refused (BadSpectrum).
    assert all(report.passed for report in _reports("hausdorff", n, m, q, cond))


# A deficient chart's volume compares two logs of chart volumes whose rounding
# grows with cond(X), while the full chart's deviation stays at rounding.
VOLUME_ROUNDING = pytest.mark.xfail(strict=True, reason="ROADMAP item 21: at cond(X) 1e7 "
                                    "volume reads 1.40e-9 (5x4) and 1.43e-9 (3x5) in 1 of "
                                    "12 trials each, against 1e-9")


@pytest.mark.parametrize("q, cond", [
    *((q, cond) for q in (2, 4) for cond in (1e2, 1e3, 1e4, 1e5, 1e6)),
    pytest.param(2, 1e7, marks=VOLUME_ROUNDING), (4, 1e7)])
def test_invariance_passes(q, cond):
    # The exact tangent map has no step to scale with cond(X): the volume
    # residual was measured up to 6.4e-11 at 1e5 and 4.7e-10 at 1e6, against
    # 1e-9, and the full-chart deviation, the one residual of a full chart,
    # up to 1.1e-14 (4.1e-15 at 1e7), against 1e-12.  Tall 5 x 4 at q = 2 and
    # 4, wide 3 x 5 at q = 2.
    key = "volume" if q == 2 else "deviation"
    for n, m in [(5, 4), (3, 5)] if q == 2 else [(5, 4)]:
        for report in _reports("invariance", n, m, q, cond):
            assert report.passed
            assert report.residuals[key] <= report.tolerances[key]


@pytest.mark.parametrize("cond", [1e2, 1e3, 1e4, 1e5, 1e6])
@pytest.mark.parametrize("m", [3, 5, 8])
def test_symmetric_inverse_fd_det_holds(m, cond):
    # The CLI refuses --spectrum here (the suite draws its eigenvalues), so
    # the library pair takes S = F diag(+-geomspace(1, 1/c, m)) F' itself,
    # seeds 1-3 x 8.  The forward-mode oracle was measured up to 4.3e-9 at
    # 1e4, 2.5e-7 at 1e5 and 1.8e-5 at 1e6 over these shapes, against 1e-4.
    tol = TOLERANCES["symmetric-inverse"]["fd_mismatch"]
    for seed in (1, 2, 3):
        rngs = [matcore.make_rng(seed, t) for t in range(8)]
        frames = matcore.orthonormal_frames(np.array([rng.standard_normal((m, m)) for rng in rngs]))
        signs = np.array([rng.choice([-1.0, 1.0], size=m) for rng in rngs])
        eigs = signs * np.geomspace(1.0, 1.0 / cond, m)
        s = (frames * eigs[:, None, :]) @ frames.swapaxes(-1, -2)
        formula = measures.log_symmetric_inverse_jacobian(s)
        oracle = measures.symmetric_inverse_fd_det(s)
        assert np.all(np.abs(formula - oracle) <= tol)


# The chart determinant of pinv, not the closed form, carries the error (at
# 1e6 the closed form is within 2e-10 of a 50-digit value and the determinant
# up to 6e-5 off); it grows about a hundredfold per decade.  The tests'
# complex-step reference, read in the same chart of X, reads the same (1.3e-8
# at 1e5): entries spanning cond(X)^2 carry an absolute error of eps * ||J||.
CHART_DET_ROUNDING = pytest.mark.xfail(strict=True, reason="ROADMAP item 12: area_formula of "
                                       "the tangent chart determinant reads 1.2e-8 (4x3), "
                                       "7.2e-9 (3x5) and 8.8e-9 (4x4) at cond(X) 1e5, "
                                       "against 1e-9")


@pytest.mark.parametrize("cond", [1e2, 1e3, 1e4, pytest.param(1e5, marks=CHART_DET_ROUNDING)])
@pytest.mark.parametrize("n, m", [(4, 3), (3, 5), (4, 4)])
def test_operator_rank_chart_det_holds_the_area_formula(n, m, cond):
    # On X's own chart, with no volume terms, the tangent measured up to
    # 1.6e-10 at 1e4 over these shapes (the complex step 1.5e-10), against 1e-9.
    for report in _reports("operator-rank", n, m, 2, cond):
        assert report.residuals["area_formula"] <= report.tolerances["area_formula"]


# operator-rank's leak (the share of S off its pair blocks in X's SVD basis)
# grows like eps * cond(X), and its pseudo_det faster from 1e6: FAILs of a
# right formula, by rounding.  Through 1e4 both hold, leak measured up to
# 2.0e-12 (4x3) and 8.7e-13 (8x6), against 1e-11.
OPERATOR_RANK_ROUNDING = {
    (4, 1e5): "leak reads 1.8e-11 against 1e-11",
    (4, 1e6): "leak reads 3.4e-10 against 1e-11",
    (4, 1e7): "leak reads 2.6e-8 against 1e-11 and pseudo_det 1.8e-6 against 1e-8",
    (8, 1e5): "leak reads 1.8e-11 against 1e-11",
    (8, 1e6): "leak reads 8.6e-11 against 1e-11",
    (8, 1e7): "leak reads 6.8e-10 against 1e-11 and pseudo_det 3.6e-5 against 1e-8",
}


def _operator_rank_cell(n, m, q, cond):
    worst = OPERATOR_RANK_ROUNDING.get((n, cond))
    reason = f"ROADMAP item 21: at cond(X) {cond:.0e} ({n}x{m} q={q}) {worst}"
    return pytest.param(n, m, q, cond, marks=[pytest.mark.xfail(strict=True, reason=reason)]
                        if worst else [])


@pytest.mark.parametrize("n, m, q, cond", [
    _operator_rank_cell(n, m, q, cond)
    for n, m, q in ((4, 3, 2), (8, 6, 3)) for cond in (1e2, 1e3, 1e4, 1e5, 1e6, 1e7)
])
def test_operator_rank_passes(n, m, q, cond):
    # area_formula keeps its own test (above).
    for report in _reports("operator-rank", n, m, q, cond):
        for key in ("annihilation", "leak", "pseudo_det"):
            assert report.residuals[key] <= report.tolerances[key], key


# exterior-chain's one residual, inverse_identity (Y Y' against inv(R) inv(R)'
# from a QR of X), grows like eps * cond(X): worst at 1e7 1.6e-11 (6x4), 5.6e-11
# (10x6) and 3.1e-10 (8x6), against 1e-10; with 8 trials per seed 10x6 also
# FAILs 1 of 24 there (3.6e-10, ROADMAP item 21).  At 1e8 the 6-column spectrum
# geomspace(1, 1e-8, 6) is refused by the request gap (BadSpectrum, exit 2): the
# refusal point of the 10x6 and 8x6 rows.
INVERSE_IDENTITY_ROUNDING = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 21: at cond(X) 1e7 (8x6) inverse_identity reads 3.1e-10 "
                        "against 1e-10 in 1 of 12 reports")


@pytest.mark.parametrize("n, m, cond", [
    pytest.param(n, m, cond, marks=[INVERSE_IDENTITY_ROUNDING] if (n, cond) == (8, 1e7) else [])
    for cond in (1e2, 1e3, 1e4, 1e5, 1e6, 1e7) for n, m in ((6, 4), (10, 6), (8, 6))
])
def test_exterior_chain_passes(n, m, cond):
    assert all(report.passed for report in _reports("exterior-chain", n, m, None, cond))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 21: at cond(X) 1e7 (10x6, seed 1, 8 trials) "
                                       "trial 4's inverse_identity reads 3.567e-10 against 1e-10")
def test_exterior_chain_passes_eight_trials_of_seed_1_at_cond_1e7():
    # The run the 4-trial draws above do not reach: its trial 4 FAILs by rounding.
    spectrum = tuple(np.geomspace(1.0, 1e-7, 6))
    cfg = suites.RunConfig(n=10, m=6, trials=8, seed=1, spectrum=spectrum)
    assert all(report.passed for report in suites.run_suite("exterior-chain", cfg).reports)
