"""Conditioning sweep: suites at spectra geomspace(1, 1/c, q), seeds 1-3 x 4 trials.

A cell passes when every report of its shape passes.  Cells that still
fail for a known cause are marked ``xfail(strict=True)`` with that cause,
so the mark has to go when the cause is mended.
"""

import numpy as np
import pytest

from mpjl import suites


def _reports(suite, n, m, q, cond):
    spectrum = tuple(np.geomspace(1.0, 1.0 / cond, min(n, m) if q is None else q))
    for seed in (1, 2, 3):
        cfg = suites.RunConfig(n=n, m=m, q=q, trials=4, seed=seed, spectrum=spectrum)
        yield from suites.run_suite(suite, cfg).reports


JACOBIAN_FULL_SHAPES = [(4, 3), (3, 4), (3, 3)]

# The formula side of operator_vs_formula, |det(X'X)|^-n through LU,
# carries a relative error near eps * cond(X)^2: 6 of the 36 reports at
# 1e4 fail it, 4 at 4x3 and 2 at 3x3.
DET_GRAM = pytest.mark.xfail(strict=True, reason="ROADMAP item 1: operator_vs_formula takes "
                                                  "det(X'X), whose error grows like cond(X)^2")


@pytest.mark.parametrize("cond", [1e2, 1e3, 1e4])
@pytest.mark.parametrize("n, m", JACOBIAN_FULL_SHAPES)
def test_jacobian_full_chart_det_holds(n, m, cond):
    # The complex-step chart determinant has no step to scale with cond(X).
    for report in _reports("jacobian-full", n, m, None, cond):
        assert report.residuals["fd_vs_formula"] <= report.tolerances["fd_vs_formula"]


@pytest.mark.parametrize("n, m, cond", [
    pytest.param(n, m, cond, marks=[DET_GRAM] if cond == 1e4 and (n, m) != (3, 4) else [])
    for cond in (1e2, 1e3, 1e4) for n, m in JACOBIAN_FULL_SHAPES
])
def test_jacobian_full_passes(n, m, cond):
    assert all(report.passed for report in _reports("jacobian-full", n, m, None, cond))


@pytest.mark.parametrize("cond", [1e2, 1e3, 1e4, 1e5])
@pytest.mark.parametrize("n, m, q", [(8, 6, 3), (6, 5, 2)])
def test_blocks_passes(n, m, q, cond):
    # The factored block pseudoinverse takes X11 once, never squared.
    assert all(report.passed for report in _reports("blocks", n, m, q, cond))


@pytest.mark.parametrize("cond", [1e2, 1e3, 1e4, 1e5])
@pytest.mark.parametrize("n, m, q", [(7, 5, 3), (6, 4, 2), (5, 5, None)])
def test_differential_passes(n, m, q, cond):
    # The complex-step oracle has no step to scale with cond(X) and keeps
    # every point at rank q, so no draw is retried, let alone past the
    # budget (exit 3).
    reports = list(_reports("differential", n, m, q, cond))
    assert all(report.passed and report.inputs["attempt"] == 0 for report in reports)


@pytest.mark.parametrize("cond", [1e2, 1e3, 1e4, 1e5])
@pytest.mark.parametrize("n, m, q", [(10, 8, 4), (6, 5, 3), (40, 32, 20)])
def test_hausdorff_passes(n, m, q, cond):
    # The identity is taken between logs, so no product leaves the float
    # range, 40 x 32 at rank 20 included.
    assert all(report.passed for report in _reports("hausdorff", n, m, q, cond))
