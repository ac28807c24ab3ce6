"""Mutation audit: every oracle must be able to fail.

Each mutant monkeypatches one library function with a plausible error and
names a suite run that must FAIL under it; the same run passes unmutated,
with no warning and no null in its report.  A mutant that survives would
show an oracle that cannot see that error.
"""

import warnings

import numpy as np
import pytest

from mpjl import chart, differential, matcore, measures, suites
from mpjl.reports import dumps_canonical


def _flip_z_dx12(original):
    # dX22 = (dX21 - Z dX11) W + Z dX12 with the sign of Z dX12 flipped: dX22 is linear
    # in dX12, which enters only there, so dX12's sign is flipped, in any layout.
    return lambda b, dx11, dx12, dx21: original(b, dx11, -dx12, dx21)


def _swap_volumes(original):
    # -V(b) for V(b): V_in - V_out becomes V_out - V_in.
    return lambda b: -original(b)


def _exponent_n_minus_q_plus_1(original):
    # (n-q+1)/2 log det(I + W'W) in place of (n-q)/2.
    def mutant(b):
        w = b.w
        return original(b) + 0.5 * np.linalg.slogdet(np.eye(b.m - b.q) + w.swapaxes(-1, -2) @ w)[1]
    return mutant


def _skipping(*sides):
    # The factored pseudoinverse and its tangent, _pinv_tangent, reading the
    # inverse of I + Z'Z (side n) or of I + WW' (side m) as I, as if that side
    # were full: its one np.linalg.inv call, on the stack [X11, I + Z'Z, I + WW']
    # (a Gram matrix only where its side is not full), returns I in its place.
    def factory(original):
        inv = np.linalg.inv

        def mutant(b, *blocks):
            formed = [side for side in "nm" if getattr(b, side) > b.q]

            def skipping_inv(a):
                out = inv(a)
                for i, side in enumerate(formed, 1):
                    if side in sides:
                        out[i] = np.eye(b.q)
                return out

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(np.linalg, "inv", skipping_inv)
                return original(b, *blocks)
        return mutant
    return factory


def _first_slice(original):
    # BlockDecomposition[i] ignoring i: every index gives the first chart.
    return lambda b, i: original(b, 0)


def _x22_solve_transposed(original):
    # X21 solve(X11', X12) in place of X21 W = X21 solve(X11, X12).
    return lambda b: b.x21 @ np.linalg.solve(b.x11.swapaxes(-1, -2), b.x12)


def _density_without_2_to_minus_q(original):
    # The log density with its -q log 2 dropped.
    return lambda n, m, d: original(n, m, d) + np.shape(d)[-1] * np.log(2.0)


def _symmetric_exponent_m(original):
    # -m log|det S| in place of -(m+1) log|det S|.
    return lambda s: original(s) + np.linalg.slogdet(measures.symmetric_part(s))[1]


def _full_rank_exponent_plus_1(original):
    # -(n+1) log|X'X| in place of -n log|X'X| (-(m+1) log|XX'| in place of -m log|XX'| when wide).
    def mutant(x, info):
        xt = x.swapaxes(-1, -2)
        gram = xt @ x if x.shape[-1] <= x.shape[-2] else x @ xt
        return original(x, info) - np.linalg.slogdet(gram)[1]
    return mutant


def _factor_exponent_n_plus_1(original):
    # -2(n+1+m-q) sum log D in place of -2(n+m-q) sum log D.
    return lambda n, m, d: original(n + 1, m, d)


def _gram_log_det_without_2(original):
    # sum log|r_ii| in place of log|R'R| = 2 sum log|r_ii|.
    def mutant(a):
        r, log_det = original(a)
        return r, 0.5 * log_det
    return mutant


def _transposed_factor(original):
    # -Y dX Y' in place of -Y dX Y; Y' has the shape of Y only where X is square.
    def mutant(x, y, dx):
        return original(x, y, dx) + y @ dx @ y - y @ dx @ y.swapaxes(-1, -2)
    return mutant


def _right_projector_term_negated(original):
    # dY = -Y dX Y + Y Y' dX' (I - XY) - (I - YX) dX' Y'Y: the last term's sign flipped.
    def mutant(x, y, dx):
        right_proj = np.eye(x.shape[-1]) - y @ x
        return original(x, y, dx) - 2 * right_proj @ dx.swapaxes(-1, -2) @ y.swapaxes(-1, -2) @ y
    return mutant


def _times_1_001(original):
    # A relative error of 1e-3.
    return lambda *args: 1.001 * original(*args)


def _y_times_1_001(original):
    # svd_pinv with a relative error of 1e-3 in Y.
    def mutant(*args, **kwargs):
        *factors, y = original(*args, **kwargs)
        return (*factors, 1.001 * y)
    return mutant


def _unsymmetrized(original):
    # _pair_factors without the average of each factor with its transpose.
    def mutant(x, y):
        n, m = x.shape[-2:]
        yt = y.swapaxes(-1, -2)
        return (np.stack([np.eye(n) - x @ y, yt @ y], -3),
                np.stack([y @ yt, np.eye(m) - y @ x], -3))
    return mutant


INVARIANCE_5X4Q2 = ("invariance", dict(n=5, m=4, q=2, trials=6, seed=5))


def _pinv_blocks_skipping(*sides):
    # The one evaluation that pinv_from_blocks and the chart oracles read.
    return [(chart, "_pinv_tangent", _skipping(*sides))]


# name -> (patches [(module, attribute, mutant factory)], runs [(suite, config)]).
MUTANTS = {
    "tangent-dx22-sign": ([(chart, "_tangent_x22", _flip_z_dx12)], [INVARIANCE_5X4Q2]),
    "chart-volumes-swapped": ([(chart, "log_chart_volume", _swap_volumes)], [INVARIANCE_5X4Q2]),
    "volume-exponent-n-q+1": ([(chart, "log_chart_volume", _exponent_n_minus_q_plus_1)],
                              [INVARIANCE_5X4Q2]),
    # Each also fails a blocks run: the value and the tangent are one evaluation.
    "pinv-blocks-ww-solve-dropped": (_pinv_blocks_skipping("m"),
                                     [("jacobian-full", dict(n=3, m=4, trials=6, seed=5)),
                                      ("blocks", dict(n=3, m=5, q=2, trials=6, seed=5))]),
    "pinv-blocks-zz-solve-dropped": (_pinv_blocks_skipping("n"),
                                     [("jacobian-full", dict(n=4, m=3, trials=6, seed=5)),
                                      ("blocks", dict(n=5, m=3, q=2, trials=6, seed=5))]),
    "pinv-blocks-identity-skip-on-deficient-chart": (
        _pinv_blocks_skipping("n", "m"),
        [("differential", dict(n=7, m=5, q=3, trials=6, seed=5)),
         ("operator-rank", dict(n=4, m=3, q=2, trials=6, seed=5)),
         ("blocks", dict(n=6, m=5, q=2, trials=6, seed=5))]),
    # blocks' roundtrip is the one residual that reads X22.
    "x22-solve-transposed": ([(chart, "x22_from_blocks", _x22_solve_transposed)],
                             [("blocks", dict(n=n, m=m, q=q, trials=6, seed=5))
                              for n, m, q in ((6, 5, 2), (8, 6, 3))]),
    "sub-chart-ignores-index": ([(chart.BlockDecomposition, "__getitem__", _first_slice)],
                                [INVARIANCE_5X4Q2]),
    # A full chart's formula side is the constant |det| = 1: the error goes into the map's side.
    "full-chart-jacobian-1e-3": ([(chart, "sandwich_chart_jacobian", _times_1_001)],
                                 [("invariance", dict(n=n, m=m, q=q, trials=4, seed=7))
                                  for n, m, q in ((3, 3, 3), (5, 4, 4), (2, 2, 2))]),
    "symmetric-inverse-exponent-m": (
        [(measures, "log_symmetric_inverse_jacobian", _symmetric_exponent_m)],
        [("symmetric-inverse", dict(m=m, trials=10, seed=5)) for m in (3, 5)]),
    "full-rank-det-exponent-n+1": (
        [(differential, "log_jacobian_det_full_rank", _full_rank_exponent_plus_1)],
        [("jacobian-full", dict(n=n, m=m, trials=10, seed=5)) for n, m in ((4, 3), (3, 4))]),
    "gram-log-det-2-dropped": (
        [(module, "gram_qr", _gram_log_det_without_2) for module in (differential, matcore)],
        [("jacobian-full", dict(n=n, m=m, trials=10, seed=5)) for n, m in ((4, 3), (3, 4))]),
    # One factor, read by three checks, each holding it to its own oracle.
    "nonfullrank-factor-exponent": (
        [(measures, "_log_factor", _factor_exponent_n_plus_1)],
        [("operator-rank", dict(n=4, m=3, q=2, trials=6, seed=5)),
         ("jacobian-full", dict(n=4, m=3, trials=6, seed=5)),
         ("jacobian-full", dict(n=3, m=4, trials=6, seed=5)),
         ("hausdorff", dict(n=10, m=8, q=4, trials=6, seed=5))]),
    "differential-transposed-factor": (
        [(differential, "_pinv_differential", _transposed_factor)],
        [("differential", dict(n=5, m=5, q=q, trials=10, seed=5)) for q in (5, 3)]),
    # (I - YX) vanishes at full column rank, so a tall full-rank run cannot see this term.
    "differential-right-projector-sign": (
        [(differential, "_pinv_differential", _right_projector_term_negated)],
        [("differential", dict(n=7, m=5, q=3, trials=10, seed=5))]),
    "density-2^-q-dropped": ([(measures, "log_hausdorff_density", _density_without_2_to_minus_q)],
                             [("hausdorff", dict(n=10, m=8, q=4, trials=6, seed=5))]),
    "pair-factors-unsymmetrized": (
        [(differential, "_pair_factors", _unsymmetrized)],
        [("operator-rank", dict(n=n, m=m, q=q, trials=10, seed=5))
         for n, m, q in ((6, 5, 2), (8, 6, 3))]
        + [("operator-rank", dict(n=6, m=5, q=2, trials=6, seed=1, spectrum=(1.0, 1e-5)))]),
    # A 1e-3 error at spectrum scales where the square of an entry leaves the float range:
    # each run once PASSed, a norm read inf giving a residual of 0.
    "pinv-differential-1e-3-at-1e-78": (
        [(differential, "_pinv_differential", _times_1_001)],
        [("differential", dict(n=4, m=3, q=2, trials=4, seed=5, spectrum=(2e-78, 1e-78)))]),
    "pinv-1e-3-at-1e-78": (
        [(matcore, "svd_pinv", _y_times_1_001)],
        [("exterior-chain", dict(n=4, m=3, trials=4, seed=5, spectrum=(4e-78, 2e-78, 1e-78)))]),
    "assemble-1e-3-at-1e155": (
        [(chart, "assemble", _times_1_001)],
        [("blocks", dict(n=4, m=3, q=2, trials=4, seed=5, spectrum=(2e155, 1e155)))]),
}

# Mutants no run can kill yet, each with the item that is to kill it.
SURVIVORS = {
    # 2^-q enters both log densities of the ratio check and cancels from
    # its identity.
    "density-2^-q-dropped": "ROADMAP item 23: only the global Gaussian mass sees the 2^-q; "
                            "test_density_constants_give_the_gaussian_mass kills this mutant "
                            "at p <= 3, and this run's p = 8 is beyond its quadrature",
    # S is symmetric in exact arithmetic, so the missing average moves S by
    # rounding only: test_pair_operator_is_exactly_symmetric sees it, no run does.
    "pair-factors-unsymmetrized": "ROADMAP item 3: operator-rank's leak grows by a factor 1.41 "
                                  "(1.3e-16 at sampled spectra, 4.3e-12 to 6.1e-12 at cond(X) "
                                  "1e5, against 1e-11) and no other residual moves",
}


def _reports(suite, config):
    return suites.run_suite(suite, suites.RunConfig(**config)).reports


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=SURVIVORS[name]))
    if name in SURVIVORS else name
    for name in MUTANTS
])
def test_mutant_fails_its_run(monkeypatch, name):
    patches, runs = MUTANTS[name]
    for suite, config in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = suites.run_suite(suite, suites.RunConfig(**config))
        assert result.all_passed and "null" not in dumps_canonical(result), suite
    for module, attribute, factory in patches:
        monkeypatch.setattr(module, attribute, factory(getattr(module, attribute)))
    for suite, config in runs:
        reports = _reports(suite, config)
        assert reports and not any(r.passed for r in reports), suite
