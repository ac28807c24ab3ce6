"""Seeded verification suites.

Each suite maps one analytic result to one independent oracle and runs it
over ``trials`` reproducible instances, as stacks: ``draw(n, m, q, rngs,
spectrum)`` writes every generator call of a stack of trials into (T, ...)
parts, and ``check(cfg, draws)`` judges them in stacked numpy calls, one
report per trial.  Each check takes one SVD of its stack of X and pivots
X alone, except ``invariance``, the one check that reads a second chart:
it pivots X and its image H X Q as one stack (2, T, n, m).  README
gives the stream, retry and entry-budget rules that ``run_suite`` keeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import chart, differential, matcore, measures
from .errors import (
    ConfigError, DegeneracyBudgetExceeded, DegenerateSpectrum, MpjlError, ShapeMismatch,
)
from .reports import PRIMARY, ReportStack, SuiteResult, stack_reports

RETRY_BUDGET = 3

# Chart determinants are only cross-checked at sizes where the full chart
# stays small.
FD_CROSS_CHECK_MAX_ENTRIES = 12

# Budget of one trial stack in the entries its check holds per trial (see
# ``_trial_entries``), so that the memory of a stacked pass does not grow
# with ``trials``.
STACK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class RunConfig:
    n: int = 4
    m: int = 3
    q: int | None = None
    trials: int = 20
    seed: int = 12345
    tol: float | None = None
    spectrum: tuple[float, ...] | None = None

    @property
    def rank(self) -> int:
        return min(self.n, self.m) if self.q is None else self.q


def validate_config(cfg: RunConfig, suite: str | None = None) -> RunConfig:
    if suite == "symmetric-inverse":  # its one size is the order m; --n does not enter it
        if cfg.q not in (None, cfg.m):
            raise ConfigError(f"symmetric-inverse has order m={cfg.m}; drop --q or set it to m")
        cfg = replace(cfg, n=cfg.m)
    if cfg.n < 1 or cfg.m < 1:
        raise ConfigError(f"n and m must be >= 1, got n={cfg.n}, m={cfg.m}")
    q = cfg.rank
    if not 1 <= q <= min(cfg.n, cfg.m):
        raise ConfigError(f"need 1 <= q <= min(n, m), got q={q}, n={cfg.n}, m={cfg.m}")
    if cfg.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {cfg.trials}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.tol is not None and not 0 < cfg.tol < np.inf:
        raise ConfigError(f"tol must be {'positive' if cfg.tol <= 0 else 'finite'}, got {cfg.tol}")
    if cfg.spectrum is not None:
        d = matcore.validate_spectrum(cfg.spectrum, q)
        # operator-rank's entries run from 1/d_1^2 to 1/d_q^2 and its norms
        # square them: (nm)^2 squares of the largest must not overflow, nor
        # eps times the smallest, a rounding-level residual, underflow.
        f = np.finfo(float)
        lo, hi = np.sqrt(cfg.n * cfg.m) * f.max**-0.25, np.sqrt(f.eps) * f.tiny**-0.25
        if suite == "operator-rank" and not lo <= d[-1] <= d[0] <= hi:
            raise ConfigError(f"operator-rank needs the spectrum in [{lo:.3e}, {hi:.3e}] to keep "
                              f"its squared entries in the float range [{f.tiny:.3e}, {f.max:.3e}]")
        # hausdorff's largest d_i + d_j is 2 d_1 and its largest 1/d_i + 1/d_j is 2 / d_q;
        # 2 / f.max rounds down to a subnormal whose doubled reciprocal is inf.
        lo, hi = 2.0 / f.max, f.max / 2.0
        if suite == "hausdorff" and not lo < d[-1] <= d[0] <= hi:
            raise ConfigError(f"hausdorff needs the spectrum in ({lo:.3e}, {hi:.3e}] to keep every "
                              f"d_i + d_j and 1/d_i + 1/d_j finite, got {d.tolist()}")
    if suite is not None and suite not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    if suite == "jacobian-full" and q != min(cfg.n, cfg.m):
        raise ConfigError("jacobian-full requires full rank: q = min(n, m)")
    if suite == "exterior-chain" and (cfg.m > cfg.n or q != cfg.m):
        raise ConfigError("exterior-chain requires full column rank: m <= n and q = m")
    if suite == "symmetric-inverse" and cfg.spectrum is not None:
        raise ConfigError("symmetric-inverse draws its own eigenvalues; drop --spectrum")
    if cfg.tol is not None and suite is not None and suite not in PRIMARY:
        raise ConfigError(f"{suite} has no primary tolerance to override; drop --tol")
    if cfg.tol is not None and suite == "operator-rank" and q == min(cfg.n, cfg.m):
        raise ConfigError("operator-rank at full rank has no annihilation residual; drop --tol")
    return replace(cfg, q=q)


def _instances(draws: tuple) -> tuple[np.ndarray, ...]:
    # The (T, n, m) instances of stacked draws that begin with draw_rank_q's parts, then the
    # other parts.
    d, g_left, g_right, *rest = draws
    return matcore.rank_q_from_draw(matcore.sorted_spectra(d), g_left, g_right), *rest


def _rel(err, scale):
    # The one relative residual, err / scale entry by entry; each scale is a norm (of dY, S,
    # X, Y or inv(X'X)) or max(1, |log|), and one that is 0 or not finite gives NaN: a FAIL.
    valid = np.isfinite(scale) & (scale > 0)
    return np.where(valid, err, np.nan) / np.where(valid, scale, 1.0)


def _chart_dim(cfg: RunConfig) -> int:
    q = cfg.rank
    return cfg.n * q + cfg.m * q - q * q


def _fd_chart(suite: str, cfg: RunConfig) -> bool:
    # Whether the check takes a chart Jacobian (a sandwich's or pinv's tangent): invariance
    # always; jacobian-full, and operator-rank below full rank, on small charts.
    return suite == "invariance" or _chart_dim(cfg) <= FD_CROSS_CHECK_MAX_ENTRIES and (
        suite == "jacobian-full" or suite == "operator-rank" and cfg.rank < min(cfg.n, cfg.m))


def _draw_differential(n: int, m: int, q: int, rngs, spectrum) -> tuple:
    shapes = [(n, m)] if q == min(n, m) else [(q, q), (q, m - q), (n - q, q)]
    return matcore.draw_rank_q(n, m, q, rngs, spectrum, *shapes)


def _check_differential(cfg: RunConfig, draws: tuple) -> ReportStack:
    q = cfg.rank
    full_rank = q == min(cfg.n, cfg.m)
    x, *direction = _instances(draws)
    y = matcore.svd_pinv(x, q)[3]  # one SVD: Y and the chart's rank test
    b = chart._pivot(x, q)  # at full rank the chart covers every entry
    dx = direction[0] if full_rank else chart.tangent_perturbation(b, *direction)
    dx = dx / matcore.frobenius_norms(dx)[..., None, None]
    analytic = differential._pinv_differential(x, y, dx)
    oracle = chart.pinv_chart_derivative(b, b.coordinates(dx))
    norm = matcore.frobenius_norms(analytic)
    return stack_reports("differential", {"n": cfg.n, "m": cfg.m, "q": q, "full_rank": full_rank},
                         {"analytic_norm": norm},
                         {"fd_mismatch": _rel(matcore.frobenius_norms(analytic - oracle), norm)},
                         tol=cfg.tol)


def _check_jacobian_full(cfg: RunConfig, draws: tuple) -> ReportStack:
    [x] = _instances(draws)
    # One stacked SVD of X, values only, serves the rank check and the operator's
    # log determinant, the factor of X's singular values; the closed form takes a QR.
    info = matcore.rank_profile(x)
    formula = differential.log_jacobian_det_full_rank(x, info)
    operator_det = measures._log_factor(cfg.n, cfg.m, info.singular_values)
    values = {"log_operator_det": operator_det, "log_closed_form": formula}
    residuals = {"operator_vs_formula": abs(operator_det - formula)}
    if _fd_chart("jacobian-full", cfg):
        # log_jacobian_det_full_rank has refused an X below full rank, so X's
        # chart takes no rank test, and it covers every entry of X and of Y:
        # Y needs no chart of its own.  The tangent of the factored block
        # pseudoinverse moves no point: no SVD, no step.
        jac = chart.pinv_chart_jacobian(chart._pivot(x, cfg.rank))
        values["log_fd_chart_det"] = fd_det = np.linalg.slogdet(jac)[1]
        residuals["fd_vs_formula"] = abs(fd_det - formula)
    return stack_reports("jacobian-full", {"n": cfg.n, "m": cfg.m, "q": cfg.rank}, values,
                         residuals, tol=cfg.tol)


def _check_operator_rank(cfg: RunConfig, draws: tuple) -> ReportStack:
    q, n, m = cfg.rank, cfg.n, cfg.m
    [x] = _instances(draws)
    expected = _chart_dim(cfg)
    # One full SVD of the stack: X's rank profile, its pseudoinverse, and
    # the bases U, V of its four fundamental subspaces.
    u, info, vt, y = matcore.svd_pinv(x, q, full_matrices=True)
    # The log of prod d^-2(n+m-q), the paper's rank-deficient factor, read
    # from X's retained singular values.
    log_factor = measures._log_factor(n, m, info.singular_values[:, :q].copy())
    chart_det, area_formula = {}, {}
    if _fd_chart("operator-rank", cfg):
        # X's rank is tested, so its chart takes no rank test.  X's chart is a chart of Y'
        # with X's W and Z (see chart), so the two volumes of the area formula cancel and
        # the chart determinant is log_factor itself.
        jac = chart.pinv_chart_jacobian(chart._pivot(x, q))
        chart_det["log_deficient_chart_det"] = det = np.linalg.slogdet(jac)[1]
        area_formula["area_formula"] = _rel(abs(det - log_factor),
                                            np.maximum(1.0, abs(log_factor)))
    # S in the basis U kron V, read from its factors (see differential).
    rank, (norm, normal, off) = differential.pair_block_profile(
        u.swapaxes(-1, -2) @ x @ vt.swapaxes(-1, -2), vt @ y @ u, q)
    residuals = {"annihilation": _rel(normal, norm)} if q < min(n, m) else {}
    # The pseudo-determinant against that factor, both as sums of logs of
    # the singular values: the products leave the float range at moderate
    # sizes.
    log_pdet = np.log(rank.singular_values[:, :expected]).sum(axis=-1)
    residuals.update(pseudo_det=abs(log_pdet - log_factor), leak=_rel(off, norm), **area_formula)
    values = {"operator_rank": rank.rank, "expected_rank": expected, **chart_det}
    return stack_reports("operator-rank", {"n": n, "m": m, "q": q}, values, residuals,
                         tol=cfg.tol, conditions=(rank.rank == expected,))


def _draw_instance(n: int, m: int, q: int, rngs, spectrum) -> tuple:
    # matcore.draw_rank_q, looked up as each stack draws, so a replaced or wrapped one runs.
    return matcore.draw_rank_q(n, m, q, rngs, spectrum)


def _draw_hausdorff(n: int, m: int, q: int, rngs, spectrum) -> tuple:
    return (matcore.draw_spectra(rngs, q, spectrum),)


def _check_hausdorff(cfg: RunConfig, draws: tuple) -> ReportStack:
    # log density(Y spectrum) + log|d(reciprocal spectrum)/dD| - log density(X
    # spectrum) equals the log factor -2(n+m-q) sum log D_i by algebra alone,
    # so ``identity``, the absolute difference of the two logs, is rounding.
    d = matcore.sorted_spectra(draws[0])
    n, m, q = cfg.n, cfg.m, d.shape[-1]
    # Y = pinv(X) is m x n with the same rank; n+m enters symmetrically.
    log_x = measures.log_hausdorff_density(n, m, d)
    log_y = measures.log_hausdorff_density(m, n, 1.0 / d[:, ::-1])  # pinv's spectrum
    log_factor = measures._log_factor(n, m, d)
    stack = stack_reports(
        "hausdorff", {"n": n, "m": m, "q": q},
        {"log_density_x": log_x, "log_density_y": log_y, "log_jacobian_factor": log_factor},
        {"identity": abs(log_y - 2.0 * np.log(d).sum(axis=-1) - log_x - log_factor)}, tol=cfg.tol,
    )
    stack.inputs["spectrum"] = d.tolist()
    return stack


def _check_exterior_chain(cfg: RunConfig, draws: tuple) -> ReportStack:
    # Y = pinv(X) of full column rank: Y Y' = inv(X'X), the Gram identity that the
    # exterior-product derivation rests on (Y' = H T^-T for X = H T); |X'X|^-n is
    # jacobian-full's gate.  One QR of X gives log|X'X| and inv(X'X) = inv(R) inv(R)'.
    [x] = _instances(draws)
    n, m = x.shape[-2:]
    y = matcore.svd_pinv(x, m)[3]  # rank <= n < m when wide
    r, log_b = matcore.gram_qr(x)
    r_inv = np.linalg.inv(r)
    b_inv = r_inv @ r_inv.swapaxes(-1, -2)
    norms = matcore.frobenius_norms
    return stack_reports(
        "exterior-chain", {"n": n, "m": m}, {"log_gram_det": log_b, "log_closed_form": -n * log_b},
        {"inverse_identity": _rel(norms(y @ y.swapaxes(-1, -2) - b_inv), norms(b_inv))},
    )


WITNESS_DEVIATION = 0.05


def judge_invariance(x, q: int, h, qmat) -> ReportStack:
    """Exact chart Jacobian of X -> H X Q for orthogonal H, Q against the area formula
    log|det| = V_in - V_out: as ``deviation`` ||det| - 1| on a full chart (both volumes 0),
    as ``volume`` on a deficient one, whose deviation is a value, evidence that the
    free-coordinate volume element is not invariant.  One report per slice of X (n, m) or
    (T, n, m).  A factor (or stack) that is not square raises ShapeMismatch; one not
    finite, or with a slice not orthogonal to 1e-12, ValueError."""
    h, qmat = matcore.as_stack(h), matcore.as_stack(qmat)
    for name, f in (("left", h), ("right", qmat)):
        if f.shape[-1] != f.shape[-2]:
            raise ShapeMismatch(f"{name} factor must be square, got {f.shape}")
        gap = np.max(np.abs(f.swapaxes(-1, -2) @ f - np.eye(f.shape[-1])))
        if gap > 1e-12:
            raise ValueError(f"{name} factor deviates from orthogonality by {gap:.2e}")
    return _judge_invariance(matcore.as_stack(x), q, h, qmat)


def _judge_invariance(x: np.ndarray, q: int, h, qmat) -> ReportStack:
    # judge_invariance of orthogonal factors.  Only X's rank is tested (H X Q has it), and
    # both charts are pivoted as one stack: one pivot test, which names the worse block.
    # A deficient stack solves W and Z for its volumes, once, before the slices inherit them.
    n, m = x.shape[-2:]
    matcore.require_rank(matcore.rank_profile(x), q)
    charts = chart._pivot(np.array([x, h @ x @ qmat]), q)
    full_chart = q == min(n, m)
    log_volume = None if full_chart else np.subtract(*chart.log_chart_volume(charts))
    abs_det = np.abs(np.linalg.det(chart.sandwich_chart_jacobian(h, qmat, charts[0], charts[1])))
    deviation = abs(abs_det - 1.0)
    residuals = ({"deviation": deviation} if full_chart else
                 {"volume": _rel(abs(np.log(abs_det) - log_volume),
                                 np.maximum(1.0, abs(log_volume)))})
    return stack_reports("invariance", {"n": n, "m": m, "q": q},
                         {"abs_det": abs_det, "deviation": deviation, "full_chart": full_chart,
                          "witness": deviation > WITNESS_DEVIATION}, residuals)


def _draw_invariance(n: int, m: int, q: int, rngs, spectrum) -> tuple:
    return matcore.draw_rank_q(n, m, q, rngs, spectrum, (n, n), (m, m))


def _check_invariance(cfg: RunConfig, draws: tuple) -> ReportStack:
    x, g_h, g_q = _instances(draws)
    # QR builds the frames orthogonal: they take no test of that.
    return _judge_invariance(x, cfg.rank, matcore.orthonormal_frames(g_h),
                             matcore.orthonormal_frames(g_q))


def _draw_symmetric_inverse(n: int, m: int, q: int, rngs, spectrum) -> tuple:
    # Each generator's calls in order: the Gaussian block, then the eigenvalues.
    g = matcore._rows(rngs, m * m, np.random.Generator.standard_normal)
    return g.reshape(-1, m, m), matcore.draw_spectra(rngs, m)


def _check_symmetric_inverse(cfg: RunConfig, draws: tuple) -> ReportStack:
    g, eigs = draws
    frame = matcore.orthonormal_frames(g)
    s = (frame * eigs[:, None, :]) @ frame.swapaxes(-1, -2)
    formula = measures.log_symmetric_inverse_jacobian(s)
    oracle = measures.symmetric_inverse_fd_det(s)
    return stack_reports("symmetric-inverse", {"order": cfg.m},
                         {"log_formula": formula, "log_fd_det": oracle},
                         {"fd_mismatch": abs(formula - oracle)}, tol=cfg.tol)


def _check_blocks(cfg: RunConfig, draws: tuple) -> ReportStack:
    q, norms = cfg.rank, matcore.frobenius_norms
    [x] = _instances(draws)
    y = matcore.svd_pinv(x, q)[3]  # one SVD: Y and the chart's rank test
    b = chart._pivot(x, q)
    # assemble copies X's free blocks: roundtrip reads X21 W - X22, placed back by _place.
    return stack_reports("blocks", {"n": cfg.n, "m": cfg.m, "q": q}, {},
                         {"roundtrip": _rel(norms(chart.assemble(b) - x), norms(x)),
                          "pinv_blocks": _rel(norms(chart.pinv_from_blocks(b) - y), norms(y))},
                         tol=cfg.tol)


# name -> (draw, check): ``draw(n, m, q, rngs, spectrum)`` makes every
# generator call of a stack of trials, one generator each, into stacked
# parts, a spectrum it samples left unsorted (the config's was validated
# once per run); ``check(cfg, draws)`` judges those parts and returns their
# ReportStack, one report per trial.
_SUITES = {
    "differential": (_draw_differential, _check_differential),
    "jacobian-full": (_draw_instance, _check_jacobian_full),
    "operator-rank": (_draw_instance, _check_operator_rank),
    "hausdorff": (_draw_hausdorff, _check_hausdorff),
    "invariance": (_draw_invariance, _check_invariance),
    "symmetric-inverse": (_draw_symmetric_inverse, _check_symmetric_inverse),
    "exterior-chain": (_draw_instance, _check_exterior_chain),
    "blocks": (_draw_instance, _check_blocks),
}
SUITE_NAMES = tuple(_SUITES)


def _checked_stack(draw, check, cfg: RunConfig, trials: range, label: str):
    """``(check(cfg, draws), attempts)`` of a stack drawn as ``draw`` from each trial's stream
    (seed, trial, 0); each slice that a DegenerateSpectrum names is redrawn from its trial's
    next attempt, up to ``RETRY_BUDGET`` times, then DegeneracyBudgetExceeded is raised,
    ``label`` formatted with the tied trial."""
    draws = draw(cfg.n, cfg.m, cfg.rank, matcore.make_rngs(cfg.seed, trials), cfg.spectrum)
    attempts = np.zeros(len(trials), dtype=int)
    while True:
        try:
            return check(cfg, draws), attempts.tolist()
        except DegenerateSpectrum as e:
            # A tie lies in one trial's spectrum: every slice tied in a round is at one attempt.
            tied, attempt = e.slices, attempts[e.slices[0]] + 1
            if attempt > RETRY_BUDGET:
                raise DegeneracyBudgetExceeded(f"{label.format(trials[tied[0]])}: degenerate "
                                               f"after {RETRY_BUDGET} redraws: {e}") from e
        rngs = matcore.make_rngs(cfg.seed, [trials[i] for i in tied], attempt)
        for whole, part in zip(draws, draw(cfg.n, cfg.m, cfg.rank, rngs, cfg.spectrum)):
            whole[tied] = part
        attempts[tied] = attempt


def _trial_entries(suite: str, cfg: RunConfig) -> int:
    # Real floats one trial adds to a stacked pass: 2 k n m for its k chart tangents where it takes
    # them (pinv's and the blocks they join, or a sandwich's and their images), operator-rank's leak
    # read where that is more (pair_block_profile's four n x n, four m x m and three m x n factor
    # stacks and two 4 n m cross products), symmetric-inverse's 4 k^2 (its k x k Jacobian, k =
    # m(m+1)/2, two gathered factors and their product), else its instance.
    n, m = cfg.n, cfg.m
    points = 2 * _chart_dim(cfg) * n * m if _fd_chart(suite, cfg) else 0
    if suite == "operator-rank":
        return max(points, 4 * (n * n + m * m) + 11 * n * m)
    if points:
        return points
    if suite == "symmetric-inverse":
        return 4 * (m * (m + 1) // 2) ** 2
    return (2 if suite == "differential" else 1) * n * m  # differential: its one tangent, twice


def _trial_stacks(suite: str, cfg: RunConfig) -> list[range]:
    size = max(1, STACK_ENTRIES // _trial_entries(suite, cfg))
    return [range(t, min(t + size, cfg.trials)) for t in range(0, cfg.trials, size)]


def _run_stack(suite: str, cfg: RunConfig, trials: range) -> ReportStack:
    """The reports of ``trials``, checked as one stack and retried slice by slice, with
    their seed, trial and attempt as input columns.

    ``cfg`` is one that :func:`validate_config` accepts; its spectrum is not checked again.
    """
    stack, attempts = _checked_stack(*_SUITES[suite], cfg, trials, f"suite {suite} trial {{}}")
    stack.inputs.update(seed=[cfg.seed] * len(trials), trial=list(trials), attempt=attempts)
    return stack


def run_suite(suite: str, cfg: RunConfig) -> SuiteResult:
    """Every trial of ``suite``, stack by stack (see the module docstring)."""
    cfg = validate_config(cfg, suite)
    start = time.perf_counter()
    stacks = []
    for trials in _trial_stacks(suite, cfg):
        try:
            stacks.append(_run_stack(suite, cfg, trials))
        except MpjlError:  # each trial alone: the first error in trial order is raised
            stacks += [_run_stack(suite, cfg, range(t, t + 1)) for t in trials]
    return SuiteResult(stacks=stacks, wall_time=time.perf_counter() - start)
