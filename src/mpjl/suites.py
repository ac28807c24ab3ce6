"""Seeded verification suites.

Each suite maps one analytic result to one independent oracle and runs it
over ``trials`` reproducible instances.  A trial is a pure function of
(config, trial index, attempt): its generator stream is addressed by that
triple, so reruns are byte-identical and trials could execute in any
order.  Spectra that collide (degenerate draws) are redrawn with a fresh
sub-seed up to the retry budget, then reported as a hard failure.

A suite is a pair: ``draw(cfg, rng)`` makes every generator call of one
trial, ``check(cfg, draws)`` judges a stack of trials' draws, one report
per trial (``invariance``, ``jacobian-full`` and ``operator-rank`` in
stacked numpy calls, the others slice by slice).  ``run_suite`` draws
each stack of trials, capped by ``STACK_ENTRIES``, from their first
attempts' streams and checks it in one pass; if that raises anything, the
stack reruns trial by trial through ``run_trial``, the same check on
stacks of one with the retry policy, so every report and error is that of
the trials run one by one.  A stack of one trial takes that path directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import chart, differential, matcore, measures
from .errors import (
    BadSpectrum, ConfigError, DegeneracyBudgetExceeded, DegenerateSpectrum, RankDrift,
)
from .reports import PRIMARY, SuiteResult, VerificationReport

RETRY_BUDGET = 3

# FD chart determinants are only cross-checked at sizes where the full
# chart stays small.
FD_CROSS_CHECK_MAX_ENTRIES = 12

# Budget of one trial stack in FD-point entries, 2k points of n x m
# entries per trial of chart dimension k, so that the memory of a stacked
# pass does not grow with ``trials``.
STACK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class RunConfig:
    n: int = 4
    m: int = 3
    q: int | None = None
    trials: int = 20
    seed: int = 12345
    tol: float | None = None
    fd_step: float = differential.FdConfig.step
    spectrum: tuple[float, ...] | None = None

    @property
    def rank(self) -> int:
        return min(self.n, self.m) if self.q is None else self.q


def validate_config(cfg: RunConfig, suite: str | None = None) -> RunConfig:
    if cfg.n < 1 or cfg.m < 1:
        raise ConfigError(f"n and m must be >= 1, got n={cfg.n}, m={cfg.m}")
    q = cfg.rank
    if not 1 <= q <= min(cfg.n, cfg.m):
        raise ConfigError(f"need 1 <= q <= min(n, m), got q={q}, n={cfg.n}, m={cfg.m}")
    if cfg.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {cfg.trials}")
    if cfg.tol is not None and cfg.tol <= 0:
        raise ConfigError(f"tol must be positive, got {cfg.tol}")
    try:
        _fd_config(cfg)
    except ValueError as e:  # FdConfig owns the step range
        raise ConfigError(f"fd-{e}") from e
    if cfg.spectrum is not None:
        try:
            d = matcore.validate_spectrum(cfg.spectrum)
        except BadSpectrum as e:
            raise ConfigError(str(e)) from e
        if d.size != q:
            raise ConfigError(f"spectrum has {d.size} values but q={q}")
    if suite is not None and suite not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    if suite == "jacobian-full" and q != min(cfg.n, cfg.m):
        raise ConfigError("jacobian-full requires full rank: q = min(n, m)")
    if suite == "exterior-chain" and (cfg.m > cfg.n or q != cfg.m):
        raise ConfigError("exterior-chain requires full column rank: m <= n and q = m")
    if cfg.tol is not None and suite is not None and suite not in PRIMARY:
        raise ConfigError(f"{suite} has no primary tolerance to override; drop --tol")
    return replace(cfg, q=q)


def _fd_config(cfg: RunConfig) -> differential.FdConfig:
    return differential.FdConfig(step=cfg.fd_step)


def _draw_x(cfg: RunConfig, rng: np.random.Generator) -> tuple:
    return matcore.draw_rank_q(cfg.n, cfg.m, cfg.rank, rng, spectrum=cfg.spectrum)


def _instances(draws: list[tuple]) -> tuple[np.ndarray, ...]:
    # The (T, n, m) instances of draws that begin with _draw_x's parts,
    # then the other parts, each stacked over the trials.
    d, g_left, g_right, *rest = map(np.array, zip(*draws))
    return matcore.rank_q_from_draw(d, g_left, g_right), *rest


def _per_slice(report):
    # A check that runs report(cfg, x, *other parts) on each trial's slices.
    return lambda cfg, draws: [report(cfg, *parts) for parts in zip(*_instances(draws))]


def _rel(err: float, scale: float) -> float:
    return float(err / scale) if scale > 0 else float(err)


def _pinv_chart_det(cfg: RunConfig, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|det| of the FD chart Jacobian of X -> pinv(X) = Y, rank pinned, per slice."""
    q = cfg.rank
    jac = differential.fd_chart_jacobian(differential.PinvMap(rank=q), x, chart.decompose(x, q),
                                         chart.decompose(y, q), _fd_config(cfg))
    return np.abs(np.linalg.det(jac))


def _draw_differential(cfg: RunConfig, rng: np.random.Generator) -> tuple:
    q, n, m = cfg.rank, cfg.n, cfg.m
    shapes = [(n, m)] if q == min(n, m) else [(q, q), (q, m - q), (n - q, q)]
    return (*_draw_x(cfg, rng), *(rng.standard_normal(shape) for shape in shapes))


def _differential(cfg: RunConfig, x: np.ndarray, *direction: np.ndarray) -> VerificationReport:
    q = cfg.rank
    full_rank = q == min(cfg.n, cfg.m)
    dx = direction[0] if full_rank else chart.tangent_perturbation(chart.decompose(x, q), *direction)
    dx /= np.linalg.norm(dx)
    analytic = differential.pinv_differential(x, dx)
    oracle = differential.fd_pinv_differential(x, dx, _fd_config(cfg))
    rel = _rel(np.linalg.norm(analytic - oracle), np.linalg.norm(analytic))
    return VerificationReport(
        check_name="differential",
        inputs={"n": cfg.n, "m": cfg.m, "q": q, "full_rank": full_rank},
        values={"analytic_norm": float(np.linalg.norm(analytic))},
        residuals={"fd_mismatch": rel},
        tol=cfg.tol,
    )


def _check_jacobian_full(cfg: RunConfig, draws: list[tuple]) -> list[VerificationReport]:
    [x] = _instances(draws)
    # One stacked factorization of X serves both determinants and the rank check.
    info = matcore.rank_profile(x)
    det_op = differential.jacobian_det_operator(x, info).tolist()
    det_formula = differential.jacobian_det_full_rank(x, info).tolist()
    fd = cfg.n * cfg.m <= FD_CROSS_CHECK_MAX_ENTRIES
    fd_det = _pinv_chart_det(cfg, x, matcore.pinv(x)).tolist() if fd else None
    reports = []
    for t, formula in enumerate(det_formula):
        residuals = {"operator_vs_formula": _rel(abs(det_op[t] - formula), formula)}
        values = {"operator_det": det_op[t], "closed_form": formula}
        if fd_det is not None:
            values["fd_chart_det"] = fd_det[t]
            residuals["fd_vs_formula"] = _rel(abs(fd_det[t] - formula), formula)
        reports.append(VerificationReport("jacobian-full", {"n": cfg.n, "m": cfg.m, "q": cfg.rank},
                                          values, residuals, tol=cfg.tol))
    return reports


def _draw_operator_rank(cfg: RunConfig, rng: np.random.Generator) -> tuple:
    return (*_draw_x(cfg, rng), rng.standard_normal((cfg.n, cfg.m)))


def _check_operator_rank(cfg: RunConfig, draws: list[tuple]) -> list[VerificationReport]:
    q, n, m = cfg.rank, cfg.n, cfg.m
    x, v = _instances(draws)
    expected = n * q + m * q - q * q
    y = matcore.pinv(x)
    projected = (np.eye(n) - x @ y) @ v @ (np.eye(m) - y @ x)
    # The dense operator's pseudo-determinant against the product of the
    # closed-form spectrum, prod d^-2(n+m-q), the paper's rank-deficient
    # factor.  Both are summed as logs of the individual singular values:
    # the products themselves leave the float range at moderate sizes.
    log_factor = differential.operator_log_pdet(x, matcore.rank_profile(x))
    chart_det = None
    if q < min(n, m) and expected <= FD_CROSS_CHECK_MAX_ENTRIES:
        # No closed form is known for this determinant; it is reported for
        # reproducibility only, never asserted against a formula.
        chart_det = _pinv_chart_det(cfg, x, y).tolist()
    reports = []
    for t in range(len(x)):
        # The nm x nm operator, its norms and its rank SVD, slice by slice.
        op = differential.jacobian_operator(x[t])
        image = op @ matcore.vec(projected[t])
        scale = np.linalg.norm(op) * max(np.linalg.norm(projected[t]), 1e-300)
        op_info = matcore.rank_profile(op)
        log_pdet = np.sum(np.log(op_info.singular_values[:expected]))
        values = {"operator_rank": op_info.rank, "expected_rank": expected}
        if chart_det is not None:
            values["deficient_chart_det"] = chart_det[t]
        reports.append(VerificationReport(
            "operator-rank", {"n": n, "m": m, "q": q}, values,
            {"annihilation": _rel(np.linalg.norm(image), scale),
             "pseudo_det": float(abs(log_pdet - log_factor[t]))},
            tol=cfg.tol, conditions=(op_info.rank == expected,),
        ))
    return reports


def _draw_invariance(cfg: RunConfig, rng: np.random.Generator) -> tuple:
    n, m = cfg.n, cfg.m
    return (*_draw_x(cfg, rng), rng.standard_normal((n, n)), rng.standard_normal((m, m)))


def _check_invariance(cfg: RunConfig, draws: list[tuple]) -> list[VerificationReport]:
    x, g_h, g_q = _instances(draws)
    h, qmat = matcore.orthonormal_frames(g_h), matcore.orthonormal_frames(g_q)
    return measures.orthogonal_invariance_check(x, cfg.rank, h, qmat, _fd_config(cfg))


def _check_symmetric_inverse(cfg: RunConfig, draws: list[tuple]) -> list[VerificationReport]:
    g, eigs = map(np.array, zip(*draws))
    return [_symmetric_inverse(cfg, frame, e)
            for frame, e in zip(matcore.orthonormal_frames(g), eigs)]


def _symmetric_inverse(cfg: RunConfig, frame: np.ndarray, eigs: np.ndarray) -> VerificationReport:
    s = measures.SymmetricMatrix.from_full((frame * eigs) @ frame.T)
    formula = measures.symmetric_inverse_jacobian_formula(s)
    oracle = measures.symmetric_inverse_fd_det(s, _fd_config(cfg))
    return VerificationReport(
        check_name="symmetric-inverse",
        inputs={"order": cfg.m},
        values={"formula": formula, "fd_det": oracle},
        residuals={"fd_mismatch": _rel(abs(formula - oracle), formula)},
        tol=cfg.tol,
    )


def _blocks(cfg: RunConfig, x: np.ndarray) -> VerificationReport:
    q = cfg.rank
    b = chart.decompose(x, q)
    x_norm = np.linalg.norm(x)
    roundtrip = _rel(np.linalg.norm(chart.assemble(b) - x), x_norm)
    y = matcore.pinv(x)
    pinv_rel = _rel(np.linalg.norm(chart.pinv_from_blocks(b) - y), np.linalg.norm(y))
    trailing = x[np.ix_(b.row_perm[q:], b.col_perm[q:])]
    x22_rel = _rel(np.linalg.norm(chart.x22_from_blocks(b) - trailing), x_norm)
    chart_ok = len(b) == cfg.n * q + cfg.m * q - q * q
    return VerificationReport(
        check_name="blocks",
        inputs={"n": cfg.n, "m": cfg.m, "q": q},
        values={"chart_length": len(b), "chart_length_ok": chart_ok},
        residuals={"roundtrip": roundtrip, "pinv_blocks": pinv_rel, "x22": x22_rel},
        tol=cfg.tol,
        conditions=(chart_ok,),
    )


# name -> (draw, check): ``draw(cfg, rng)`` makes every generator call of
# one trial; ``check(cfg, draws)`` judges a list of trials' draws and
# returns one report per trial.
_SUITES = {
    "differential": (_draw_differential, _per_slice(_differential)),
    "jacobian-full": (_draw_x, _check_jacobian_full),
    "operator-rank": (_draw_operator_rank, _check_operator_rank),
    "hausdorff": (
        lambda cfg, rng: (cfg.spectrum or matcore.sample_spectrum(cfg.rank, rng),),
        lambda cfg, draws: [measures.hausdorff_ratio_check(cfg.n, cfg.m, d, cfg.tol)
                            for d, in draws],
    ),
    "invariance": (_draw_invariance, _check_invariance),
    "symmetric-inverse": (
        lambda cfg, rng: (rng.standard_normal((cfg.m, cfg.m)),
                          rng.uniform(*matcore.SPECTRUM_RANGE, size=cfg.m)),
        _check_symmetric_inverse,
    ),
    "exterior-chain": (_draw_x, _per_slice(lambda cfg, x: measures.exterior_chain_check(x))),
    "blocks": (_draw_x, _per_slice(_blocks)),
}
SUITE_NAMES = tuple(_SUITES)


def _redraw(draw, seed: int, trial: int, label: str):
    """``(draw(rng), attempt)`` from the first attempt that is not degenerate.

    Attempt a draws from the stream (seed, trial, a); a degenerate spectrum
    or a rank drift is redrawn up to ``RETRY_BUDGET`` times, then raised
    as DegeneracyBudgetExceeded.  Kept private, so that span tracers that
    wrap public names (perfbench's) see each attempt's ``make_rng`` call
    directly under ``run_trial`` (a stacked pass's, under ``run_suite``).
    """
    last: Exception | None = None
    for attempt in range(1 + RETRY_BUDGET):
        try:
            return draw(matcore.make_rng(seed, trial, attempt)), attempt
        except (DegenerateSpectrum, RankDrift) as e:
            last = e
    raise DegeneracyBudgetExceeded(f"{label}: degenerate after {RETRY_BUDGET} redraws: {last}")


def _stamp(report: VerificationReport, cfg: RunConfig, trial: int, attempt: int):
    report.inputs = {**report.inputs, "seed": cfg.seed, "trial": trial, "attempt": attempt}
    return report


def run_trial(suite: str, cfg: RunConfig, trial: int) -> VerificationReport:
    """One trial, checked as a stack of one, with the retry-on-degeneracy policy."""
    draw, check = _SUITES[suite]
    label = f"suite {suite} trial {trial}"
    report, attempt = _redraw(lambda rng: check(cfg, [draw(cfg, rng)])[0], cfg.seed, trial, label)
    return _stamp(report, cfg, trial, attempt)


def _trial_stacks(cfg: RunConfig) -> list[range]:
    q = cfg.rank
    size = max(1, STACK_ENTRIES // (2 * (cfg.n * q + cfg.m * q - q * q) * cfg.n * cfg.m))
    return [range(t, min(t + size, cfg.trials)) for t in range(0, cfg.trials, size)]


def _run_stack(suite: str, cfg: RunConfig, trials: range) -> list[VerificationReport]:
    # Each trial's first attempt, from its own stream, checked as one stack.
    draw, check = _SUITES[suite]
    draws = [draw(cfg, matcore.make_rng(cfg.seed, t, 0)) for t in trials]
    return [_stamp(r, cfg, t, 0) for t, r in zip(trials, check(cfg, draws))]


def run_suite(suite: str, cfg: RunConfig) -> SuiteResult:
    """Every trial of ``suite``, stack by stack (see the module docstring)."""
    cfg = validate_config(cfg, suite)
    start = time.perf_counter()
    reports: list[VerificationReport] = []
    for trials in _trial_stacks(cfg):
        stacked = None
        if len(trials) > 1:
            try:
                stacked = _run_stack(suite, cfg, trials)
            except Exception:  # the trial-by-trial pass reproduces or retries it
                pass
        reports += stacked or [run_trial(suite, cfg, t) for t in trials]
    return SuiteResult(reports=reports, wall_time=time.perf_counter() - start)
