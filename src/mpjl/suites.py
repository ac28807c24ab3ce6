"""Seeded verification suites.

Each suite maps one analytic result to one independent oracle and runs it
over ``trials`` reproducible instances.  A trial is a pure function of
(config, trial index, attempt): its generator stream is addressed by that
triple, so reruns are byte-identical and trials could execute in any
order.  Spectra that collide (degenerate draws) are redrawn with a fresh
sub-seed up to the retry budget, then reported as a hard failure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import chart, differential, matcore, measures
from .errors import BadSpectrum, ConfigError, DegeneracyBudgetExceeded, DegenerateSpectrum, RankDrift
from .reports import PRIMARY, SuiteResult, VerificationReport

RETRY_BUDGET = 3

# FD chart determinants are only cross-checked at sizes where the full
# chart stays small.
FD_CROSS_CHECK_MAX_ENTRIES = 12


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


def _instance(cfg: RunConfig, rng: np.random.Generator) -> np.ndarray:
    return matcore.random_rank_q(cfg.n, cfg.m, cfg.rank, rng, spectrum=cfg.spectrum)


def _rel(err: float, scale: float) -> float:
    return float(err / scale) if scale > 0 else float(err)


def _pinv_chart_det(cfg: RunConfig, x: np.ndarray, y: np.ndarray) -> float:
    """|det| of the FD chart Jacobian of X -> pinv(X) = Y, rank pinned."""
    q = cfg.rank
    in_chart = chart.decompose(x, q)
    out_chart = chart.decompose(y, q)
    jac = differential.fd_chart_jacobian(
        differential.PinvMap(rank=q), x, in_chart, out_chart, _fd_config(cfg)
    )
    return float(abs(np.linalg.det(jac)))


def _suite_differential(cfg: RunConfig, rng: np.random.Generator) -> VerificationReport:
    q = cfg.rank
    x = _instance(cfg, rng)
    full_rank = q == min(cfg.n, cfg.m)
    if full_rank:
        dx = rng.standard_normal((cfg.n, cfg.m))
    else:
        b = chart.decompose(x, q)
        dx = chart.tangent_perturbation(
            b,
            rng.standard_normal((q, q)),
            rng.standard_normal((q, cfg.m - q)),
            rng.standard_normal((cfg.n - q, q)),
        )
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


def _suite_jacobian_full(cfg: RunConfig, rng: np.random.Generator) -> VerificationReport:
    q = cfg.rank
    x = _instance(cfg, rng)
    # One factorization of X serves both determinants and the rank check.
    info = matcore.rank_profile(x)
    det_op = differential.jacobian_det_operator(x, info)
    det_formula = differential.jacobian_det_full_rank(x, info)
    residuals = {"operator_vs_formula": _rel(abs(det_op - det_formula), det_formula)}
    values = {"operator_det": det_op, "closed_form": det_formula}
    if cfg.n * cfg.m <= FD_CROSS_CHECK_MAX_ENTRIES:
        fd_det = _pinv_chart_det(cfg, x, matcore.pinv(x))
        values["fd_chart_det"] = fd_det
        residuals["fd_vs_formula"] = _rel(abs(fd_det - det_formula), det_formula)
    return VerificationReport(
        check_name="jacobian-full",
        inputs={"n": cfg.n, "m": cfg.m, "q": q},
        values=values,
        residuals=residuals,
        tol=cfg.tol,
    )


def _suite_operator_rank(cfg: RunConfig, rng: np.random.Generator) -> VerificationReport:
    q = cfg.rank
    x = _instance(cfg, rng)
    op = differential.jacobian_operator(x)
    expected = cfg.n * q + cfg.m * q - q * q
    y = matcore.pinv(x)
    v = rng.standard_normal((cfg.n, cfg.m))
    projected = (np.eye(cfg.n) - x @ y) @ v @ (np.eye(cfg.m) - y @ x)
    image = op @ matcore.vec(projected) if projected.size else np.zeros(0)
    scale = np.linalg.norm(op) * max(np.linalg.norm(projected), 1e-300)
    annihilation = _rel(np.linalg.norm(image), scale)
    op_info = matcore.rank_profile(op)
    op_rank = op_info.rank
    # The dense operator's pseudo-determinant against the product of the
    # closed-form spectrum, prod d^-2(n+m-q), the paper's rank-deficient
    # factor.  Both are summed as logs of the individual singular values:
    # the products themselves leave the float range at moderate sizes.
    log_pdet = np.sum(np.log(op_info.singular_values[:expected]))
    log_factor = np.sum(np.log(differential.operator_spectrum(x, matcore.rank_profile(x))))
    values = {"operator_rank": op_rank, "expected_rank": expected}
    if q < min(cfg.n, cfg.m) and expected <= FD_CROSS_CHECK_MAX_ENTRIES:
        # No closed form is known for this determinant; it is reported for
        # reproducibility only, never asserted against a formula.
        values["deficient_chart_det"] = _pinv_chart_det(cfg, x, y)
    return VerificationReport(
        check_name="operator-rank",
        inputs={"n": cfg.n, "m": cfg.m, "q": q},
        values=values,
        residuals={"annihilation": annihilation, "pseudo_det": float(abs(log_pdet - log_factor))},
        tol=cfg.tol,
        conditions=(op_rank == expected,),
    )


def _suite_hausdorff(cfg: RunConfig, rng: np.random.Generator) -> VerificationReport:
    q = cfg.rank
    d = cfg.spectrum or matcore.sample_spectrum(q, rng)
    return measures.hausdorff_ratio_check(cfg.n, cfg.m, d, cfg.tol)


def _suite_invariance(cfg: RunConfig, rng: np.random.Generator) -> VerificationReport:
    q = cfg.rank
    x = _instance(cfg, rng)
    h = matcore.random_stiefel(cfg.n, cfg.n, rng)
    qmat = matcore.random_stiefel(cfg.m, cfg.m, rng)
    return measures.orthogonal_invariance_check(x, q, h, qmat, _fd_config(cfg))


def _suite_symmetric_inverse(cfg: RunConfig, rng: np.random.Generator) -> VerificationReport:
    order = cfg.m
    frame = matcore.random_stiefel(order, order, rng)
    eigs = rng.uniform(0.5, 2.5, size=order)
    s = measures.SymmetricMatrix.from_full((frame * eigs) @ frame.T)
    formula = measures.symmetric_inverse_jacobian_formula(s)
    oracle = measures.symmetric_inverse_fd_det(s, _fd_config(cfg))
    return VerificationReport(
        check_name="symmetric-inverse",
        inputs={"order": order},
        values={"formula": formula, "fd_det": oracle},
        residuals={"fd_mismatch": _rel(abs(formula - oracle), formula)},
        tol=cfg.tol,
    )


def _suite_exterior_chain(cfg: RunConfig, rng: np.random.Generator) -> VerificationReport:
    return measures.exterior_chain_check(_instance(cfg, rng))


def _suite_blocks(cfg: RunConfig, rng: np.random.Generator) -> VerificationReport:
    q = cfg.rank
    x = _instance(cfg, rng)
    b = chart.decompose(x, q)
    x_norm = np.linalg.norm(x)
    roundtrip = _rel(np.linalg.norm(chart.assemble(b) - x), x_norm)
    y = matcore.pinv(x)
    pinv_rel = _rel(np.linalg.norm(chart.pinv_from_blocks(b) - y), np.linalg.norm(y))
    permuted = x[np.ix_(b.row_perm, b.col_perm)]
    trailing = permuted[q:, q:]
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


_SUITES = {
    "differential": _suite_differential,
    "jacobian-full": _suite_jacobian_full,
    "operator-rank": _suite_operator_rank,
    "hausdorff": _suite_hausdorff,
    "invariance": _suite_invariance,
    "symmetric-inverse": _suite_symmetric_inverse,
    "exterior-chain": _suite_exterior_chain,
    "blocks": _suite_blocks,
}
SUITE_NAMES = tuple(_SUITES)


def _redraw(draw, seed: int, trial: int, label: str):
    """``(draw(rng), attempt)`` from the first attempt that is not degenerate.

    Attempt a draws from the stream (seed, trial, a); a degenerate spectrum
    or a rank drift is redrawn up to ``RETRY_BUDGET`` times, then raised
    as DegeneracyBudgetExceeded.  Kept private, so that span tracers that
    wrap public names (perfbench's) still see each attempt's ``make_rng``
    call directly under ``run_trial``.
    """
    last: Exception | None = None
    for attempt in range(1 + RETRY_BUDGET):
        try:
            return draw(matcore.make_rng(seed, trial, attempt)), attempt
        except (DegenerateSpectrum, RankDrift) as e:
            last = e
    raise DegeneracyBudgetExceeded(f"{label}: degenerate after {RETRY_BUDGET} redraws: {last}")


def run_trial(suite: str, cfg: RunConfig, trial: int) -> VerificationReport:
    """One trial with the retry-on-degeneracy policy; pure in (cfg, trial)."""
    fn = _SUITES[suite]
    label = f"suite {suite} trial {trial}"
    report, attempt = _redraw(lambda rng: fn(cfg, rng), cfg.seed, trial, label)
    report.inputs = {**report.inputs, "seed": cfg.seed, "trial": trial, "attempt": attempt}
    return report


def run_suite(suite: str, cfg: RunConfig) -> SuiteResult:
    cfg = validate_config(cfg, suite)
    start = time.perf_counter()
    reports = [run_trial(suite, cfg, t) for t in range(cfg.trials)]
    return SuiteResult(reports=reports, wall_time=time.perf_counter() - start)
