"""Trial stacks: a suite's trials checked as one stack give the bytes of the
trials run one by one, and a stack that raises falls back to them."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mpjl import chart, differential as df, matcore as mc, suites
from mpjl.cli import main
from mpjl.errors import (
    ChartInvalid, DegenerateSpectrum, IllConditionedPivot, MpjlError, RankMismatch,
)
from mpjl.reports import SuiteResult, VerificationReport, dumps_canonical

# (n, m, q): q = 1 and q = 2 deficient, full rank tall and wide, q = m,
# q = n, a single row.
SHAPES = [(2, 2, 1), (3, 4, None), (4, 3, None), (4, 3, 2), (8, 6, 3), (5, 4, 4), (4, 4, 4),
          (1, 3, None)]


def _bytes(reports) -> str:
    return dumps_canonical(SuiteResult(reports=list(reports)).to_json())


def _one_by_one(suite, cfg):
    cfg = suites.validate_config(cfg, suite)
    return _bytes(suites.run_trial(suite, cfg, t) for t in range(cfg.trials))


def _cases():
    for suite in suites.SUITE_NAMES:
        for n, m, q in SHAPES:
            cfg = suites.RunConfig(n=n, m=m, q=q, trials=4, seed=5)
            try:
                suites.validate_config(cfg, suite)
            except MpjlError:
                continue
            yield pytest.param(suite, cfg, id=f"{suite}-{n}x{m}q{cfg.rank}")


@pytest.mark.parametrize("suite, cfg", _cases())
def test_stack_gives_the_bytes_of_the_trials_one_by_one(suite, cfg):
    expected = _one_by_one(suite, cfg)
    # The stacked pass itself, not a fallback, reproduces every trial.
    stacked = suites._run_stack(suite, suites.validate_config(cfg, suite), range(cfg.trials))
    assert _bytes(stacked) == expected
    assert dumps_canonical(suites.run_suite(suite, cfg).to_json()) == expected


def test_stacks_split_by_the_entry_budget_give_the_bytes_of_one_stack(monkeypatch):
    cfg = suites.RunConfig(n=4, m=3, q=2, trials=7, seed=8)
    whole = dumps_canonical(suites.run_suite("operator-rank", cfg).to_json())
    assert len(suites._trial_stacks(suites.validate_config(cfg, "operator-rank"))) == 1
    # 2 * 10 points of 12 entries per trial: three trials to a stack.
    monkeypatch.setattr(suites, "STACK_ENTRIES", 3 * 2 * 10 * 12)
    passes, run_stack = [], suites._run_stack

    def spy(*args):
        reports = run_stack(*args)
        passes.append(len(reports))
        return reports

    monkeypatch.setattr(suites, "_run_stack", spy)
    assert dumps_canonical(suites.run_suite("operator-rank", cfg).to_json()) == whole
    assert passes == [3, 3]  # the last trial, a stack of one, runs on its own


def test_one_trial_runs_trial_by_trial_only(monkeypatch):
    stacked = []
    monkeypatch.setattr(suites, "_run_stack", lambda *args: stacked.append(args))
    result = suites.run_suite("invariance", suites.RunConfig(n=3, m=3, q=2, trials=1, seed=2))
    assert stacked == [] and result.reports[0].inputs["trial"] == 0


def test_degenerate_draw_falls_back_to_its_retry(monkeypatch):
    # Trial 1's first draw is degenerate: the stack raises, and the
    # trial-by-trial pass retries that trial alone.
    def draw(cfg, rng):
        value = rng.integers(0, 1 << 30)
        if value == first_of_trial_1:
            raise DegenerateSpectrum("synthetic collision")
        return (value,)

    def check(cfg, draws):
        return [VerificationReport("stub", {}, {"v": int(v)}, {}, {}, True) for v, in draws]

    first_of_trial_1 = mc.make_rng(4, 1, 0).integers(0, 1 << 30)
    monkeypatch.setitem(suites._SUITES, "stub", (draw, check))
    cfg = suites.RunConfig(trials=3, seed=4)
    with pytest.raises(DegenerateSpectrum):
        suites._run_stack("stub", cfg, range(3))
    monkeypatch.setattr(suites, "validate_config", lambda cfg, suite: cfg)
    result = suites.run_suite("stub", cfg)
    assert [r.inputs["attempt"] for r in result.reports] == [0, 1, 0]


# Trials of these runs raise; the stack falls back and the run raises what
# the trial-by-trial loop raises, with its message.
FALLBACKS = [
    ("invariance", dict(n=4, m=4, q=2, spectrum=(1000.0, 0.001), seed=3), ChartInvalid,
     "validity region"),
    ("operator-rank", dict(n=4, m=3, q=2, spectrum=(1000.0, 0.001), seed=4), ChartInvalid,
     "validity region"),
    ("invariance", dict(n=3, m=3, q=2, spectrum=(100000.0, 0.001), seed=1), IllConditionedPivot,
     "pivot block has condition 1.517e+08 > 1e+08"),
]


@pytest.mark.parametrize("suite, config, error, message", FALLBACKS,
                         ids=[f"{c[0]}-seed{c[1]['seed']}" for c in FALLBACKS])
def test_failing_stack_raises_what_the_trial_loop_raises(capsys, suite, config, error, message):
    cfg = suites.validate_config(suites.RunConfig(trials=6, **config), suite)
    with pytest.raises(error) as one_by_one:
        _one_by_one(suite, cfg)
    assert message in str(one_by_one.value)
    with pytest.raises(MpjlError):
        suites._run_stack(suite, cfg, range(cfg.trials))
    with pytest.raises(error) as stacked:
        suites.run_suite(suite, cfg)
    assert str(stacked.value) == str(one_by_one.value)
    spectrum = ",".join(map(str, config["spectrum"]))
    argv = ["verify", suite, "--n", str(cfg.n), "--m", str(cfg.m), "--q", str(cfg.q),
            "--trials", "6", "--spectrum", spectrum, "--seed", str(cfg.seed), "--format", "json"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {one_by_one.value}\n"


def test_rank_q_draws_build_bit_for_bit_as_one_stack():
    n, m, q = 5, 4, 3
    draws = [mc.draw_rank_q(n, m, q, mc.make_rng(9, t)) for t in range(6)]
    stack = mc.rank_q_from_draw(*(np.array(part) for part in zip(*draws)))
    for t, x in enumerate(stack):
        assert np.array_equal(x, mc.random_rank_q(n, m, q, mc.make_rng(9, t)))
    frames = mc.orthonormal_frames(np.array([mc.make_rng(9, t).standard_normal((4, 4))
                                             for t in range(6)]))
    for t, frame in enumerate(frames):
        assert np.array_equal(frame, mc.random_stiefel(4, 4, mc.make_rng(9, t)))


@pytest.mark.parametrize("n, m, draws", [(4, 3, 300), (2, 1, 300), (3, 4, 100), (24, 20, 40)])
def test_stacked_determinants_give_the_bits_of_each_matrix(n, m, draws):
    # Array powers and logs of a stacked spectrum round differently from the
    # 2-D calls in some draws (one in 300 at 4x3 and at 2x1 for the logs);
    # these steps must stay per slice.
    x = np.array([mc.random_rank_q(n, m, min(n, m), mc.make_rng(15, t)) for t in range(draws)])
    info = mc.rank_profile(x)
    stacked = [df.jacobian_det_operator(x, info), df.jacobian_det_full_rank(x, info),
               df.operator_log_pdet(x, info)]
    for t, one in enumerate(x):
        one_info = mc.rank_profile(one)
        assert one_info.rank == info.rank[t]
        for values, f in zip(stacked, (df.jacobian_det_operator, df.jacobian_det_full_rank,
                                       df.operator_log_pdet)):
            assert values[t] == f(one, one_info)


def test_stacked_decompose_and_fd_chart_factor_one_stack(svd_shapes):
    n, m, q, trials = 4, 3, 2, 5
    x = np.array([mc.random_rank_q(n, m, q, mc.make_rng(12, t)) for t in range(trials)])
    y = mc.pinv(x)
    svd_shapes.clear()
    in_chart = chart.decompose(x, q)
    # The rank of every slice, then every X11 test, each in one stacked SVD.
    assert svd_shapes == [(trials, n, m), (trials, q, q)]
    out_chart = chart.decompose(y, q)
    svd_shapes.clear()
    jac = df.fd_chart_jacobian(df.PinvMap(rank=q), x, in_chart, out_chart)
    points = 2 * len(in_chart)
    assert svd_shapes == [(points, trials, q, q), (points, trials, n, m)]
    for t in range(trials):
        one = df.fd_chart_jacobian(df.PinvMap(rank=q), x[t], chart.decompose(x[t], q),
                                   chart.decompose(y[t], q))
        assert np.array_equal(jac[t], one)


def test_stacked_decompose_raises_for_any_bad_slice():
    x = np.array([mc.random_rank_q(4, 3, 2, mc.make_rng(13, t)) for t in range(3)])
    x[1] = mc.random_rank_q(4, 3, 1, mc.make_rng(14))
    with pytest.raises(RankMismatch, match="differ in rank: \\[1, 2\\]"):
        chart.decompose(x, 2)
    with pytest.raises(RankMismatch, match="numerical rank 2 != requested q=1"):
        chart.decompose(x[[0, 2]], 1)
    x[1] = 0.0
    x[1, 0, 0], x[1, 1, 1] = 1.0, 1e-9
    with pytest.raises(IllConditionedPivot, match="condition 1.000e\\+09"):
        chart.decompose(x, 2)


@st.composite
def integer_stacks(draw):
    """(stack, q): 1 to 5 small-integer products A B of one shape, ties everywhere."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    q = draw(st.integers(1, min(n, m)))
    size = draw(st.integers(1, 5))
    ints = st.integers(-2, 2)
    a = np.array(draw(st.lists(ints, min_size=size * n * q, max_size=size * n * q)), float)
    b = np.array(draw(st.lists(ints, min_size=size * q * m, max_size=size * q * m)), float)
    return a.reshape(size, n, q) @ b.reshape(size, q, m), q


def _decompose_or_error(x, q):
    try:
        return chart.decompose(x, q)
    except MpjlError as e:
        return type(e)


@given(integer_stacks())
@example((np.stack([np.ones((3, 4)), -np.ones((3, 4))]), 1))
@example((np.stack([np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([[2.0, 2.0], [2.0, -2.0]])]), 2))
def test_stacked_decompose_matches_each_slice(case):
    stack, q = case
    each = [_decompose_or_error(x, q) for x in stack]
    failed = [b for b in each if isinstance(b, type)]
    if failed:
        with pytest.raises(MpjlError):
            chart.decompose(stack, q)
        return
    b = chart.decompose(stack, q)
    assert np.array_equal(b.row_perm, [s.row_perm for s in each])
    assert np.array_equal(b.col_perm, [s.col_perm for s in each])
    assert np.array_equal(b.positions, [s.positions for s in each])
    for name in ("x11", "x12", "x21"):
        assert np.array_equal(getattr(b, name), np.array([getattr(s, name) for s in each]))
    assert np.array_equal(chart.assemble(b), np.array([chart.assemble(s) for s in each]))
