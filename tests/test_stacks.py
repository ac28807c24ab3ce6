"""Trial stacks: a suite's trials checked as one stack give the bytes of the
trials run one by one, a tied slice is redrawn alone, and a stack that
raises a library error reruns as stacks of one."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from helpers import chart_positions, check, random_rank_q, random_stiefel
from mpjl import chart, differential as df, matcore as mc, measures as ms, suites
from mpjl.cli import main
from mpjl.errors import (
    DegeneracyBudgetExceeded, DegenerateSpectrum, IllConditionedPivot, MpjlError, RankMismatch,
)
from mpjl.reports import SuiteResult, VerificationReport, dumps_canonical

# (n, m, q): q = 1 and q = 2 deficient, full rank tall and wide, q = m,
# q = n, a single row.
SHAPES = [(2, 2, 1), (3, 4, None), (4, 3, None), (4, 3, 2), (8, 6, 3), (5, 4, 4), (4, 4, 4),
          (1, 3, None)]


def _bytes(reports) -> str:
    return dumps_canonical(SuiteResult(reports=list(reports)))


def _one_by_one(suite, cfg):
    cfg = suites.validate_config(cfg, suite)
    return _bytes(r for t in range(cfg.trials)
                  for r in suites._run_stack(suite, cfg, range(t, t + 1)))


def _cases():
    ids = set()
    for suite in suites.SUITE_NAMES:
        for n, m, q in SHAPES:
            # symmetric-inverse has one size, m, and takes no other --q.
            q = None if suite == "symmetric-inverse" else q
            cfg = suites.RunConfig(n=n, m=m, q=q, trials=4, seed=5)
            try:
                suites.validate_config(cfg, suite)
            except MpjlError:
                continue
            if (case := f"{suite}-{n}x{m}q{cfg.rank}") not in ids:
                ids.add(case)
                yield pytest.param(suite, cfg, id=case)


@pytest.mark.parametrize("suite, cfg", _cases())
def test_stack_gives_the_bytes_of_the_trials_one_by_one(suite, cfg):
    expected = _one_by_one(suite, cfg)
    # The stacked pass itself, not a fallback, reproduces every trial.
    stacked = suites._run_stack(suite, suites.validate_config(cfg, suite), range(cfg.trials))
    assert _bytes(stacked) == expected
    assert dumps_canonical(suites.run_suite(suite, cfg)) == expected


def _stack_passes(monkeypatch) -> list[int]:
    """Sizes of the stacked passes that ``run_suite`` makes while the test runs."""
    passes, run_stack = [], suites._run_stack

    def spy(*args):
        reports = run_stack(*args)
        passes.append(len(reports))
        return reports

    monkeypatch.setattr(suites, "_run_stack", spy)
    return passes


def test_stacks_split_by_the_entry_budget_give_the_bytes_of_one_stack(monkeypatch):
    cfg = suites.RunConfig(n=4, m=3, q=2, trials=7, seed=8)
    whole = dumps_canonical(suites.run_suite("operator-rank", cfg))
    assert len(suites._trial_stacks("operator-rank",
                                    suites.validate_config(cfg, "operator-rank"))) == 1
    # 2 * 10 points of 12 entries per trial: three trials to a stack.
    monkeypatch.setattr(suites, "STACK_ENTRIES", 3 * 2 * 10 * 12)
    passes = _stack_passes(monkeypatch)
    assert dumps_canonical(suites.run_suite("operator-rank", cfg)) == whole
    assert passes == [3, 3, 1]  # the last trial is a stack of one


def test_suite_without_fd_points_is_sized_by_its_instances(monkeypatch):
    # exterior-chain evaluates no FD point: twelve 30 x 20 trials are one stack.
    cfg = suites.RunConfig(n=30, m=20, trials=12, seed=6)
    expected = _one_by_one("exterior-chain", cfg)
    passes = _stack_passes(monkeypatch)
    assert dumps_canonical(suites.run_suite("exterior-chain", cfg)) == expected
    assert passes == [12]


def _refuse(*args):
    raise AssertionError("the stacked stream hash ran")


def test_one_trial_runs_trial_by_trial_only(monkeypatch):
    # A run of one trial is one stack of one, seeded by make_rng itself.
    passes = _stack_passes(monkeypatch)
    monkeypatch.setattr(mc, "_hash_plan", _refuse)
    result = suites.run_suite("invariance", suites.RunConfig(n=3, m=3, q=2, trials=1, seed=2))
    assert passes == [1] and result.reports[0].inputs["trial"] == 0


def _draw_integers(n, m, q, rngs, spectrum):
    return (np.array([rng.integers(0, 1 << 30) for rng in rngs]),)


def _report_values(cfg, draws):
    return [VerificationReport("stub", {}, {"v": int(v)}, {}, {}, True) for v in draws[0]]


def test_degenerate_draw_falls_back_to_its_retry(monkeypatch):
    # Trial 1's first draw is degenerate: the stack redraws that slice alone
    # from its next attempt's stream, and the other trials keep their first.
    def check(cfg, draws):
        if tied := np.flatnonzero(draws[0] == first_of_trial_1).tolist():
            raise DegenerateSpectrum("synthetic collision", tied)
        return _report_values(cfg, draws)

    def draw(*args):
        drawn.append(len(args[3]))
        return _draw_integers(*args)

    drawn, first_of_trial_1 = [], mc.make_rng(4, 1, 0).integers(0, 1 << 30)
    monkeypatch.setitem(suites._SUITES, "stub", (draw, check))
    cfg = suites.RunConfig(trials=3, seed=4)
    reports = suites._run_stack("stub", cfg, range(3))
    assert [r.inputs["attempt"] for r in reports] == [0, 1, 0] and drawn == [3, 1]
    streams = [(0, 0), (1, 1), (2, 0)]
    assert [r.values["v"] for r in reports] == [mc.make_rng(4, *s).integers(0, 1 << 30)
                                                for s in streams]
    monkeypatch.setattr(suites, "validate_config", lambda cfg, suite: cfg)
    assert _bytes(suites.run_suite("stub", cfg).reports) == _bytes(reports)


def test_real_tied_draw_falls_back_to_its_retry():
    # Trial 1's first spectrum of 20 values from 0.5-2.5 has two values within
    # the request gap: the stack's one sort-and-gap test names that slice,
    # which alone is redrawn, in the one stacked call.
    cfg = suites.validate_config(suites.RunConfig(n=40, m=32, q=20, trials=4, seed=226),
                                 "hausdorff")
    with pytest.raises(DegenerateSpectrum, match="sampled spectrum has tied values"):
        mc.sorted_spectra(mc.make_rng(226, 1, 0).uniform(*mc.SPECTRUM_RANGE, size=20))
    reports = suites._run_stack("hausdorff", cfg, range(4))
    assert [r.inputs["attempt"] for r in reports] == [0, 1, 0, 0]
    assert _bytes(reports) == _one_by_one("hausdorff", cfg)
    assert dumps_canonical(suites.run_suite("hausdorff", cfg)) == _bytes(reports)


def test_an_earlier_trial_s_error_comes_before_a_later_trial_s_spent_budget(monkeypatch):
    # Trial 2 ties at every attempt and trial 0 raises another library error:
    # the stack spends trial 2's retry budget, and the run raises what the
    # trials run one by one raise first, trial 0's error.
    def check(cfg, draws):
        values = draws[0].tolist()
        if tied := [i for i, v in enumerate(values) if v in trial_2]:
            raise DegenerateSpectrum("synthetic collision", tied)
        if trial_0 in values:
            raise RankMismatch("trial 0's own error")
        return _report_values(cfg, draws)

    trial_0 = mc.make_rng(4, 0, 0).integers(0, 1 << 30)
    trial_2 = {mc.make_rng(4, 2, a).integers(0, 1 << 30) for a in range(1 + suites.RETRY_BUDGET)}
    monkeypatch.setitem(suites._SUITES, "stub", (_draw_integers, check))
    monkeypatch.setattr(suites, "validate_config", lambda cfg, suite: cfg)
    cfg = suites.RunConfig(trials=3, seed=4)
    with pytest.raises(DegeneracyBudgetExceeded, match="suite stub trial 2: degenerate after 3"):
        suites._run_stack("stub", cfg, range(3))
    with pytest.raises(RankMismatch, match="trial 0's own error"):
        suites.run_suite("stub", cfg)


def test_an_error_of_another_kind_propagates_from_a_stack(monkeypatch):
    # Only a library error reruns a stack as stacks of one: a fault of the
    # stacked path (here a TypeError on stacks of more than one trial) is
    # raised by the run, never hidden by a rerun that would pass.
    draw, check = suites._SUITES["blocks"]

    def check_alone(cfg, draws):
        if len(draws[0]) > 1:
            raise TypeError("a fault of the stacked path")
        return check(cfg, draws)

    monkeypatch.setitem(suites._SUITES, "blocks", (draw, check_alone))
    cfg = suites.RunConfig(n=5, m=4, q=2, trials=3, seed=9)
    assert suites.run_suite("blocks", replace(cfg, trials=1)).all_passed
    with pytest.raises(TypeError, match="stacked path"):
        suites.run_suite("blocks", cfg)
    with pytest.raises(TypeError, match="stacked path"):
        main(["verify", "blocks", "--n", "5", "--m", "4", "--q", "2", "--trials", "3"])


@given(st.integers(0, 2**130), st.integers(0, suites.RETRY_BUDGET), st.integers(0, 2**32 - 64),
       st.integers(1, 64))
@example(2**32, 0, 0, 5)  # a two-word seed
@example(2**64 + 3, 1, 2**32 - 64, 64)  # a three-word seed; the last trial indices
@example(2**128, 0, 5, 5)  # the trial index is the sixth entropy word, past the pool
def test_stacked_streams_are_the_streams_of_make_rng(seed, attempt, start, size):
    trials = range(start, start + size)
    for t, rng in zip(trials, mc.make_rngs(seed, trials, attempt), strict=True):
        assert rng.bit_generator.state == mc.make_rng(seed, t, attempt).bit_generator.state


@given(st.integers(0, 2**130), st.lists(st.integers(0, 2**130), max_size=3))
@example(2**32 - 1, [])  # the largest one-word seed
@example(2**32, [0])  # a two-word seed
@example(2**64 + 3, [2**32, 2**32 - 1, 5])  # a three-word seed, then two- and one-word entries
def test_make_rng_seeds_numpys_own_seed_sequence(seed, path):
    # The independent reference of make_rng, and so of make_rngs: SeedSequence's own
    # coercion of the list [seed, *path] to its entropy words.
    want = np.random.default_rng(np.random.SeedSequence([seed, *path])).bit_generator.state
    assert mc.make_rng(seed, *path).bit_generator.state == want


@pytest.mark.parametrize("args", [(-1,), (-1, 0), (3, -1), (3, 0, -(2**40))])
def test_make_rng_refuses_a_negative_seed_or_path_entry(args):
    with pytest.raises(ValueError):
        mc.make_rng(*args)


def test_stacks_below_five_trials_seed_one_stream_at_a_time(monkeypatch):
    # The stacked hash has a fixed cost that per-trial make_rng calls undercut below 5 trials.
    calls, make_rng = [], mc.make_rng
    monkeypatch.setattr(mc, "make_rng", lambda *args: calls.append(args) or make_rng(*args))
    mc.make_rngs(7, range(3, 7), 1)
    assert calls == [(7, t, 1) for t in range(3, 7)]
    calls.clear()
    mc.make_rngs(7, range(3, 8), 1)
    assert calls == []


@pytest.mark.parametrize("args", [(-1, range(2)), (-1, range(5)), (3, [0, -1]), (3, [2**32]),
                                  (3, range(2), -1), (3, range(5), -1)])
def test_stacked_streams_refuse_what_has_no_stream_of_its_own(args):
    with pytest.raises(ValueError):
        mc.make_rngs(*args)


def _always_degenerate(cfg, draws):
    raise DegenerateSpectrum("synthetic collision")


# Trials of these runs raise; the stack reruns as stacks of one and the run
# raises what the trials run one by one raise, with its message and the
# CLI's exit code.
# The last element, when not None, stands in for the suite's (draw, check).
FALLBACKS = [
    ("invariance", dict(n=3, m=3, q=2, spectrum=(100000.0, 0.001), seed=1), IllConditionedPivot,
     "pivot block has condition 1.517e+08 > 1e+08", 1, None),
    ("blocks", dict(n=3, m=3, q=2, spectrum=(100000.0, 0.001), seed=1), IllConditionedPivot,
     "pivot block has condition 1.517e+08 > 1e+08", 1, None),
    # Every draw is degenerate, so the retry budget runs out.
    ("differential", dict(n=7, m=5, q=3, spectrum=(1000.0, 1.0, 0.001), seed=12345),
     DegeneracyBudgetExceeded, "trial 0: degenerate after 3 redraws: synthetic collision", 3,
     (_draw_integers, _always_degenerate)),
]


@pytest.mark.parametrize("suite, config, error, message, code, stub", FALLBACKS,
                         ids=[f"{c[0]}-seed{c[1]['seed']}" for c in FALLBACKS])
def test_failing_stack_raises_what_the_trial_loop_raises(monkeypatch, capsys, suite, config,
                                                         error, message, code, stub):
    if stub is not None:
        monkeypatch.setitem(suites._SUITES, suite, stub)
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
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {one_by_one.value}\n"


def test_ill_conditioned_operator_rank_stack_reports_honest_leak_fails(capsys):
    # At cond(X) = 1e6 the chart tangent of operator-rank moves no point
    # that would make a pivot test, so the stack does not fall back trial by
    # trial: it gives the bytes of the trials one by one, six reports that
    # fail on the leak, an eps * cond(X) rounding above its tolerance, and on
    # the area formula (1.8e-6 to 8.2e-5 against 1e-9), where the chart
    # determinant carries the error (the closed form is within 2e-10 of a
    # 50-digit value), and exit code 1.
    config = dict(n=4, m=3, q=2, trials=6, spectrum=(1000.0, 0.001), seed=4)
    cfg = suites.validate_config(suites.RunConfig(**config), "operator-rank")
    expected = _one_by_one("operator-rank", cfg)
    assert _bytes(suites._run_stack("operator-rank", cfg, range(6))) == expected
    reports = suites.run_suite("operator-rank", cfg).reports
    assert _bytes(reports) == expected
    for report in reports:
        failing = [k for k, v in report.residuals.items() if v > report.tolerances[k]]
        assert failing == ["leak", "area_formula"] and not report.passed
        assert report.values["operator_rank"] == report.values["expected_rank"]
    argv = ["verify", "operator-rank", "--n", "4", "--m", "3", "--q", "2", "--trials", "6",
            "--spectrum", "1000,0.001", "--seed", "4", "--format", "json"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == expected and captured.err == ""


def test_ill_conditioned_invariance_stack_passes(capsys):
    # At cond(X) = 1e6 the exact tangent map of invariance moves no point
    # off X's chart, so nothing leaves the pivot block's validity region (the
    # central-difference points used to, and the run exited 1): the stack
    # gives the bytes of the trials one by one, six PASS reports, exit 0.
    config = dict(n=4, m=4, q=2, trials=6, spectrum=(1000.0, 0.001), seed=3)
    cfg = suites.validate_config(suites.RunConfig(**config), "invariance")
    expected = _one_by_one("invariance", cfg)
    assert _bytes(suites._run_stack("invariance", cfg, range(6))) == expected
    result = suites.run_suite("invariance", cfg)
    assert _bytes(result.reports) == expected
    assert len(result.reports) == 6 and result.all_passed
    argv = ["verify", "invariance", "--n", "4", "--m", "4", "--q", "2", "--trials", "6",
            "--spectrum", "1000,0.001", "--seed", "3", "--format", "json"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == expected and captured.err == ""


def test_rank_q_draws_build_bit_for_bit_as_one_stack():
    n, m, q = 5, 4, 3
    d, g_left, g_right = mc.draw_rank_q(n, m, q, [mc.make_rng(9, t) for t in range(6)])
    stack = mc.rank_q_from_draw(mc.sorted_spectra(d), g_left, g_right)
    for t, x in enumerate(stack):
        assert np.array_equal(x, random_rank_q(n, m, q, mc.make_rng(9, t)))
    frames = mc.orthonormal_frames(np.array([mc.make_rng(9, t).standard_normal((4, 4))
                                             for t in range(6)]))
    for t, frame in enumerate(frames):
        assert np.array_equal(frame, random_stiefel(4, 4, mc.make_rng(9, t)))


def _calls_one_by_one(suite, n, m, q, rng):
    # A suite's draw as one generator call per block: uniform spectra, then the Gaussian blocks.
    def normal(*shapes):
        return [rng.standard_normal(shape) for shape in shapes]

    if suite == "symmetric-inverse":
        return [*normal((m, m)), rng.uniform(*mc.SPECTRUM_RANGE, size=m)]
    d = rng.uniform(*mc.SPECTRUM_RANGE, size=q)
    if suite == "hausdorff":
        return [d]
    more = {"invariance": [(n, n), (m, m)],
            "differential": [(n, m)] if q == min(n, m) else [(q, q), (q, m - q), (n - q, q)]}
    return [d, *normal((n, q), (m, q), *more.get(suite, []))]


@pytest.mark.parametrize("suite", suites.SUITE_NAMES)
def test_one_normal_call_per_draw_gives_the_bits_of_one_call_per_block(suite):
    # The Gaussian blocks of a stacked draw come from one standard_normal fill
    # per generator, split, and its spectra from one random fill, scaled: each
    # slice holds its stream's values of the calls one block at a time.
    for n, m, q in ((5, 4, 2), (3, 4, 3)):
        q = m if suite == "symmetric-inverse" else q
        draw = suites._SUITES[suite][0](n, m, q, [mc.make_rng(29, n, q, t) for t in range(3)],
                                        None)
        for t in range(3):
            want = _calls_one_by_one(suite, n, m, q, mc.make_rng(29, n, q, t))
            assert len(draw) == len(want)
            for got, part in zip(draw, want):
                assert got.shape == (3, *part.shape) and np.array_equal(got[t], part)


def _stacked_and_single(x, q, directions, draws):
    """Every function that takes a stack, on a stack ``x`` of rank q or on one matrix, and
    the exterior-chain check on the draws of that stack or of that one matrix."""
    n, m = x.shape[-2:]
    info = mc.rank_profile(x)
    b = chart.decompose(x, q)
    dx = chart.tangent_perturbation(b, *directions)
    dx = dx / mc.frobenius_norms(dx)[..., None, None]
    # The factor as operator-rank reads it: a copy of the retained values, C-contiguous.
    log_factor = ms._log_factor(n, m, info.singular_values[..., :q].copy())
    out = {"rank": info.rank, "log_factor": log_factor,
           "pinv_from_blocks": chart.pinv_from_blocks(b),
           "tangent": dx, "differential": df.pinv_differential(x, dx),
           "chart_derivative": chart.pinv_chart_derivative(b, b.coordinates(dx))}
    if len(b) <= 40:  # the tangent along every chart direction, read in X's chart
        out["chart_jacobian"] = chart.pinv_chart_jacobian(b)
    if q == min(n, m):
        out["gram_qr"], out["log_gram_det"] = mc.gram_qr(x)
        out["full_rank_log_det"] = df.log_jacobian_det_full_rank(x, info)
    if q == m <= n:
        reports = check("exterior-chain", draws, n=n, m=m)
        out["exterior_chain"] = [dumps_canonical(r.to_json()) for r in reports]
    if m <= 8:  # S = X'X - I/10: symmetric, indefinite below full column rank
        s = ms.symmetric_part(x.swapaxes(-1, -2) @ x - 0.1 * np.eye(m))
        out.update(symmetric_part=s, symmetric_formula=ms.log_symmetric_inverse_jacobian(s),
                   symmetric_fd_det=ms.symmetric_inverse_fd_det(s))
    return out


@pytest.mark.parametrize("n, m, draws", [(4, 3, 300), (2, 1, 300), (3, 4, 100), (24, 20, 40),
                                         (8, 6, 60), (5, 5, 60), (1, 3, 60)])
def test_stacked_determinants_give_the_bits_of_each_matrix(n, m, draws):
    # Every function that takes a stack gives each slice the bits of a stack
    # of one, and a 2-D (or 0-d) call is a stack of one, at full and at a
    # deficient rank.
    for q in sorted({min(n, m), (min(n, m) + 1) // 2}):
        seeds = [(15, t) if q == min(n, m) else (16, q, t) for t in range(draws)]
        x = np.array([random_rank_q(n, m, q, mc.make_rng(*s)) for s in seeds])
        trial_draws = mc.draw_rank_q(n, m, q, [mc.make_rng(*s) for s in seeds])
        assert np.array_equal(mc.frobenius_norms(x), [mc.frobenius_norms(one) for one in x])
        rng = mc.make_rng(17, n, m, q)
        directions = [rng.standard_normal((draws, *shape))
                      for shape in ((q, q), (q, m - q), (n - q, q))]
        stacked = _stacked_and_single(x, q, directions, trial_draws)
        for t, one in enumerate(x):
            single = _stacked_and_single(one, q, [d[t] for d in directions],
                                         mc.draw_rank_q(n, m, q, [mc.make_rng(*seeds[t])]))
            assert single.keys() == stacked.keys()
            for key, value in single.items():
                got = stacked[key][t]
                if key == "exterior_chain":  # canonical JSON, one report
                    assert got == value[0], t
                else:  # equal values and equal signs of zero
                    assert np.array_equal(got, value), (key, t)
                    assert np.array_equal(np.signbit(got), np.signbit(value)), (key, t)


@st.composite
def viewed_stacks(draw):
    """1 to 12 slices of n x m positive entries, each slice scaled by e^-30 to e^30, as a
    C-contiguous array or as a view reversed or strided along each axis."""
    size, n, m = draw(st.integers(1, 12)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = mc.make_rng(draw(st.integers(0, 2**31 - 1)))
    base = np.abs(rng.standard_normal((2 * size, 2 * n, 2 * m)))
    base *= np.exp(rng.uniform(-30, 30, (2 * size, 1, 1)))
    steps = tuple(slice(None, None, draw(st.sampled_from([1, -1, 2, -2]))) for _ in range(3))
    x = base[steps][:size, :n, :m]
    if draw(st.booleans()):
        x = np.ascontiguousarray(x)
    return x


@given(viewed_stacks())
@example(np.ones((3, 1, 1)))
@example(np.exp(np.linspace(-30, 30, 60)).reshape(2, 5, 6)[::-1, ::-1, ::2])
def test_a_stack_gives_every_slice_the_bits_of_a_stack_of_one(x):
    # In any layout: each slice as a C-contiguous stack of one, and as a 2-D
    # call, which is a stack of one.
    ones = [np.array(x[i:i + 1], order="C") for i in range(len(x))]
    norms = mc.frobenius_norms(x)
    assert np.array_equal(norms, [mc.frobenius_norms(one)[0] for one in ones])
    assert np.array_equal(norms, [mc.frobenius_norms(one) for one in x])
    info = mc.rank_profile(x)
    assume(len(set(info.rank.tolist())) == 1)
    n, m, q = *x.shape[-2:], info.rank[0]

    def log_factor(a):  # of the retained singular values, as operator-rank reads them
        return ms._log_factor(n, m, mc.rank_profile(a).singular_values[..., :q].copy())

    logs = log_factor(x)
    assert np.array_equal(logs, [log_factor(one)[0] for one in ones])
    assert np.array_equal(logs, [log_factor(one) for one in x])
    if info.rank[0] == min(x.shape[-2:]):  # the QR log-Gram read takes full-rank slices
        r, log_gram = mc.gram_qr(x)
        for i, (one, two_d) in enumerate(zip(ones, x)):
            for (r_one, log_one), at in ((mc.gram_qr(one), 0), (mc.gram_qr(two_d), ())):
                assert np.array_equal(r[i], r_one[at]) and log_gram[i] == log_one[at]


@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_operator_rank_residuals_of_a_stack_are_those_of_its_trials(n, m, data):
    # Spectra e^scale geomspace(1, 10^-c, q), scales e^-30 to e^30, c = 1 to 4.
    q, size = data.draw(st.integers(1, min(n, m))), data.draw(st.integers(2, 6))
    seed, scale = data.draw(st.integers(0, 2**31 - 1)), data.draw(st.floats(-30, 30))
    spectrum = tuple(np.exp(scale) * np.geomspace(1.0, 10.0 ** -data.draw(st.integers(1, 4)), q))
    cfg = suites.validate_config(
        suites.RunConfig(n=n, m=m, q=q, trials=size, seed=seed, spectrum=spectrum), "operator-rank")
    draws = mc.draw_rank_q(n, m, q, mc.make_rngs(seed, range(size)), spectrum)
    stacked = suites._check_operator_rank(cfg, draws)
    for t, report in enumerate(stacked):
        draw = mc.draw_rank_q(n, m, q, [mc.make_rng(seed, t)], spectrum)
        [alone] = suites._check_operator_rank(cfg, draw)
        assert dumps_canonical(report.to_json()) == dumps_canonical(alone.to_json())


def test_stacked_decompose_and_fd_chart_factor_one_stack(svd_shapes):
    n, m, q, trials = 4, 3, 2, 5
    x = np.array([random_rank_q(n, m, q, mc.make_rng(12, t)) for t in range(trials)])
    svd_shapes.clear()
    in_chart = chart.decompose(x, q)
    # The rank of every slice, then every X11 test, each in one stacked SVD.
    assert svd_shapes == [(trials, n, m), (trials, q, q)]
    rng = mc.make_rng(12)
    h = mc.orthonormal_frames(rng.standard_normal((trials, n, n)))
    qmat = mc.orthonormal_frames(rng.standard_normal((trials, m, m)))
    svd_shapes.clear()
    # The chart Jacobians of the fd-chart checks factor nothing: the tangents
    # of pinv and of a sandwich move no point that would need a pivot test.
    jac = chart.pinv_chart_jacobian(in_chart)
    tangent = chart.sandwich_chart_jacobian(h, qmat, in_chart, in_chart)
    assert svd_shapes == []
    for t in range(trials):
        one_chart = chart.decompose(x[t], q)
        one = chart.pinv_chart_jacobian(one_chart)
        assert np.array_equal(jac[t], one)
        assert np.array_equal(tangent[t],
                              chart.sandwich_chart_jacobian(h[t], qmat[t], one_chart, one_chart))


def test_stacked_decompose_raises_for_any_bad_slice():
    x = np.array([random_rank_q(4, 3, 2, mc.make_rng(13, t)) for t in range(3)])
    x[1] = random_rank_q(4, 3, 1, mc.make_rng(14))
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
    assert np.array_equal(chart_positions(b), [chart_positions(s) for s in each])
    for name in ("x11", "x12", "x21"):
        assert np.array_equal(getattr(b, name), np.array([getattr(s, name) for s in each]))
    assert np.array_equal(chart.assemble(b), np.array([chart.assemble(s) for s in each]))


@st.composite
def indexed_stacks(draw):
    """(stack, q, index, cached): 2 to 6 rank-q slices, an integer, slice (reversed and
    strided ones included) or integer-array index of them, and whether W and Z are taken
    on the whole stack first."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    q = draw(st.integers(1, min(n, m)))
    size = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**31 - 1))
    stack = np.array([random_rank_q(n, m, q, mc.make_rng(seed, t)) for t in range(size)])
    index = draw(st.integers(-size, size - 1) | st.slices(size)
                 | st.lists(st.integers(0, size - 1), min_size=1).map(np.array))
    return stack, q, index, draw(st.booleans())


@given(indexed_stacks())
@example((np.array([random_rank_q(5, 4, 2, mc.make_rng(15, t)) for t in range(5)]), 2,
          slice(None, None, -2), True))
def test_sub_chart_has_the_bits_of_its_slices_pivoted_alone(case):
    stack, q, index, cached = case
    assume(stack[index].size)
    b = chart._pivot(stack, q)
    if cached:
        b.w, b.z  # taken on the whole stack, then indexed
    alone = chart._pivot(stack[index], q)
    sub = b[index]
    for name in ("x11", "x12", "x21", "row_perm", "col_perm", "w", "z"):
        got, want = getattr(sub, name), getattr(alone, name)
        assert got.shape == want.shape and np.array_equal(got, want), name
        assert np.array_equal(np.signbit(got), np.signbit(want)), name
    assert np.array_equal(chart.assemble(sub), chart.assemble(alone))
    if sub.x11.ndim == 2:
        with pytest.raises(TypeError, match="single chart"):
            sub[0]


def test_invariance_tests_x_rank_once_and_pivots_both_charts_as_one_stack(svd_shapes):
    # X's rank, then the X11 tests of X and H X Q as one (2, T) stack.
    n, m, q, trials = 5, 4, 2, 3
    cfg = suites.validate_config(suites.RunConfig(n=n, m=m, q=q, trials=trials, seed=63),
                                 "invariance")
    reports = suites._run_stack("invariance", cfg, range(trials))
    assert all(r.passed for r in reports)
    assert svd_shapes == [(trials, n, m), (2, trials, q, q)]


def _invariance_trial(cond, seed, rank=2):
    # A 4 x 3 instance of rank ``rank``, spectrum geomspace(1, 1/cond, rank), with H and Q.
    rng = mc.make_rng(seed)
    x = random_rank_q(4, 3, rank, rng, np.geomspace(1.0, 1.0 / cond, rank))
    return x, random_stiefel(4, 4, rng), random_stiefel(3, 3, rng)


def _invariance_stack(bad):
    # Three trials, the middle one ``bad``: (cond, seed, rank) of _invariance_trial.
    trials = _invariance_trial(1e2, 0), _invariance_trial(*bad), _invariance_trial(1e2, 1)
    return tuple(map(np.array, zip(*trials)))


# Name -> the middle trial, the chart whose pivot block fails alone (if one
# does), and the error that trial raises checked alone: the same type and
# message as when X and H X Q were pivoted in two passes.
INVARIANCE_ERRORS = {
    "hxq-pivot": ((5e7, 129, 2), "out", IllConditionedPivot,
                  "pivot block has condition 1.030e+08 > 1e+08"),
    "x-pivot": ((5e7, 51, 2), "in", IllConditionedPivot,
                "pivot block has condition 1.004e+08 > 1e+08"),
    "wrong-rank": ((1e2, 2, 1), None, RankMismatch, "numerical rank 1 != requested q=2"),
}


@pytest.mark.parametrize("name", INVARIANCE_ERRORS)
def test_invariance_stack_raises_the_error_of_its_bad_trial(name):
    bad, failing, error, message = INVARIANCE_ERRORS[name]
    x, h, qmat = _invariance_stack(bad)
    if failing is not None:
        charts = {"in": x[1], "out": h[1] @ x[1] @ qmat[1]}
        for side, a in charts.items():
            if side == failing:
                with pytest.raises(IllConditionedPivot, match=re.escape(message)):
                    chart._pivot(a, 2)
            else:
                chart._pivot(a, 2)
    with pytest.raises(error):
        suites.judge_invariance(x, 2, h, qmat)
    for t in range(3):
        one = x[t:t + 1], 2, h[t:t + 1], qmat[t:t + 1]
        if t != 1:
            assert suites.judge_invariance(*one)[0].passed
            continue
        with pytest.raises(error) as raised:
            suites.judge_invariance(*one)
        assert str(raised.value) == message


def test_invariance_reports_the_worse_chart_when_both_pivot_blocks_fail():
    # Both charts of this trial fail their pivot test alone; pivoted as one
    # stack, the error names the worse condition (X's alone reads 1.111e+08).
    x, h, qmat = _invariance_stack((7e7, 100, 2))
    conds = []
    for a in (x[1], h[1] @ x[1] @ qmat[1]):
        with pytest.raises(IllConditionedPivot) as raised:
            chart._pivot(a, 2)
        conds.append(str(raised.value))
    assert conds[0] == "pivot block has condition 1.111e+08 > 1e+08"
    worse = max(conds, key=lambda c: float(c.split()[4]))
    with pytest.raises(IllConditionedPivot) as raised:
        suites.judge_invariance(x[1:2], 2, h[1:2], qmat[1:2])
    assert str(raised.value) == worse == "pivot block has condition 1.231e+08 > 1e+08"


def test_pinv_chart_suites_name_the_worse_pivot_block():
    # operator-rank pivots X alone, as jacobian-full does: X's chart is a chart of Y', so
    # when both pivot blocks of a trial fail alone (Y's reads 1.064e+09, the worse), the
    # error names X's condition.  Exit code 1 either way.
    spectrum = (1.0, 1e-9)
    x = random_rank_q(4, 3, 2, mc.make_rng(0, 0, 0), spectrum)
    conds = []
    for a in (x, mc.pinv(x)):
        with pytest.raises(IllConditionedPivot) as raised:
            chart._pivot(a, 2)
        conds.append(str(raised.value))
    assert conds == ["pivot block has condition 9.612e+08 > 1e+08",
                     "pivot block has condition 1.064e+09 > 1e+08"]
    cfg = suites.RunConfig(n=4, m=3, q=2, trials=3, seed=0, spectrum=spectrum)
    with pytest.raises(IllConditionedPivot) as raised:
        suites.run_suite("operator-rank", cfg)
    assert str(raised.value) == conds[0]


@pytest.mark.parametrize("suite", ["differential", "jacobian-full", "operator-rank", "invariance",
                                   "exterior-chain", "blocks"])
def test_rank_q_suites_draw_through_the_module_lookup(monkeypatch, suite):
    # A replaced (or a tracer's wrapped) matcore.draw_rank_q runs once for each
    # stack of every suite that draws a rank-q instance, with one generator
    # per trial, stacked or not.
    calls, draw = [], mc.draw_rank_q

    def spy(n, m, q, rngs, *args):
        calls.append((n, m, q, len(rngs)))
        return draw(n, m, q, rngs, *args)

    monkeypatch.setattr(mc, "draw_rank_q", spy)
    q = None if suite in ("jacobian-full", "exterior-chain") else 2
    for trials in (3, 1):
        calls.clear()
        cfg = suites.RunConfig(n=5, m=4, q=q, trials=trials, seed=7)
        assert suites.run_suite(suite, cfg).all_passed
        assert calls == [(5, 4, q or 4, trials)]
