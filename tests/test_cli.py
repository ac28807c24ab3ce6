"""CLI behavior: determinism, exit codes, suite plumbing, report merging."""

import argparse
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import random_rank_q
from mpjl import cli, matcore as mc, reports, suites
from mpjl.cli import main
from mpjl.errors import BadSpectrum, ConfigError, DegeneracyBudgetExceeded, DegenerateSpectrum
from mpjl.reports import ReportStack


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_deterministic(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(["gen", "--n", "4", "--m", "3", "--q", "2", "--seed", "7", "--out", str(p1)]) == 0
    assert main(["gen", "--n", "4", "--m", "3", "--q", "2", "--seed", "7", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["rank_info"]["rank"] == 2
    assert payload["matrix"]["rows"] == 4


def test_gen_invalid_rank_exits_2(capsys):
    code, _, err = run_cli(capsys, "gen", "--q", "5", "--n", "4", "--m", "3")
    assert code == 2
    assert "q" in err


def test_gen_explicit_spectrum_roundtrip(tmp_path):
    out = tmp_path / "g.json"
    assert main(["gen", "--n", "4", "--m", "3", "--q", "2", "--seed", "1",
                 "--spectrum", "3,1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    matrix = payload["matrix"]
    x = np.reshape(matrix["data"], (matrix["rows"], matrix["cols"]))
    _, info = mc.svd_thin(x)
    assert info.rank == 2
    np.testing.assert_allclose(info.singular_values[:2], [3.0, 1.0], rtol=1e-10)


@pytest.mark.parametrize("flag", [
    ["--tol", "1e-30"], ["--fd-step", "1e-3"], ["--format", "text"], ["--trials", "7"],
])
def test_gen_refuses_verify_flags(capsys, flag):
    # gen reads none of these; accepting them would hide a mistyped command.
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "3", "--m", "2", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["invariance", "differential"])
def test_verify_refuses_fd_step(capsys, suite):
    # --fd-step set the central-difference step of the invariance oracle,
    # which the exact tangent map replaced; no suite takes it now.
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, "--fd-step", "1e-3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mpjl verify")  # the command's own parser reports it
    assert "unrecognized arguments: --fd-step 1e-3" in err


def test_python_dash_m_runs_the_cli(tmp_path):
    # README's `python -m mpjl ...`, with the package on PYTHONPATH only.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "mpjl", *argv], capture_output=True,
                              text=True, env=env, cwd=tmp_path, timeout=120)

    done = run("verify", "invariance", "--n", "3", "--m", "3", "--q", "2", "--trials", "2",
               "--seed", "1")
    assert (done.returncode, done.stderr) == (0, "")
    assert "failed=0" in done.stdout
    refused = run("verify", "invariance", "--fd-step", "1e-3")
    assert refused.returncode == 2 and refused.stdout == ""
    assert "unrecognized arguments: --fd-step 1e-3" in refused.stderr


def test_gen_bad_spectrum_exits_2(capsys):
    code, _, err = run_cli(capsys, "gen", "--n", "3", "--m", "3", "--q", "2",
                           "--spectrum", "1,2")
    assert code == 2


# A passing configuration of every suite, in suite order.
SUITE_CONFIGS = {
    "differential": ["--n", "5", "--m", "3", "--q", "3"],
    "jacobian-full": ["--n", "4", "--m", "2"],
    "operator-rank": ["--n", "4", "--m", "4", "--q", "2"],
    "hausdorff": ["--n", "6", "--m", "5", "--q", "3"],
    "invariance": ["--n", "3", "--m", "3"],
    "symmetric-inverse": ["--m", "3"],
    "exterior-chain": ["--n", "5", "--m", "3", "--q", "3"],
    "blocks": ["--n", "5", "--m", "4", "--q", "2"],
}


@pytest.mark.parametrize("suite,extra", SUITE_CONFIGS.items())
def test_verify_suites_pass(capsys, suite, extra):
    code, out, _ = run_cli(capsys, "verify", suite, *extra, "--trials", "4", "--seed", "11")
    assert code == 0
    assert "failed=0" in out


def test_verify_failure_exits_1(capsys):
    code, out, _ = run_cli(capsys, "verify", "differential", "--n", "4", "--m", "3",
                           "--trials", "2", "--seed", "1", "--tol", "1e-30")
    assert code == 1
    assert "FAIL" in out


def test_verify_invalid_suite_config_exits_2(capsys):
    code, _, _ = run_cli(capsys, "verify", "jacobian-full", "--n", "4", "--m", "3",
                         "--q", "2", "--trials", "2")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "exterior-chain", "--n", "2", "--m", "4",
                         "--q", "2", "--trials", "2")
    assert code == 2


@pytest.mark.parametrize("argv,seed_env,message", [
    (["verify", "blocks", "--n", "0"], None, "n and m must be >= 1, got n=0, m=3"),
    (["verify", "blocks", "--trials", "0"], None, "trials must be >= 1, got 0"),
    (["verify", "blocks", "--tol", "0"], None, "tol must be positive, got 0.0"),
    (["verify", "jacobian-full", "--n", "4", "--m", "3", "--q", "2"], None,
     "jacobian-full requires full rank: q = min(n, m)"),
    (["gen", "--n", "3", "--m", "3", "--q", "2", "--spectrum", "3,2,1"], None,
     "spectrum has 3 values but q=2"),
    (["gen", "--spectrum", "3,x"], None, "--spectrum must be comma-separated floats, got '3,x'"),
    (["gen"], "seven", "MPJL_DEFAULT_SEED must be an integer, got 'seven'"),
    # A NaN tolerance would fail every report and an infinite one pass
    # every report; neither can be written as JSON.
    *((["verify", "blocks", "--trials", "2", "--tol", tol, "--format", "json"], None,
       f"tol must be finite, got {shown}") for tol, shown in
      [("nan", "nan"), ("inf", "inf"), ("1e400", "inf")]),
    # A seed addresses a stream only as a non-negative integer.
    (["verify", "blocks", "--seed", "-1", "--trials", "2"], None, "seed must be >= 0, got -1"),
    (["gen", "--seed", "-1"], None, "seed must be >= 0, got -1"),
    (["verify", "hausdorff"], "-3", "seed must be >= 0, got -3"),
    # symmetric-inverse draws its eigenvalues and has one size, m.
    (["verify", "symmetric-inverse", "--m", "3", "--spectrum", "1000,1,0.001"], None,
     "symmetric-inverse draws its own eigenvalues; drop --spectrum"),
    (["verify", "symmetric-inverse", "--m", "3", "--q", "2"], None,
     "symmetric-inverse has order m=3; drop --q or set it to m"),
    # A spectrum with a tied gap and a wrong count names the gap: the count is checked last.
    (["verify", "blocks", "--n", "4", "--m", "3", "--q", "2", "--spectrum", "3,2.9999999,1"],
     None, "relative spectrum gaps must be >= 1e-06: [3.0, 2.9999999, 1.0]"),
])
def test_refused_configuration_exits_2(capsys, monkeypatch, argv, seed_env, message):
    if seed_env is not None:
        monkeypatch.setenv("MPJL_DEFAULT_SEED", seed_env)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("suite,extra", [
    ("jacobian-full", ["--n", "3", "--m", "2"]),
    ("exterior-chain", ["--n", "3", "--m", "2"]),
    ("differential", ["--n", "3", "--m", "2"]),
    ("blocks", ["--n", "3", "--m", "2", "--q", "2"]),
    ("invariance", ["--n", "3", "--m", "2", "--q", "2"]),
    ("operator-rank", ["--n", "4", "--m", "3", "--q", "2"]),
    ("operator-rank", ["--n", "6", "--m", "5", "--q", "2"]),
])
def test_a_lost_rank_reads_the_same_in_every_suite(capsys, suite, extra):
    # 1e-17 falls below the rank cut, so each trial's X has rank 1 where q=2 is asked.
    code, out, err = run_cli(capsys, "verify", suite, *extra, "--trials", "2",
                             "--spectrum", "1,1e-17")
    assert (code, out, err) == (1, "", "error: numerical rank 1 != requested q=2\n")


@pytest.mark.parametrize("extra", [["--q", "8"], ["--n", "2"], ["--n", "20", "--q", "8"]])
def test_symmetric_inverse_takes_its_order_from_m(capsys, extra):
    # Its one size is the order m: --n neither enters it nor bounds --q.
    argv = ["verify", "symmetric-inverse", "--m", "8", "--trials", "2", "--format", "json"]
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv, *extra) == (0, expected, "")


def test_run_suite_refuses_unknown_suite():
    with pytest.raises(ConfigError, match="unknown suite 'nope'; choose from differential, "):
        suites.run_suite("nope", suites.RunConfig())


def test_run_suite_refuses_a_malformed_spectrum_as_bad_spectrum():
    with pytest.raises(BadSpectrum, match="spectrum must be strictly decreasing"):
        suites.run_suite("blocks", suites.RunConfig(q=2, spectrum=(1.0, 2.0)))
    with pytest.raises(BadSpectrum, match="spectrum has 1 values but q=2"):
        suites.run_suite("blocks", suites.RunConfig(q=2, spectrum=(1.0,)))


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "3", "--m", "2"], ["verify", "blocks", "--trials", "1"], ["report"],
])
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert not path.parent.exists()


def test_out_file_is_whole_when_writes_fall_short(tmp_path, capsys, monkeypatch):
    # A write may take fewer bytes than it is given (a full disk, a signal); the rest is written.
    argv = ["verify", "blocks", "--trials", "2", "--format", "json"]
    code, want, _ = run_cli(capsys, *argv)
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:7]))
    assert main([*argv, "--out", str(tmp_path / "x.json")]) == code
    assert (tmp_path / "x.json").read_text(encoding="utf-8") == want


@pytest.mark.parametrize("suite,extra", [
    ("exterior-chain", ["--n", "5", "--m", "3"]),
    ("invariance", ["--n", "3", "--m", "3"]),
])
def test_tol_refused_without_primary_tolerance(capsys, suite, extra):
    code, out, err = run_cli(capsys, "verify", suite, *extra, "--trials", "2", "--seed", "1",
                             "--tol", "1e-30")
    assert code == 2
    assert out == ""
    assert suite in err and "tol" in err


# The residual whose tolerance --tol replaces, as documented; None: refused.
PRIMARY_RESIDUAL = {
    "differential": "fd_mismatch",
    "jacobian-full": "operator_vs_formula",
    "operator-rank": "annihilation",
    "hausdorff": "identity",
    "invariance": None,
    "symmetric-inverse": "fd_mismatch",
    "exterior-chain": None,
    "blocks": "pinv_blocks",
}


@pytest.mark.parametrize("suite", suites.SUITE_NAMES)
def test_tol_moves_exactly_the_primary_tolerance(capsys, suite):
    argv = ["verify", suite, *SUITE_CONFIGS[suite], "--trials", "2", "--seed", "11",
            "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, tight, err = run_cli(capsys, *argv, "--tol", "1e-30")
    primary = PRIMARY_RESIDUAL[suite]
    if primary is None:
        assert (code, tight) == (2, "")
        assert suite in err and "tol" in err
        return
    assert code in (0, 1)
    for before, after in zip(json.loads(out)["reports"], json.loads(tight)["reports"]):
        expected = {**before["tolerances"], primary: 1e-30}
        assert after["tolerances"] == expected
        assert after["residuals"] == before["residuals"]
        assert after["values"] == before["values"]


def test_verify_json_byte_identical(tmp_path):
    args = ["verify", "hausdorff", "--n", "5", "--m", "4", "--q", "3", "--trials", "8",
            "--seed", "9", "--format", "json"]
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_deficient_invariance_reports_witness(capsys):
    code, out, _ = run_cli(capsys, "verify", "invariance", "--n", "2", "--m", "2",
                           "--q", "1", "--seed", "3", "--trials", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    report = payload["reports"][0]
    assert report["pass"] is True
    assert report["values"]["deviation"] > 0.05
    assert report["values"]["witness"] is True


def test_report_json_wire_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "blocks", "--n", "4", "--m", "3", "--q", "2",
                           "--trials", "1", "--seed", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"reports", "summary"}
    assert set(payload["summary"]) == {"total", "passed", "failed"}
    report = payload["reports"][0]
    assert list(report) == ["check_name", "inputs", "values", "residuals", "tolerances", "pass"]
    assert {"seed", "trial", "attempt"} <= set(report["inputs"])


def test_operator_rank_reports_deficient_chart_det(capsys):
    args = ["verify", "operator-rank", "--n", "3", "--m", "3", "--q", "1",
            "--trials", "2", "--seed", "21", "--format", "json"]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2  # the reported determinant is seed-reproducible
    for report in json.loads(out1)["reports"]:
        assert math.isfinite(report["values"]["log_deficient_chart_det"])
        assert "log_deficient_chart_det" not in report["tolerances"]


@pytest.mark.parametrize("extra", [
    ["--n", "8", "--m", "4", "--q", "4"], ["--n", "5", "--m", "5", "--q", "5"],
    ["--n", "1", "--m", "5", "--q", "1"], ["--n", "4", "--m", "3"],
])
def test_operator_rank_at_full_rank_has_no_annihilation(capsys, extra):
    # At full rank the normal space (I - XY) V (I - YX) is {0}: no
    # annihilation residual, and the rank condition operator_rank =
    # expected_rank = nm judges the kernel; --tol has nothing to replace.
    argv = ["verify", "operator-rank", *extra, "--trials", "5", "--seed", "1"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    n, m = int(extra[1]), int(extra[3])
    for report in json.loads(out)["reports"]:
        assert report["pass"] is True
        assert list(report["residuals"]) == list(report["tolerances"]) == ["pseudo_det", "leak"]
        assert report["values"]["operator_rank"] == report["values"]["expected_rank"] == n * m
    code, out, err = run_cli(capsys, *argv, "--tol", "1e-12")
    assert (code, out) == (2, "")
    assert err == "error: operator-rank at full rank has no annihilation residual; drop --tol\n"


@pytest.mark.parametrize("spectrum", ["1e-100,5e-101", "1e150,5e149", "1e72,5e71", "1e69,4e-77"])
def test_operator_rank_refuses_spectra_outside_the_float_range(capsys, spectrum):
    # 1/d^2 ~ 4e200 squares to inf in the Frobenius norms (the residuals
    # were NaN); 1/d^2 ~ 1e-300 squares to 0 (every residual read 0 and
    # passed); at 1/d^2 ~ 1e-144 a residual eps times that squares to 0.
    # All are refused before any trial runs, in either format.
    for fmt in ("json", "text"):
        code, out, err = run_cli(capsys, "verify", "operator-rank", "--n", "6", "--m", "5",
                                 "--q", "2", "--trials", "2", "--spectrum", spectrum,
                                 "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: operator-rank needs the spectrum in [")
        assert err.endswith("to keep its squared entries in the float range "
                            "[2.225e-308, 1.798e+308]\n") and err.count("\n") == 1


def test_suites_fast_at_default_sizes(capsys):
    # Heaviest suite at the documented default-size envelope (n, m <= 8,
    # trials <= 100) must stay far under the 60 s budget.
    import time

    start = time.perf_counter()
    code, _, _ = run_cli(capsys, "verify", "differential", "--n", "8", "--m", "8",
                         "--q", "4", "--trials", "100", "--seed", "31")
    assert code == 0
    assert time.perf_counter() - start < 60.0


def test_env_default_seed(tmp_path, monkeypatch):
    out1 = tmp_path / "e1.json"
    out2 = tmp_path / "e2.json"
    monkeypatch.setenv("MPJL_DEFAULT_SEED", "777")
    assert main(["gen", "--n", "3", "--m", "3", "--q", "1", "--out", str(out1)]) == 0
    monkeypatch.delenv("MPJL_DEFAULT_SEED")
    assert main(["gen", "--n", "3", "--m", "3", "--q", "1", "--seed", "777",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_merges_disjoint_suites(tmp_path, capsys):
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    main(["verify", "blocks", "--n", "4", "--m", "3", "--q", "2", "--trials", "3",
          "--seed", "5", "--format", "json", "--out", str(pa)])
    main(["verify", "hausdorff", "--n", "4", "--m", "3", "--q", "2", "--trials", "4",
          "--seed", "5", "--format", "json", "--out", str(pb)])
    code, out, _ = run_cli(capsys, "report", str(pa), str(pb), "--format", "json")
    assert code == 0
    merged = json.loads(out)
    assert merged["summary"]["total"] == 7
    assert merged["duplicates"] == []
    names = [r["check_name"] for r in merged["reports"]]
    assert names == sorted(names)


def test_report_flags_duplicates(tmp_path, capsys):
    p = tmp_path / "a.json"
    main(["verify", "blocks", "--n", "4", "--m", "3", "--q", "2", "--trials", "2",
          "--seed", "5", "--format", "json", "--out", str(p)])
    code, out, _ = run_cli(capsys, "report", str(p), str(p), "--format", "json")
    assert code == 0
    merged = json.loads(out)
    assert merged["summary"]["total"] == 4
    assert len(merged["duplicates"]) == 2
    code, out, _ = run_cli(capsys, "report", str(p), str(p), "--format", "text")
    assert code == 0
    assert out.endswith("warning: duplicate trials for ['blocks', 5, 0]\n"
                        "warning: duplicate trials for ['blocks', 5, 1]\n")


# A run file of every suite, 3 trials each at seed 5, and hausdorff at q=2 (seed 6).
EVERY_SUITE = [[suite, "--seed", "5"] for suite in suites.SUITE_NAMES] + [
    ["hausdorff", "--seed", "6", "--q", "2"]]


def _every_suite_files(tmp_path) -> list[str]:
    paths = [str(tmp_path / f"{i}.json") for i in range(len(EVERY_SUITE))]
    for run, path in zip(EVERY_SUITE, paths):
        assert main(["verify", *run, "--trials", "3", "--format", "json", "--out", path]) == 0
    return paths


def test_report_of_every_suite_is_written_from_stacks(tmp_path, capsys, monkeypatch):
    # A merge of well-formed run files is written as one stack per run, from the
    # stacks' columns, hausdorff's spectra of two lengths included: it never
    # reaches json.dumps.
    paths = _every_suite_files(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps wrote the merge")

    stack_rows, written = reports._stack_rows, []
    monkeypatch.setattr(reports, "json", types.SimpleNamespace(dumps=refuse))
    monkeypatch.setattr(reports, "_stack_rows",
                        lambda stack, *args: written.append(stack.check_name)
                        or stack_rows(stack, *args))
    code, out, _ = run_cli(capsys, "report", *paths, "--format", "json")
    assert code == 0 and written == sorted(run[0] for run in EVERY_SUITE)
    assert json.loads(out)["summary"] == {"total": 27, "passed": 27, "failed": 0}


@pytest.mark.parametrize("twice", [False, True])
def test_report_of_a_merge_writes_the_merge_again(tmp_path, monkeypatch, twice):
    # Merging a merged file writes it again byte for byte, with its duplicates
    # (a run file merged twice) or without; each merge groups its reports once.
    paths = _every_suite_files(tmp_path)
    paths += paths[:1] if twice else []
    group, grouped = reports._group, []
    monkeypatch.setattr(reports, "_group", lambda made: grouped.append(len(made)) or group(made))
    merged, again = tmp_path / "merged.json", tmp_path / "again.json"
    assert main(["report", *paths, "--format", "json", "--out", str(merged)]) == 0
    assert main(["report", str(merged), "--format", "json", "--out", str(again)]) == 0
    assert again.read_bytes() == merged.read_bytes()
    total = 30 if twice else 27
    assert grouped == [total, total]
    written = json.loads(merged.read_text())
    assert written["summary"]["total"] == total and len(written["duplicates"]) == 3 * twice


def test_every_input_is_a_column_of_its_stack(tmp_path, monkeypatch):
    # One input form: every stack of every suite's run, and of their merge, holds each
    # input as a column with one entry per report, the n, m and q its reports share
    # included.
    runs, merges = [], []
    run_suite, group = cli.run_suite, reports._group
    monkeypatch.setattr(cli, "run_suite", lambda *args: runs.append(run_suite(*args)) or runs[-1])
    monkeypatch.setattr(reports, "_group", lambda made: merges.append(group(made)) or merges[-1])
    assert main(["report", *_every_suite_files(tmp_path), "--format", "json"]) == 0
    stacks = [stack for result in runs for stack in result.stacks] + [s for m in merges for s in m]
    assert len(runs) == len(EVERY_SUITE) and len(merges) == 1
    assert len(stacks) == 2 * len(EVERY_SUITE)
    for stack in stacks:
        assert list(stack.inputs)[-3:] == ["seed", "trial", "attempt"]
        assert all(type(column) in (list, tuple) and len(column) == len(stack) == 3
                   for column in stack.inputs.values())


def test_report_empty_is_ok(capsys):
    code, out, _ = run_cli(capsys, "report")
    assert code == 0
    assert "total=0" in out


def test_report_parse_error_names_path(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "report", str(bad))
    assert code == 2
    assert str(bad) in err


# (edit of one report of a blocks file, the load path's message): a field
# that merging or rendering reads, of the wrong JSON type.
MALFORMED_REPORTS = [
    (lambda r: r.update(inputs=list(r["inputs"])), "report inputs must be an object, got an array"),
    (lambda r: r.update(residuals=list(r["residuals"].values())),
     "report residuals must be an object, got an array"),
    (lambda r: r.update(values=None), "report values must be an object, got null"),
    (lambda r: r.update(check_name=7), "report check_name must be a string, got an integer"),
    (lambda r: r.update({"pass": "true"}), "report pass must be a boolean, got a string"),
    (lambda r: r["inputs"].update(seed="5"), "report inputs.seed must be an integer, got a string"),
    (lambda r: r["inputs"].update(trial=1.0), "report inputs.trial must be an integer, got a number"),
]


@pytest.mark.parametrize("edit,message", MALFORMED_REPORTS,
                         ids=["inputs", "residuals", "values", "check_name", "pass", "seed",
                              "trial"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_report_refuses_malformed_reports(tmp_path, capsys, edit, message, fmt):
    # Merged with a well-formed file, whose seed and trial are integers: the
    # sort would compare the two kinds, and rendering would read the maps.
    good = tmp_path / "good.json"
    main(["verify", "blocks", "--trials", "2", "--seed", "4", "--format", "json",
          "--out", str(good)])
    payload = json.loads(good.read_text())
    edit(payload["reports"][1])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "report", str(good), str(bad), "--format", fmt)
    assert (code, out, err) == (2, "", f"error: cannot parse report file {bad}: {message}\n")


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_report_refuses_non_finite_numbers(tmp_path, capsys, number, fmt):
    good = tmp_path / "good.json"
    main(["verify", "blocks", "--trials", "1", "--format", "json", "--out", str(good)])
    payload = good.read_text()
    bad = tmp_path / "bad.json"
    bad.write_text(payload.replace('"roundtrip": 0.0', f'"roundtrip": {number}', 1))
    assert bad.read_text() != payload
    code, out, err = run_cli(capsys, "report", str(bad), "--format", fmt)
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse report file {bad}: non-finite number {number}\n"
    assert run_cli(capsys, "report", str(good), "--format", fmt)[0] == 0


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_report_refuses_a_byte_order_mark(tmp_path, capsys, fmt):
    # As json.loads does: the one decoder that reads every file would not.
    good = tmp_path / "good.json"
    main(["verify", "blocks", "--trials", "1", "--format", "json", "--out", str(good)])
    bad = tmp_path / "bom.json"
    bad.write_text("\ufeff" + good.read_text(), encoding="utf-8")
    code, out, err = run_cli(capsys, "report", str(bad), "--format", fmt)
    assert (code, out) == (2, "")
    assert err == (f"error: cannot parse report file {bad}: Unexpected UTF-8 BOM "
                   "(decode using utf-8-sig): line 1 column 1 (char 0)\n")


def test_report_files_are_utf8_in_any_locale(tmp_path):
    # RFC 8259: a report file is UTF-8 whatever the locale, and so is text on stdout.
    # Under the C locale, with no coercion and no UTF-8 mode, the file mpjl reads holds a
    # raw UTF-8 string and the text mpjl writes, to a file or to stdout, the same string.
    src = Path(__file__).resolve().parent.parent / "src"
    base = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    ascii_env = {**base, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    utf8_env = {**base, "PYTHONUTF8": "1"}
    main(["verify", "blocks", "--trials", "1", "--format", "json",
          "--out", str(tmp_path / "one.json")])
    payload = json.loads((tmp_path / "one.json").read_text())
    payload["reports"][0]["inputs"]["label"] = "\u00e9t\u00e9"
    raw = json.dumps(payload, ensure_ascii=False).encode("utf-8")
    assert b"\xc3\xa9" in raw
    (tmp_path / "f.json").write_bytes(raw)

    def outputs(env, name):
        def run(*argv):
            done = subprocess.run([sys.executable, "-m", "mpjl", "report", *argv],
                                  capture_output=True, env=env, cwd=tmp_path, timeout=120)
            assert (done.returncode, done.stderr) == (0, b""), (name, argv, done.stderr)
            return done.stdout
        merged, text = f"{name}.json", f"{name}.txt"
        stdout = run("f.json", "--format", "json")  # ASCII, so any locale can print it
        run("f.json", "--format", "json", "--out", merged)
        run(merged, "--format", "text", "--out", text)
        assert run(merged, "--format", "text") == (tmp_path / text).read_bytes(), name
        return stdout, (tmp_path / merged).read_bytes(), (tmp_path / text).read_bytes()

    want = outputs(utf8_env, "utf8")
    assert "\u00e9t\u00e9".encode() in want[2]
    assert outputs(ascii_env, "ascii") == want


def _surrogate_twins(tmp_path) -> tuple[str, str]:
    # Two report files alike but for one input: a lone surrogate, which JSON can hold
    # and UTF-8 cannot encode, and the six characters of its escape.
    main(["verify", "blocks", "--trials", "1", "--format", "json",
          "--out", str(tmp_path / "one.json")])
    payload = json.loads((tmp_path / "one.json").read_text())
    for name, label in (("surrogate", "\ud800"), ("escape", "\\ud800")):
        payload["reports"][0]["inputs"]["label"] = label
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    return "surrogate.json", "escape.json"


def test_report_text_escapes_a_lone_surrogate_on_stdout(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    runs = [subprocess.run([sys.executable, "-m", "mpjl", "report", path, "--format", "text"],
                           capture_output=True, env=env, cwd=tmp_path, timeout=120)
            for path in _surrogate_twins(tmp_path)]
    assert [(done.returncode, done.stderr) for done in runs] == [(0, b"")] * 2
    assert b" label=\\ud800 " in runs[0].stdout
    assert runs[0].stdout == runs[1].stdout


def test_report_text_escapes_a_lone_surrogate_in_an_out_file(tmp_path):
    outs = []
    for path in _surrogate_twins(tmp_path):
        outs.append(tmp_path / f"{path}.txt")
        argv = ["report", str(tmp_path / path), "--format", "text", "--out", str(outs[-1])]
        assert main(argv) == 0
    assert b" label=\\ud800 " in outs[0].read_bytes()
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_report_text_escapes_a_lone_surrogate_on_a_stdout_of_str(tmp_path):
    outs = []
    for path in _surrogate_twins(tmp_path):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["report", str(tmp_path / path), "--format", "text"]) == 0
        outs.append(out.getvalue())
    assert " label=\\ud800 " in outs[0]
    assert outs[0] == outs[1]


def test_retry_consumes_fresh_subseed(monkeypatch):
    calls = []

    def draw(n, m, q, rngs, spectrum):
        [rng] = rngs  # a trial run alone draws from its one stream
        calls.append(rng.integers(0, 1 << 30))
        return (np.array([calls[-1]]),)

    def flaky(cfg, draws):
        if len(calls) < 3:
            raise DegenerateSpectrum("synthetic collision")
        return ReportStack("stub", {}, {}, {}, {}, [True] * len(draws[0]))

    monkeypatch.setitem(suites._SUITES, "stub", (draw, flaky))
    [report] = suites._run_stack("stub", suites.RunConfig(trials=1, seed=4), range(1))
    assert report.inputs["attempt"] == 2
    assert len(set(int(c) for c in calls)) == 3  # each attempt drew from a fresh stream


def test_retry_budget_exhausted(monkeypatch):
    def draw(n, m, q, rngs, spectrum):
        return (np.zeros(len(rngs)),)

    def always_degenerate(cfg, draws):
        raise DegenerateSpectrum("synthetic collision")

    monkeypatch.setitem(suites._SUITES, "stub", (draw, always_degenerate))
    with pytest.raises(DegeneracyBudgetExceeded,
                       match="^suite stub trial 0: degenerate after 3 redraws: synthetic"):
        suites._run_stack("stub", suites.RunConfig(trials=1, seed=4), range(1))


def test_gen_redraws_a_degenerate_first_draw(monkeypatch, capsys):
    # gen is trial 0 of its seed, retried as a stack of one: a degenerate
    # first draw gives way to the instance of the stream (seed, 0, 1).
    svd_thin, calls = cli.svd_thin, []

    def flaky(x):
        calls.append(x)
        if len(calls) == 1:
            raise DegenerateSpectrum("synthetic collision")
        return svd_thin(x)

    monkeypatch.setattr(cli, "svd_thin", flaky)
    code, out, err = run_cli(capsys, "gen", "--n", "4", "--m", "3", "--q", "2", "--seed", "7")
    assert (code, err, len(calls)) == (0, "", 2)
    data = np.reshape(json.loads(out)["matrix"]["data"], (4, 3))
    assert np.array_equal(data, random_rank_q(4, 3, 2, mc.make_rng(7, 0, 1)))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_non_finite_value_fails_its_reports_in_well_formed_output(monkeypatch, capsys,
                                                                    tmp_path, bad):
    # A residual that turns non-finite inside a check fails its report under the real
    # verdict rule; JSON, which has no such number, writes it (and a float value that
    # turned with it) as null, and the file stays strict JSON that report merges.
    stack_reports, hit = suites.stack_reports, {}

    def corrupted(check_name, inputs, values, residuals, *args, **kwargs):
        # The first residual, and the first value that is a float where there is one.
        key = next(iter(residuals))
        floats = [k for k, v in values.items() if np.asarray(v).dtype.kind == "f"][:1]
        hit[check_name] = key, floats
        residuals = {**residuals, key: np.asarray(residuals[key]) + bad}
        values = {**values, **{k: np.asarray(values[k]) + bad for k in floats}}
        return stack_reports(check_name, inputs, values, residuals, *args, **kwargs)

    monkeypatch.setattr(suites, "stack_reports", corrupted)
    for suite in suites.SUITE_NAMES:
        argv = ["verify", suite, "--trials", "3"]
        path = tmp_path / f"{suite}.json"
        code, out, err = run_cli(capsys, *argv, "--format", "json", "--out", str(path))
        assert (code, out, err) == (1, "", ""), suite
        result = cli._DECODER.decode(path.read_text())
        assert result["summary"] == {"total": 3, "passed": 0, "failed": 3}, suite
        key, floats = hit[suite]
        for report in result["reports"]:
            assert report["pass"] is False and report["residuals"][key] is None, suite
            assert all(report["values"][k] is None for k in floats), suite
        # The live text names the residual as null, as the JSON and the report's text do.
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (1, "") and out.count("[FAIL]") == 3, suite
        assert all(f"{key}=null" in line.split() for line in out.splitlines()[:3]), suite
        code, out, err = run_cli(capsys, "report", str(path), "--format", "json")
        assert (code, err) == (0, "") and cli._DECODER.decode(out)["reports"] == result["reports"]
        code, out, err = run_cli(capsys, "report", str(path))
        assert (code, err) == (0, "") and out.count("[FAIL]") == 3, suite
        assert all(f"{key}=null" in line.split() for line in out.splitlines()[:3]), suite


def test_degeneracy_exit_code_3(monkeypatch, capsys):
    def boom(suite, cfg):
        raise DegeneracyBudgetExceeded("synthetic")

    monkeypatch.setattr("mpjl.cli.run_suite", boom)
    code, _, err = run_cli(capsys, "verify", "blocks", "--trials", "1")
    assert code == 3
    assert "synthetic" in err


def test_ill_conditioned_deficient_differential_passes(capsys):
    # cond(X) = 1e6 at rank 3 of 7 x 5: the tangent oracle moves no point
    # off rank q, so no draw is retried and every report passes.
    code, out, err = run_cli(capsys, "verify", "differential", "--n", "7", "--m", "5", "--q", "3",
                             "--spectrum", "1000,1,0.001", "--trials", "3", "--format", "json")
    assert (code, err) == (0, "")
    reports = json.loads(out)["reports"]
    assert len(reports) == 3
    assert all(r["pass"] and r["inputs"]["attempt"] == 0 for r in reports)


def _strict_json(text: str) -> dict:
    # Strict JSON: NaN and Infinity are refused, and so is an overflowing literal.
    def refuse(token):
        raise ValueError(f"non-finite JSON number {token}")

    def finite(token):
        return float(token) if np.isfinite(float(token)) else refuse(token)

    return json.loads(text, parse_constant=refuse, parse_float=finite)


@pytest.mark.parametrize("argv", [
    # The linear density underflowed to 0 and the chain divided by it
    # (ZeroDivisionError).
    ["--n", "60", "--m", "50", "--q", "20"],
    # np.prod(d ** -104.0) ran through subnormals: identity 1.2e-4, a FAIL.
    ["--n", "40", "--m", "32", "--q", "20", "--trials", "1", "--seed", "278331871"],
])
def test_hausdorff_beyond_the_float_range_passes(capsys, argv):
    # The check runs in logs and writes only logs.
    code, out, err = run_cli(capsys, "verify", "hausdorff", *argv, "--format", "json")
    assert (code, err) == (0, "")
    reports = _strict_json(out)["reports"]
    assert all(r["pass"] for r in reports)
    for r in reports:
        assert list(r["values"]) == ["log_density_x", "log_density_y", "log_jacobian_factor"]


def test_hausdorff_report_layout_is_fixed(capsys):
    # Seed 278331871's linear factor ran through subnormals and seed 2's did
    # not; with only logs written, every report has the same keys.
    layouts = set()
    for seed, trials in (("278331871", "1"), ("2", "1"), ("3", "6")):
        argv = ["--n", "40", "--m", "32", "--q", "20", "--trials", trials, "--seed", seed]
        code, out, err = run_cli(capsys, "verify", "hausdorff", *argv, "--format", "json")
        assert (code, err) == (0, "")
        for report in _strict_json(out)["reports"]:
            layouts.add(tuple(tuple(report[part]) for part in
                              ("inputs", "values", "residuals", "tolerances")))
    assert len(layouts) == 1


@pytest.mark.parametrize("argv, got", [
    # 1/d overflowed to inf (a RuntimeWarning), then pinv's spectrum [[inf]] was refused.
    (["--n", "1", "--m", "1", "--trials", "3", "--spectrum", "1e-310"], "[1e-310]"),
    # d_1 + d_2 overflowed (a RuntimeWarning) and identity read null: a FAIL.
    (["--n", "3", "--m", "2", "--q", "2", "--trials", "1", "--spectrum", "1.7e308,1.6e308"],
     "[1.7e+308, 1.6e+308]"),
])
def test_hausdorff_refuses_spectra_outside_the_float_range(capsys, argv, got):
    for fmt in ("json", "text"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "verify", "hausdorff", *argv, "--format", fmt)
        assert (code, out, caught) == (2, "", [])
        assert err == ("error: hausdorff needs the spectrum in (1.113e-308, 8.988e+307] to keep "
                       f"every d_i + d_j and 1/d_i + 1/d_j finite, got {got}\n")


def test_invariance_image_chart_takes_the_rank_of_x(capsys):
    # Trial 3's H X Q has singular values 1.735 and 7.97e-16, above the
    # library cut 7.70e-16; its rank is X's by construction, so the image is
    # pivoted at q without a second rank test.
    code, out, err = run_cli(capsys, "verify", "invariance", "--n", "2", "--m", "2", "--q", "1",
                             "--trials", "45", "--seed", "221480469", "--format", "json")
    assert (code, err) == (0, "")
    assert _strict_json(out)["summary"] == {"total": 45, "passed": 45, "failed": 0}


def test_json_files_are_the_reference_encoding(tmp_path, capsys):
    # What dumps_canonical writes for every suite and for report's merge is
    # what json.dumps(indent=2) writes of the same data.
    paths = []
    for suite, extra in SUITE_CONFIGS.items():
        paths.append(tmp_path / f"{suite}.json")
        assert main(["verify", suite, *extra, "--trials", "3", "--seed", "5", "--format", "json",
                     "--out", str(paths[-1])]) == 0
    code, merged, _ = run_cli(capsys, "report", *map(str, paths), "--format", "json")
    assert code == 0
    for text in [p.read_text() for p in paths] + [merged]:
        assert text == json.dumps(json.loads(text), indent=2, allow_nan=False) + "\n"


def test_text_and_json_render_same_data(tmp_path, capsys):
    args = ["verify", "blocks", "--n", "4", "--m", "3", "--q", "2", "--trials", "2",
            "--seed", "6"]
    code, text_out, _ = run_cli(capsys, *args)
    assert code == 0
    code, json_out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    assert payload["summary"]["total"] == 2
    assert text_out.count("[PASS]") == 2


def test_successive_calls_parse_like_a_fresh_parser(monkeypatch, capsys):
    built = []
    build_tree = cli._build
    monkeypatch.setattr(cli, "_build", lambda: built.append(1) or build_tree())
    build = cli.build_parser
    seen = []
    for name in ("cmd_gen", "cmd_verify", "cmd_report"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or 0)
    argvs = [
        ["gen", "--n", "5", "--m", "2", "--q", "1", "--seed", "3", "--out", "g.json"],
        ["verify", "blocks", "--trials", "2", "--tol", "1e-9", "--out", "x.json"],
        ["report", "a.json", "b.json", "--format", "json"],
        ["verify", "hausdorff", "--spectrum", "3,1"],
        ["gen"],
        ["report"],
    ]
    for argv in argvs:
        assert main(argv) == 0
    assert built == []  # the flag table reads plain argv: no parser tree
    assert seen == [vars(build().parse_args(argv)) for argv in argvs]
    # Each call the table leaves to argparse builds one tree: argv that names no command gets
    # the help (exit 0) or the usage error (exit 2) that a fresh top-level parser prints, and
    # --flag=value parses as argparse parses it.
    for argv, code in (([], 2), (["-h"], 0), (["bogus"], 2)):
        built.clear()
        outcomes = []
        for parse in (main, build().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            outcomes.append((exc.value.code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1] and outcomes[0][0] == code, argv
        assert len(built) == 2, argv  # main's tree and build()'s
    built.clear()
    assert main(["gen", "--n=5"]) == 0 and len(built) == 1
    assert seen[-1] == vars(build().parse_args(["gen", "--n=5"]))


def test_plain_argv_never_imports_argparse(tmp_path):
    # A fresh process that runs a plain verify leaves argparse unimported.
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; from mpjl import cli; code = cli.main(['verify', 'blocks', '--trials', "
            "'2', '--format', 'json', '--out', 'v.json']); print(code, 'argparse' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
                          cwd=tmp_path, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 False\n", "")
    assert json.loads((tmp_path / "v.json").read_text())["summary"]["total"] == 2


# Each command's flags, as README documents them, with values its parser takes and refuses.
CLI_FLAGS = {
    "gen": ("n", "m", "q", "seed", "spectrum", "out"),
    "verify": ("n", "m", "q", "seed", "spectrum", "out", "trials", "tol", "format"),
    "report": ("format", "out"),
}
INTS = (["3", "0", "12", "+4", "1_0", " 7"], ["x", "3.5", "", "1e3"])
FLAG_VALUES = {
    **dict.fromkeys(("n", "m", "q", "seed", "trials"), INTS),
    "tol": (["1e-9", "0.5", "nan", "inf", "0"], ["abc", "1,2", ""]),
    "format": (["json", "text"], ["xml", "JSON", ""]),
    "spectrum": (["3,1", "a,b", "", "0.5"], []),
    "out": (["x.json", "", "a=b", "dir/y.json"], []),
}


@st.composite
def cli_argvs(draw):
    """argv of gen, verify or report: plain (positionals, then full flag names each with one
    value, a flag possibly repeated), or with one of the forms that argparse reads."""
    command = draw(st.sampled_from(sorted(CLI_FLAGS)))
    positional = {"gen": [], "verify": [draw(st.sampled_from([*suites.SUITE_NAMES, "bogus"]))],
                  "report": draw(st.lists(st.sampled_from(["a.json", "b.json", "", "x=y"]),
                                          max_size=2))}[command]
    flags = [[f"--{name}", draw(st.sampled_from(FLAG_VALUES[name][0]))]
             for name in draw(st.lists(st.sampled_from(CLI_FLAGS[command]), max_size=4))]
    form = draw(st.sampled_from(["plain", "abbreviated", "equals", "dash-value", "missing",
                                 "unknown", "bad", "special", "late-positional"]))
    at = draw(st.integers(0, max(len(flags) - 1, 0)))
    if form == "abbreviated" and flags and len(flags[at][0]) > 3:
        flags[at][0] = flags[at][0][:draw(st.integers(3, len(flags[at][0]) - 1))]
    elif form == "equals" and flags:
        flags[at] = ["=".join(flags[at])]
    elif form == "dash-value" and flags:
        flags[at][1] = draw(st.sampled_from(["-3", "-1e-3", "-x", "--n", "-"]))
    elif form == "missing" and flags:
        flags[at] = flags[at][:1]
    elif form == "unknown":
        flags.insert(at, draw(st.sampled_from([["--bogus", "1"], ["--fd-step", "1e-6"],
                                               ["-n", "3"], ["---format", "json"]])))
    elif form == "bad" and flags and FLAG_VALUES[flags[at][0][2:]][1]:
        flags[at][1] = draw(st.sampled_from(FLAG_VALUES[flags[at][0][2:]][1]))
    words = [word for flag in flags for word in flag]
    if form == "special":
        special = draw(st.sampled_from(["-h", "--help", "--"]))
        words.insert(draw(st.integers(0, len(words))), special)
    if form == "late-positional":
        return [command, *words, *positional]
    return [command, *positional, *words]


def _parse_outcome(parse, argv):
    # ("args", the Namespace's attributes) of a parse, or ("exit", code, stdout, stderr).
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            return "args", parse(argv)
    except SystemExit as e:
        return "exit", e.code, stdout.getvalue(), stderr.getvalue()


def _fresh_parse(argv):
    # A fresh parser tree, read as main reads argv that the table leaves to argparse: the
    # named command's parser, whose usage errors name the command, else the top-level one.
    parser, commands = cli._build()
    if argv and argv[0] in commands:
        return {**vars(commands[argv[0]].parse_args(argv[1:])), "command": argv[0]}
    return vars(parser.parse_args(argv))


@settings(max_examples=300)
@given(cli_argvs())
@example(["verify", "blocks", "--tri", "3"])  # an abbreviated flag
@example(["gen", "--n=3"])
@example(["gen", "--n", "3", "--n", "4"])  # a repeated flag: the last value holds
@example(["verify", "blocks", "--tol", "-1e-3"])  # a value starting with -
@example(["report", "a.json", "--out"])  # a missing value
@example(["verify", "blocks", "--fd-step", "1e-6"])  # an unknown flag
@example(["gen", "--n", "x"])
@example(["verify", "blocks", "--tol", "abc"])
@example(["report", "--format", "xml"])
@example(["verify", "-h"])
@example(["report", "--", "a.json"])
@example(["verify", "--n", "3", "blocks"])  # a positional after a flag
def test_main_reads_argv_as_a_fresh_parser_does(argv):
    def command(args):
        return seen.append(vars(args)) or 0

    seen = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("cmd_gen", "cmd_verify", "cmd_report"):
            mp.setattr(cli, name, command)
        got = _parse_outcome(lambda argv: seen[-1] if main(argv) == 0 else None, argv)
    expected = _parse_outcome(_fresh_parse, argv)
    assert got == expected, argv
    if got[0] == "args":
        assert got[1] == vars(cli.build_parser().parse_args(argv))


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_benchmark_argv_is_read_by_the_table(tmp_path, monkeypatch):
    # With argparse's parse patched to raise, every op that perfbench/workloads.py builds
    # for the three workloads (seed 1) runs through perfbench/run.py's Runner, and so does
    # the report argv it builds over their files: the benchmark never reaches argparse.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py pins them as it loads; restored after
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = set(sys.modules)
    try:
        import run
        import workloads
    finally:  # perfbench's module names are generic; import them for this test alone
        for name in set(sys.modules) - loaded:
            if str(getattr(sys.modules[name], "__file__", "")).startswith(str(PERFBENCH)):
                del sys.modules[name]
    parsed, argvs = [], []

    def refuse(parser, *args, **kwargs):
        parsed.append(args)
        raise AssertionError("argparse parsed a benchmark argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    runner = run.Runner(types.SimpleNamespace(main=lambda argv: argvs.append(argv) or main(argv)),
                        types.SimpleNamespace(load_witnesses=list), tmp_path)
    ops = 0
    for workload in workloads.WORKLOADS.values():
        written = []
        for op in workload(random.Random(1)):
            if op.kind != "witness":
                ops += 1
                assert runner._execute(op, written)[0].cause is None, op.argv
    assert parsed == [] and len(argvs) == ops
    assert argvs[-1][0] == "report" and len(argvs[-1]) > 5  # a merge of written files


# The runs of ROADMAP item 1 that failed while determinants were linear: a
# NaN traceback (exterior-chain 40 x 30), a pass on 0.0 against 0.0
# (jacobian-full 48 x 36) and two overflows to inf.
LINEAR_DOMAIN_FAILURES = [
    ["verify", "exterior-chain", "--n", "40", "--m", "30", "--trials", "3"],
    ["verify", "jacobian-full", "--n", "48", "--m", "36", "--trials", "3"],
    ["verify", "jacobian-full", "--n", "20", "--m", "16", "--trials", "1",
     "--spectrum", ",".join(map(str, np.linspace(0.3, 0.15, 16)))],
    ["verify", "operator-rank", "--n", "3", "--m", "5", "--q", "2", "--trials", "2", "--seed", "0",
     "--spectrum", "2.5e-13,2.5e-14"],
]


@st.composite
def verify_runs(draw, suite):
    """argv of a ``suite`` run: n and m <= 12, every q the suite takes, and the default
    spectrum or linspace(2.5, 0.5, q) scaled by 1e-3 to 1e3."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    if suite == "exterior-chain":
        n, m = max(n, m), min(n, m)
    full = suite in ("jacobian-full", "exterior-chain", "symmetric-inverse")
    q = min(n, m) if full else draw(st.integers(1, min(n, m)))
    argv = ["verify", suite, "--n", str(n), "--m", str(m),
            "--trials", str(draw(st.integers(1, 3))), "--seed", str(draw(st.integers(0, 2**16)))]
    if suite != "symmetric-inverse":
        argv += ["--q", str(q)]
        if draw(st.booleans()):
            scale = 10.0 ** draw(st.floats(-3.0, 3.0))
            argv += ["--spectrum", ",".join(map(str, scale * np.linspace(2.5, 0.5, q)))]
    return argv


def _assert_output_contract(argv):
    # A documented exit code, strict JSON, no warning, empty stderr on exits
    # 0 and 1, and no residual taken against a scale that is 0 or not finite.
    scales = []
    rel = suites._rel
    stdout, stderr = io.StringIO(), io.StringIO()
    with (pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr)):
        warnings.simplefilter("always")
        mp.setattr(suites, "_rel", lambda err, scale: scales.append(scale) or rel(err, scale))
        code = main([*argv, "--format", "json"])
    assert code in (0, 1, 2, 3)
    assert not caught, [str(w.message) for w in caught]
    if code in (0, 1):
        assert stderr.getvalue() == ""
        summary = _strict_json(stdout.getvalue())["summary"]
        assert (summary["failed"] > 0) == (code == 1)
    assert all(np.all(np.isfinite(s) & (np.asarray(s) > 0)) for s in scales)


@pytest.mark.parametrize("argv", LINEAR_DOMAIN_FAILURES)
def test_linear_domain_failures_keep_the_output_contract(argv):
    _assert_output_contract(argv)


@pytest.mark.parametrize("suite", suites.SUITE_NAMES)
@settings(max_examples=40)
@given(st.data())
def test_every_verify_run_keeps_the_output_contract(suite, data):
    _assert_output_contract(data.draw(verify_runs(suite)))
