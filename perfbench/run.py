"""Benchmark of the mpjl verification harness, end to end and per layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; mpjl is imported from ``src/``.
One client drives ``mpjl.cli.main([...])`` in this process as a closed
loop: each op is issued only after the previous one has completed.  The
op schedule (see ``workloads.py``) repeats for a fixed number of cycles,
``--seconds`` over the workload's nominal cycle time; every cycle draws
fresh inputs from ``--seed``.  So a seed always gives the same ops, the
same count of them and the same failures, however fast the machine runs;
only the time they take varies.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run, whose cycles alternate between traced and untraced so the
tracing overhead is measured in the same run.  Lines before it explain
the numbers: environment, tail percentile and sample count, failures by
cause, and (traced) the spans with the most self and total time.  Op
times are scaled by a machine-speed gauge (see ``speed.py``); the raw
ones, the environment and the failure causes go to
``perfbench/out/result-<workload>-trace<0|1>.json`` and the spans of a
traced run to ``perfbench/out/spans-<workload>.jsonl``.  The run exits 2
without a result when the mpjl sources are missing.
"""

from __future__ import annotations

import os
import sys

# The BLAS thread count changes both speed and the last bits of results,
# so it is pinned before numpy loads and recorded with every result.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import NOMINAL_CYCLE_S, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 9
# The tail latency is the highest percentile with this many samples beyond it.
TAIL_SAMPLES = 10
# A run stops early, with fewer cycles than it was given, once its timed
# loop has taken this long, so that it ends within three minutes even on
# a machine several times slower than the nominal cycle times assume.
MAX_LOOP_S = 120.0


@dataclass
class OpRecord:
    latency_s: float
    trials: int
    cause: str | None       # why the op failed, None when it did not
    digest: str             # hash of everything the op produced
    speed: float = 1.0      # gauge factor taken just before the op

    def seconds(self, scaled: bool) -> float:
        return self.latency_s * self.speed if scaled else self.latency_s


@dataclass
class Cycle:
    ops: list
    records: list[OpRecord]
    traced: bool

    def seconds(self, scaled: bool) -> float:
        return sum(r.seconds(scaled) for r in self.records)

    @property
    def trials(self) -> int:
        return sum(r.trials for r in self.records)


class Runner:
    """Issues ops through the public entry points and checks their output."""

    def __init__(self, cli, witnesses, workdir: Path):
        self.cli = cli
        self.witnesses = witnesses
        self.fixtures = witnesses.load_witnesses()
        self.workdir = workdir
        self.problems: list[str] = []
        self.worst_tol_ratio = 0.0   # largest residual / tolerance of a passing report
        self.op_ids = itertools.count(1)
        self.op_walls: dict[int, float] = {}

    def run_cycle(self, ops, tracer=None) -> Cycle:
        written: list[tuple[Path, dict]] = []
        records = []
        for op in ops:
            factor = speed.sample(op.gauge)
            op_id = next(self.op_ids)
            if tracer is not None:
                tracer.op = op_id
            record, problems, ratios = self._execute(op, written)
            record.speed = factor
            if tracer is not None:
                self.op_walls[op_id] = record.latency_s
            self.problems += [f"{op.slot}: {p}" for p in problems]
            self.worst_tol_ratio = max([self.worst_tol_ratio, *ratios])
            records.append(record)
        return Cycle(ops, records, tracer is not None)

    def replay(self, cycle: Cycle) -> int:
        """Re-run a cycle; every op must reproduce its output byte for byte."""
        written: list[tuple[Path, dict]] = []
        for op, first in zip(cycle.ops, cycle.records):
            again, _problems, _ratios = self._execute(op, written)
            if again.digest != first.digest:
                self.problems.append(f"{op.slot}: replay of {' '.join(map(str, op.argv))} "
                                     "is not byte-identical")
        return len(cycle.ops)

    def _execute(self, op, written):
        if op.kind == "witness":
            return self._witness(op)
        argv = list(op.argv)
        if op.kind == "report":
            out_path = self.workdir / "merged.json"
            argv = ["report", *(str(p) for p, _ in written), "--format", "json",
                    "--out", str(out_path)]
        else:
            out_path = self.workdir / f"{op.slot}.json"
            argv += ["--out", str(out_path)]
        out_path.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        exc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a traceback is an outcome to count, not a crash
            code, exc = None, e
        latency = time.perf_counter() - start
        text = out_path.read_text() if out_path.exists() else ""
        # stderr is left out: Python prints each warning once per process.
        digest = hashlib.sha256(f"{code}|{exc!r}|{stdout.getvalue()}|{text}".encode()).hexdigest()
        problems: list[str] = []
        ratios: list[float] = []
        cause = None
        if exc is not None:
            cause = f"traceback:{type(exc).__name__}"
        elif code in (0, 1):
            obj = checks.parse_json(text)
            if obj is None:
                cause = "bad_json"
                problems.append("output is not parsable, finite JSON")
            elif op.kind == "report":
                problems += checks.check_suite_json(obj, None)[0]
                problems += checks.check_merge(obj, [part for _, part in written])
            else:
                problems, ratios = checks.check_suite_json(obj, code)
                written.append((out_path, obj))
                if code == 1:
                    cause = "exit1:check_fail"
        else:
            cause = f"exit{code}"
        return OpRecord(latency, op.trials, cause, digest), problems, ratios

    def _witness(self, op):
        fixture = self.fixtures[op.argv[0]]
        start = time.perf_counter()
        report = self.witnesses.reproduce(fixture)
        latency = time.perf_counter() - start
        values = report.values
        problems = checks.check_witness(values, fixture)
        digest = hashlib.sha256(repr((values["abs_det"], values["deviation"])).encode()).hexdigest()
        cause = "witness_mismatch" if problems else None
        return OpRecord(latency, op.trials, cause, digest), problems, []


def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": _openblas_threads(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
    }


def measure_setup(first_op) -> tuple[dict, dict]:
    """Median wall time of a fresh process: imports, parser, one warm-up op.

    Returns the median scaled by the start-up gauge factor (key True) and
    the raw median (key False), and the probes' own breakdown.
    """
    argv = list(first_op.argv)
    argv[argv.index("--trials") + 1] = "1"
    walls, scaled, parts = [], [], []
    for _ in range(SETUP_REPEATS):
        factor = speed.startup_factor()
        start = time.perf_counter()
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), str(SRC), json.dumps(argv)],
                              capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - start)
        scaled.append(walls[-1] * factor)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        parts.append(json.loads(done.stdout.strip().splitlines()[-1]))
    breakdown = {k: statistics.median(p[k] for p in parts) for k in ("import_s", "parser_s", "op_s")}
    return {True: statistics.median(scaled), False: statistics.median(walls)}, breakdown


def cycle_count(workload: str, seconds: float, traced: bool) -> int:
    """Cycles a run makes: a traced run needs a traced and an untraced one."""
    return max(2 if traced else 1, round(seconds / NOMINAL_CYCLE_S[workload]))


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_SAMPLES beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return ordered[-1], 100.0
    return ordered[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n


def _rate(cycles: list[Cycle], scaled: bool = True) -> float:
    """Median over cycles of trials attempted per second spent in ops."""
    return statistics.median(c.trials / c.seconds(scaled) for c in cycles)


def end_to_end_metrics(cycles, runner, setup_s, peak_rss_mb, scaled=True) -> tuple[dict, dict]:
    records = [r for c in cycles for r in c.records]
    latencies = [r.seconds(scaled) for r in records]
    tail, pct = _tail(latencies)
    failed = sum(1 for r in records if r.cause is not None)
    values = {
        "trials_per_s": _rate(cycles, scaled),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_tail": 1e3 * tail,
        "setup_s": setup_s[scaled],
        "pass_share": (len(records) - failed) / len(records),
        "peak_rss_mb": peak_rss_mb,
    }
    by_slot: dict[str, list[float]] = {}
    for c in cycles:
        for op, r in zip(c.ops, c.records):
            by_slot.setdefault(op.slot, []).append(r.seconds(scaled))
    notes = {"tail_percentile": pct, "latency_samples": len(latencies),
             "failed_share": failed / len(records),
             "worst_tol_ratio": runner.worst_tol_ratio,
             "slot_ms_p50": {k: 1e3 * statistics.median(v) for k, v in by_slot.items()}}
    return values, notes


def per_layer_metrics(tracer, totals, cycles, runner) -> dict:
    traced = [c for c in cycles if c.traced]
    per_cycle = 1.0 / len(traced)
    values = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = totals["calls"].get(layer, 0) * per_cycle
        elif kind == "self_s":
            values[name] = totals["self_s"].get(layer, 0.0) * per_cycle
    counters = tracer.counters
    values.update({
        "differential.jacobian_operator.bytes":
            counters["differential.jacobian_operator.bytes"] * per_cycle,
        "matcore.rank_profile.max_order": counters["matcore.rank_profile.max_order"],
        "differential.fd_chart_jacobian.points":
            counters["differential.fd_chart_jacobian.points"] * per_cycle,
        "reports.json_bytes": counters["reports.json_bytes"] * per_cycle,
        "suites.attempts": totals["attempts"] * per_cycle,
        "suites.retries.degenerate": totals["retries"]["degenerate"] * per_cycle,
        "suites.retries.rank_drift": totals["retries"]["rank_drift"] * per_cycle,
        "suites.useful_attempt_ratio":
            totals["trials"] / totals["attempts"] if totals["attempts"] else 0.0,
    })
    values["worst_tol_ratio"] = runner.worst_tol_ratio
    traced_rate = _rate(traced)
    values["trace.traced_trials_per_s"] = traced_rate
    values["trace.overhead_trials_per_s"] = traced_rate - _rate(
        [c for c in cycles if not c.traced])
    return values


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mpjl" / "__init__.py").is_file():
        print(f"error: no mpjl sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from mpjl import cli, witnesses

    if Path(cli.__file__).resolve().parent != SRC / "mpjl":
        print(f"error: imported mpjl from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment()
    if env["blas_threads"] not in (None, BLAS_THREADS):
        print(f"error: BLAS runs {env['blas_threads']} threads, not {BLAS_THREADS}", file=sys.stderr)
        return 2

    make_ops = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{args.workload}-") as workdir:
        return _run(args, make_ops, Runner(cli, witnesses, Path(workdir)), env)


def _run(args, make_ops, runner: Runner, env: dict) -> int:
    rng = random.Random(f"{args.workload}/{args.seed}")

    warm_up = make_ops(rng)
    setup_s, setup_parts = measure_setup(warm_up[0])
    runner.run_cycle(warm_up)
    runner.worst_tol_ratio = 0.0

    tracer = Tracer() if args.trace else None
    planned = cycle_count(args.workload, args.seconds, tracer is not None)
    cycles: list[Cycle] = []
    loop_start = time.perf_counter()
    while len(cycles) < planned and time.perf_counter() - loop_start < MAX_LOOP_S:
        traced = tracer is not None and len(cycles) % 2 == 1
        ops = make_ops(rng)
        if traced:
            tracer.install()
        try:
            cycles.append(runner.run_cycle(ops, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
    loop_s = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    replayed = runner.replay(rng.choice(cycles))

    records = [r for c in cycles for r in c.records]
    causes = Counter(r.cause for r in records if r.cause is not None)
    if tracer is None:
        values, notes = end_to_end_metrics(cycles, runner, setup_s, peak_rss_mb)
        notes["raw_metrics"] = end_to_end_metrics(cycles, runner, setup_s, peak_rss_mb, False)[0]
        notes["gauge_factor_median"] = statistics.median(r.speed for r in records)
        units = {k: unit for k, (unit, _better) in END_TO_END.items()}
    else:
        totals = tracer.layer_totals()
        values = per_layer_metrics(tracer, totals, cycles, runner)
        units = {k: unit for k, (unit, _better, _moves) in PER_LAYER.items()}
        notes = {}
        tracer.write(OUT / f"spans-{args.workload}.jsonl", runner.op_walls)
    result = {
        "correct": not runner.problems,
        "attempted": len(records),
        "failed": sum(causes.values()),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "cycles": len(cycles),
              "cycles_planned": planned, "loop_s": loop_s,
              "replayed_ops": replayed, "failures_by_cause": dict(causes),
              "setup_breakdown_s": setup_parts, "problems": runner.problems[:50], **notes,
              "result": result}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n")

    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}: {len(cycles)} cycles in {loop_s:.1f} s, {len(records)} ops, "
          f"{sum(r.trials for r in records)} trials, {replayed} ops replayed")
    if len(cycles) < planned:
        print(f"WARNING: stopped after {MAX_LOOP_S:.0f} s with {len(cycles)} of {planned} "
              "cycles; attempted and failed counts are short of the seed's full run")
    print(f"failures by cause: {dict(causes) or 'none'}")
    for problem in runner.problems[:20]:
        print(f"PROBLEM: {problem}")
    if tracer is None:
        print(f"op_ms_tail is p{notes['tail_percentile']:.1f} of {notes['latency_samples']} ops; "
              f"failed_share {notes['failed_share']:.4f}; worst_tol_ratio "
              f"{notes['worst_tol_ratio']:.4g}")
        print(f"setup breakdown (median s): {json.dumps(setup_parts)}")
        print("op latency p50 by slot (ms): " + ", ".join(
            f"{k} {v:.1f}" for k, v in notes["slot_ms_p50"].items()))
    else:
        traced_s = sum(totals["self_s"].values())
        for kind in ("self_s", "total_s"):
            top = sorted(totals[kind].items(), key=lambda kv: -kv[1])[:8]
            print(f"{kind} share of traced time: " + ", ".join(
                f"{name} {100 * secs / traced_s:.1f}%" for name, secs in top))
    for k in units:
        print(f"{k} = {values[k]:.6g} {units[k]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
