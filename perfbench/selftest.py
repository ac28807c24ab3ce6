"""Fast self-test of the benchmark.

Usage: python3 perfbench/selftest.py      (from the root of a checkout)

Runs every workload at a tiny run length, untraced and traced, and checks
that the result line has exactly the contract's keys, that every metric
named in BENCHMARK.json is emitted with its unit, that BENCHMARK.json and
metrics.py agree, that two runs of one seed attempt the same ops and meet
the same failures, and that within every traced op the self times of its
spans sum to no more than the op's wall time.  It also checks that the
benchmark refuses to run, without a result, when the mpjl sources are
missing.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

# Float rounding allowance when comparing summed self times with a wall time.
SELF_TIME_SLACK_S = 1e-6


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=cwd)


def check_spec(spec: dict) -> None:
    for section, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        known = {name: entry[:2] for name, entry in table.items()}
        if declared != known:
            fail(f"BENCHMARK.json {section} disagrees with metrics.py: "
                 f"{sorted(set(declared.items()) ^ set(known.items()))}")


def check_repeatable(first, second, label: str) -> None:
    counts = [{k: json.loads(done.stdout.strip().splitlines()[-1])[k]
               for k in ("attempted", "failed")} for done in (first, second)]
    if counts[0] != counts[1]:
        fail(f"{label}: two runs of one seed gave {counts[0]} and {counts[1]}")


def check_result(done, expected: dict, label: str) -> None:
    if done.returncode != 0:
        fail(f"{label} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label} result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        fail(f"{label} not correct or nothing attempted: {done.stdout[-2000:]}")
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    if emitted != expected:
        fail(f"{label} emitted {emitted}, expected {expected}")


def check_self_times(spans_path: Path, label: str) -> None:
    walls = {}
    self_sum = defaultdict(float)
    with open(spans_path) as fh:
        for line in fh:
            row = json.loads(line)
            if "wall_s" in row:
                walls[row["op"]] = row["wall_s"]
            else:
                self_sum[row["op"]] += row["self_s"]
    if not self_sum:
        fail(f"{label} recorded no spans")
    for op, total in self_sum.items():
        if total > walls[op] + SELF_TIME_SLACK_S:
            fail(f"{label} op {op}: self times {total:.6f}s exceed wall {walls[op]:.6f}s")


def check_refuses_without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    done = run("fd-chart", 0, cwd=bare)
    shutil.rmtree(bare)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        fail("benchmark ran without the mpjl sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = run(workload, 0)
        check_result(untraced, end_to_end, f"{workload} untraced")
        check_repeatable(untraced, run(workload, 0), f"{workload} untraced")
        check_result(run(workload, 1), per_layer, f"{workload} traced")
        check_self_times(HERE / "out" / f"spans-{workload}.jsonl", f"{workload} traced")
        print(f"selftest {workload}: ok")
    check_refuses_without_sources()
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
