"""Paired benchmark runs of two checkouts, summarised in one JSON file.

Usage:
    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--workload W ...]
        --seeds S [S ...] --seconds 25 --out BENCH_<n>.json

PARENT and CHANGE are checkout roots, each holding ``perfbench/run.py``
and ``src``.  For every workload and seed the benchmark runs once in each
checkout, ``python3 perfbench/run.py --workload W --seed S --seconds T``
in a fresh process from that root; the parent goes first at even
positions of the seed list and the change at odd ones.  Before every run
each ``__pycache__`` under both ``src`` trees is deleted, so neither side
imports from a bytecode cache the other lacks (``setup_s`` moves about 15%
with it).

The metrics, their units, which direction is better and the bound by
which each may worsen come from CHANGE's ``BENCHMARK.json``.  For each
workload and metric the file holds both sides' runs, medians and
quartiles, the pairs the change won (ties count for neither), the
parent's interquartile range (IQR), and two verdicts:

* ``gain``: the change won at least nine tenths of the pairs and its
  median is better than the parent's by more than the parent's IQR;
* ``regression``: ``worse`` when the change's median is worse than the
  parent's by more than the bound (relative to the parent's median),
  ``unresolved`` when it is not but either side's IQR exceeds the bound
  (unless every run of the change beats every run of the parent), else
  ``within_bound``.

It also holds the operations attempted and failed per run, the
environment lines that ``run.py`` printed, a digest of each side's
``src/mpjl/*.py`` and, per op slot, each side's median of the runs'
``slot_ms_p50`` (the median latency of that slot's ops in one run, read
from ``perfbench/out/result-<workload>-trace0.json`` right after the run),
which shows the ops a change moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def _clear_bytecode(root: Path) -> None:
    for cache in (root / "src").rglob("__pycache__"):
        shutil.rmtree(cache)


def _digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "mpjl").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} in {root.name} exited {done.returncode}:\n"
                         f"{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    env = next(line for line in lines if line.startswith("environment: "))
    detail = json.loads((root / "perfbench" / "out" / f"result-{workload}-trace0.json").read_text())
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "slot_ms_p50": detail["slot_ms_p50"],
            "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"], "environment": env[len("environment: "):]}


def _quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def _summary(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    pq, cq = _quartiles(parent), _quartiles(change)
    parent_iqr, change_iqr = pq[2] - pq[0], cq[2] - cq[0]
    lead = sign * (cq[1] - pq[1])
    scale = abs(pq[1]) or 1.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if -lead > bound * scale:
        regression = "worse"
    elif max(parent_iqr, change_iqr) > bound * scale and not all_better:
        regression = "unresolved"
    else:
        regression = "within_bound"
    return {"parent": {"runs": parent, "median": pq[1], "quartiles": [pq[0], pq[2]]},
            "change": {"runs": change, "median": cq[1], "quartiles": [cq[0], cq[2]]},
            "change_won": wins, "pairs": len(gains), "relative_change": (cq[1] - pq[1]) / scale,
            "parent_iqr": parent_iqr, "bound": bound,
            "gain": wins >= 0.9 * len(gains) and lead > parent_iqr, "regression": regression}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    workloads = {}
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for position, seed in enumerate(args.seeds):
            order = ("parent", "change") if position % 2 == 0 else ("change", "parent")
            for side in order:
                for root in sides.values():
                    _clear_bytecode(root)
                runs[side].append({"seed": seed, **_run(sides[side], workload, seed,
                                                        args.seconds)})
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(runs[side][-1]['metrics'])}", flush=True)
        workloads[workload] = {
            "seeds": args.seeds,
            "first": ["parent" if i % 2 == 0 else "change" for i in range(len(args.seeds))],
            "metrics": {name: _summary([r["metrics"][name] for r in runs["parent"]],
                                       [r["metrics"][name] for r in runs["change"]],
                                       m["better"], m["bound"])
                        for name, m in metrics.items()},
            "slot_ms_p50": {slot: {side: statistics.median(r["slot_ms_p50"][slot]
                                                            for r in runs[side])
                                   for side in sides}
                            for slot in runs["parent"][0]["slot_ms_p50"]},
            **{f"{side}_ops": [{k: r[k] for k in ("seed", "attempted", "failed", "correct")}
                               for r in runs[side]] for side in sides},
            "environment": sorted({r["environment"] for side in runs for r in runs[side]}),
        }
    out = {"command": "python3 perfbench/run.py --workload W --seed S --seconds "
                      f"{args.seconds:g}",
           "src_sha256": {side: _digest(root) for side, root in sides.items()},
           "workloads": workloads}
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    for workload, w in workloads.items():
        for name, s in w["metrics"].items():
            print(f"{workload} {name}: {s['parent']['median']:.6g} -> {s['change']['median']:.6g}"
                  f" ({100 * s['relative_change']:+.1f}%), won {s['change_won']}/{s['pairs']}, "
                  f"parent IQR {s['parent_iqr']:.4g}, gain {s['gain']}, {s['regression']}")
        print(f"{workload} slot_ms_p50: " + ", ".join(
            f"{slot} {v['parent']:.4g} -> {v['change']:.4g}" for slot, v in w["slot_ms_p50"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
