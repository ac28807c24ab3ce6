"""Count the library calls of one trial stack per benchmark op shape.

Usage:
    python3 tools/call_counts.py [--src SRC] [--top N]

For every ``verify`` op of the ``fd-chart``, ``dense-operator`` and
``cli-sweep`` workloads (their shapes, trials and flags from
``perfbench/workloads.py``, seed 1), ``suites.run_suite`` runs once to
warm every cache, then once
more under ``sys.setprofile``.  A library call is any call of a function
that is not ``mpjl``'s: a C function (a numpy function or method, a
builtin) or a Python function of another module, and so also each call
that numpy's own Python code makes.  Operators and indexing are not
calls.  Each call is attributed to the innermost ``mpjl`` function on the
stack.  The table lists the total per op and its ``N`` largest callers.

``SRC`` is the ``src`` directory to import ``mpjl`` from (default: this
checkout's), so two trees can be compared.  Only the standard library and
numpy are needed; the tool is not part of the test suite.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _count(package: str, run) -> Counter:
    calls = Counter()

    def ours(frame):
        return frame.f_code.co_filename.startswith(package)

    def profile(frame, event, arg):
        if event == "call" and ours(frame) or event not in ("call", "c_call"):
            return
        caller = frame if event == "c_call" else frame.f_back
        while caller is not None and not ours(caller):
            caller = caller.f_back
        if caller is not None:
            code = caller.f_code
            calls[f"{Path(code.co_filename).stem}.{code.co_qualname}"] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--top", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]
    import mpjl
    import workloads
    from mpjl import cli, suites

    package = str(Path(mpjl.__file__).parent)
    print(f"mpjl from {package}")
    print(f"{'workload':<15} {'op':<20} {'calls':>6}  largest callers")
    for workload in ("fd-chart", "dense-operator", "cli-sweep"):
        for op in workloads.WORKLOADS[workload](random.Random(1)):
            if op.kind != "verify":
                continue
            parsed = cli._parser().parse_args(list(op.argv))
            cfg = cli._config_from_args(parsed, trials=parsed.trials, tol=parsed.tol)
            suites.run_suite(parsed.suite, cfg)
            calls = _count(package, lambda: suites.run_suite(parsed.suite, cfg))
            top = ", ".join(f"{name} {n}" for name, n in calls.most_common(args.top))
            print(f"{workload:<15} {op.slot:<20} {sum(calls.values()):>6}  {top}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
