"""Count the library calls of one whole ``mpjl`` invocation per benchmark op shape.

Usage:
    python3 tools/call_counts.py [--src SRC] [--top N]

For every ``verify`` op of the ``fd-chart``, ``dense-operator`` and
``cli-sweep`` workloads (their argv from ``perfbench/workloads.py``, seed
1), ``cli.main(argv + ["--out", PATH])`` runs once to warm every cache,
then once more under ``sys.setprofile``: argument parsing, the suite, the
JSON writer and the file write, as the benchmark runs each op.  A library
call is any call of a function that is not ``mpjl``'s: a C function (a
numpy function or method, a builtin) or a Python function of another
module (argparse's among them), and so also each call that such Python
code makes.  Operators and indexing are not calls.  Each call is
attributed to the innermost ``mpjl`` function on the stack.  The table
lists the total per op, the calls attributed to ``cli`` functions, the
calls made under ``suites.run_suite`` (whatever function they are
attributed to), and the ``N`` largest callers.

``SRC`` is the ``src`` directory to import ``mpjl`` from (default: this
checkout's), so two trees can be compared.  Only the standard library and
numpy are needed; the tool is not part of the test suite.
"""

from __future__ import annotations

import argparse
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _count(package: str, suite_code, run) -> tuple[Counter, int]:
    # Library calls by innermost mpjl caller, and how many were made under ``suite_code``.
    calls = Counter()
    in_suite = 0

    def ours(frame):
        return frame.f_code.co_filename.startswith(package)

    def profile(frame, event, arg):
        nonlocal in_suite
        if event == "call" and ours(frame) or event not in ("call", "c_call"):
            return
        caller = frame if event == "c_call" else frame.f_back
        while caller is not None and not ours(caller):
            caller = caller.f_back
        if caller is not None:
            code = caller.f_code
            calls[f"{Path(code.co_filename).stem}.{code.co_qualname}"] += 1
            while caller is not None and caller.f_code is not suite_code:
                caller = caller.f_back
            in_suite += caller is not None

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls, in_suite


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
    print(f"{'workload':<15} {'op':<20} {'calls':>6} {'cli':>5} {'suite':>6}  largest callers")
    with tempfile.TemporaryDirectory(prefix="call-counts-") as work:
        out = str(Path(work) / "out.json")
        for workload in ("fd-chart", "dense-operator", "cli-sweep"):
            for op in workloads.WORKLOADS[workload](random.Random(1)):
                if op.kind != "verify":
                    continue
                argv = [*op.argv, "--out", out]
                cli.main(argv)
                calls, in_suite = _count(package, suites.run_suite.__code__,
                                         lambda: cli.main(argv))
                in_cli = sum(n for name, n in calls.items() if name.startswith("cli."))
                top = ", ".join(f"{name} {n}" for name, n in calls.most_common(args.top))
                print(f"{workload:<15} {op.slot:<20} {sum(calls.values()):>6} {in_cli:>5} "
                      f"{in_suite:>6}  {top}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
