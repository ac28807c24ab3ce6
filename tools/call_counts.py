"""Count the library calls of one whole ``mpjl`` invocation per benchmark op shape.

Usage:
    python3 tools/call_counts.py [--src SRC] [--top N]

For every ``verify`` op of the ``fd-chart``, ``dense-operator`` and
``cli-sweep`` workloads (their argv from ``perfbench/workloads.py``, seed
1), ``cli.main(argv + ["--out", PATH])`` runs once to warm every cache,
then once more under ``sys.setprofile``: argument parsing, the suite, the
JSON writer and the file write, as the benchmark runs each op.  So does
``cli-sweep``'s ``report`` op, ``report --format json --out PATH`` over
the files its verify ops wrote: reading, merging and writing them; and,
as ``report-text``, the same merge rendered by ``report --format text``,
which the benchmark does not run.  A library call is any call of a
function that is not ``mpjl``'s: a C function (a numpy function or
method, a builtin) or a Python function of another module (argparse's
among them), and so also each call that such Python code makes.
Operators and indexing are not calls.  Each call is attributed to the
innermost ``mpjl`` function on the stack.  The table lists the total
per op, the number of distinct library functions among them (each runs
cold when an op follows cache-evicting work, as every benchmark op does,
so this count tracks an op's fixed cost), the calls attributed to
``cli`` functions, the calls made under ``suites.run_suite`` and those
made under
``reports.stack_reports``, ``reports._group``, ``reports.dumps_canonical``
or ``reports.render_text`` (the ``report`` column: building the reports or
grouping them into stacks, and writing them; whatever function the
calls are attributed to), and the ``N`` largest callers.

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


def _count(package: str, spans: dict, run) -> tuple[Counter, Counter, set]:
    # Library calls by innermost mpjl caller, how many were made under the code objects
    # of each label of ``spans`` (code object -> label), and the functions called.
    calls, within, functions = Counter(), Counter(), set()

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
            functions.add((getattr(arg, "__module__", None), arg.__qualname__)
                          if event == "c_call" else frame.f_code)
            under = set()
            while caller is not None:
                under.add(spans.get(caller.f_code))
                caller = caller.f_back
            within.update(under - {None})

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls, within, functions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--top", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]
    import mpjl
    import workloads
    from mpjl import cli, reports, suites

    package = str(Path(mpjl.__file__).parent)
    spans = {suites.run_suite.__code__: "suite"}
    spans.update(dict.fromkeys((reports.stack_reports.__code__, reports._group.__code__,
                                reports.dumps_canonical.__code__, reports.render_text.__code__),
                               "report"))
    print(f"mpjl from {package}")
    print(f"{'workload':<15} {'op':<20} {'calls':>6} {'funcs':>5} {'cli':>5} {'suite':>6} "
          f"{'report':>6}  largest callers")
    with tempfile.TemporaryDirectory(prefix="call-counts-") as work:
        for workload in ("fd-chart", "dense-operator", "cli-sweep"):
            written = []
            for op in workloads.WORKLOADS[workload](random.Random(1)):
                if op.kind == "verify":
                    runs = [(op.slot, op.argv)]
                elif op.kind == "report":
                    runs = [(op.slot, ["report", *written, "--format", "json"]),
                            (f"{op.slot}-text", ["report", *written, "--format", "text"])]
                else:
                    continue
                for slot, argv in runs:
                    out = str(Path(work) / f"{slot}.out")
                    argv = [*argv, "--out", out]
                    cli.main(argv)
                    calls, within, functions = _count(package, spans, lambda: cli.main(argv))
                    in_cli = sum(n for name, n in calls.items() if name.startswith("cli."))
                    top = ", ".join(f"{name} {n}" for name, n in calls.most_common(args.top))
                    print(f"{workload:<15} {slot:<20} {sum(calls.values()):>6} "
                          f"{len(functions):>5} {in_cli:>5} {within['suite']:>6} "
                          f"{within['report']:>6}  {top}")
                if op.kind == "verify" and Path(out).exists():
                    written.append(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
