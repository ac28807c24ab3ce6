"""Wall time of fresh ``python -m mpjl`` processes from two source trees, alternating.

Usage:
    python3 tools/fresh_process.py SRC_A SRC_B [--pairs N] -- ARGV...

SRC_A and SRC_B are ``src`` directories (for example the one of this
checkout and the one of an older commit unpacked elsewhere).  Each pair
runs ``python -m mpjl ARGV`` once from each tree, A first in even pairs and
B first in odd ones, with ``mpjl`` imported from that tree alone, one BLAS
thread and ``PYTHONDONTWRITEBYTECODE=1``, so no run reads bytecode an
earlier one wrote.  A run is timed from spawn to exit; its output is
discarded.  Prints each side's median and interquartile range (IQR) in
milliseconds, the pairs B won (ties count for neither) and the exit codes
seen.  Example, the timing of the full-rank suite in a new process:

    python3 tools/fresh_process.py OLD/src src --pairs 25 -- \\
        verify jacobian-full --n 4 --m 3 --trials 5
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run(src: Path, argv: list[str]) -> tuple[float, int]:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1",
           **dict.fromkeys(THREADS, "1")}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "mpjl", *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return 1e3 * (time.perf_counter() - start), done.returncode


def _summary(ms: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
    return f"median {median:.1f} ms, IQR {q3 - q1:.1f} ms ({q1:.1f} to {q3:.1f})"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src_a", type=Path)
    p.add_argument("src_b", type=Path)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("argv", nargs="+", help="the mpjl command line, after --")
    args = p.parse_args()
    srcs, (a, b), codes = (args.src_a, args.src_b), ([], []), set()
    for pair in range(args.pairs):
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            ms, code = _run(srcs[side].resolve(), args.argv)
            (a, b)[side].append(ms)
            codes.add(code)
    wins = sum(y < x for x, y in zip(a, b))
    print(f"A {args.src_a}: {_summary(a)}")
    print(f"B {args.src_b}: {_summary(b)}")
    print(f"B faster in {wins} of {args.pairs} pairs; exit codes {sorted(codes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
