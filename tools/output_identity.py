"""Compare what two mpjl source trees print and write, invocation by invocation.

Usage:
    python3 tools/output_identity.py SRC_A SRC_B
    python3 tools/output_identity.py SRC --write-manifest PATH

SRC_A and SRC_B are ``src`` directories (for example the one of this
checkout and the one of an older commit unpacked elsewhere).  Each side
runs in a fresh process with one BLAS thread and ``mpjl`` imported from
its own directory.  It replays:

* every ``verify`` op of the first 3 cycles of each perfbench workload at
  seeds 101-103, with the op schedules taken unchanged from
  ``perfbench/workloads.py``, once to stdout and once to an ``--out`` file;
* after each cycle, ``report`` over the ``--out`` files that cycle wrote,
  in JSON and in text (an op that ends in a traceback writes none);
* the three invariance witness fixtures, rendered as canonical JSON;
* a fixed list of edge invocations: ``gen``, ``--tol`` overrides (and
  refusals) per suite, bad configurations (among them the two that pass
  ``--fd-step``, to ``gen`` and to ``verify``: both exit 2 with an
  unrecognized argument, since no oracle takes a step any more), an
  ``--out`` path that cannot be written, report merges and parse errors,
  a run whose trial stack raises and so reruns as stacks of one (an
  ill-conditioned pivot in one trial), ``invariance`` at 4 x 4 q=2 and
  spectrum ``1000,0.001`` (edge 25), whose central-difference points used
  to leave the pivot block's validity region (exit 1) and whose exact
  tangent map passes every trial, two ``differential`` runs at
  spectrum ``100,1,0.01`` (edges 28 and 29), which pass at their first
  attempt since the tangent oracle moves no point off rank q (edge
  29 no longer exhausts the retry budget), ``operator-rank`` at 4 x 3
  q=2 and spectrum ``1000,0.001`` (edge 26), whose chart tangent moves no
  point to pivot-test, so its stack does not rerun trial by trial and reports
  honest ``leak`` and ``area_formula`` FAILs, stacks whose linear determinants would leave
  the float range (30 x 20 and 16 x 8), ``operator-rank``
  at full rank and at 32 x 24, a twelve-trial 30 x 20 stack, three
  ``operator-rank`` stacks (five 8 x 6 trials at cond(X) = 1e4, four
  full-rank 1 x 5 trials, where the operator has no 2x2 pair block and no
  kernel, and four 4 x 3 q=2 trials at cond(X) = 1e5, two of which fail
  the area formula by the rounding of the chart determinant (the second
  and third read 1.7e-10 and 5.1e-10 against 1e-9), one also its
  ``leak``), two ``operator-rank``
  spectra whose squared operator entries
  leave the float range, one by overflow and one by underflow, ``--tol``
  values that are not finite, ``report`` over files that hold a number
  that is not finite, and the chart oracles at spectrum ``geomspace(1,
  1/c, q)``: ``jacobian-full`` 4 x 3 and 3 x 4 at c = 1e4 and ``blocks``
  8 x 6 q=3 at c = 1e5; and the oracles of ``differential`` (the tangent)
  7 x 5 q=3 at spectrum ``1000,1,0.001`` and 5 x 5 at c = 1e4, and of
  ``symmetric-inverse`` (the forward-mode tangent) at order 8; ``hausdorff`` at 60 x 50 q=20, whose
  linear density underflowed into a ``ZeroDivisionError``, and at 40 x 32
  q=20 seed 278331871, whose linear factor ran through subnormals into a
  FAIL; and ``invariance`` 2 x 2 q=1 seed 221480469, whose ``H X Q`` rounded
  above the rank cut of a second rank test; ``report`` merges, in JSON and
  in text, of one ``blocks`` file twice (every trial a duplicate), of
  ``hausdorff`` 40 x 32 q=20 files at seeds 278331871, 2 and 3 (six
  trials), and of a hand-written file whose keys and
  strings hold ``%``, ``\\u0000``, ``"`` and non-ASCII characters; and, in
  JSON and in text, ``operator-rank`` 24 x 20 q=8 with two trials and 10 x
  8 q=3 with nine trials (each one stack); ``hausdorff`` 40 x 32 q=20 seed 226, whose trial 1 draws a
  tied spectrum at its first attempt, so that trial is redrawn; an ``invariance`` stack at seed 2^64+3 and a
  ``blocks`` stack at seed 2^32, whose seeds take three and two entropy
  words of the stacked stream hash; and the refusals (exit 2) of a
  negative seed (``--seed -1`` to ``verify`` and to ``gen``, and
  ``MPJL_DEFAULT_SEED=-3``: an edge's leading ``NAME=value`` words are
  set in the environment while it runs), of ``symmetric-inverse`` given
  ``--spectrum`` or a ``--q`` other than ``--m``, and of ``report`` over
  files whose ``inputs`` or ``residuals`` is an array or whose ``seed``
  is a string (merged with a file whose reports carry no seed); and
  ``symmetric-inverse --m 8 --q 8``, whose order is m whatever ``--n`` is;
  and ``operator-rank`` 6 x 5 q=2 just inside either float-range bound of
  its spectrum (``1.2e69,6e68`` and ``5e-76,4.8e-77``, in JSON and in
  text), 24 x 20 q=8 with three trials in one stack, and 6 x 5 at full rank;
  and the four runs that failed while determinants were linear:
  ``exterior-chain`` 40 x 30 (a NaN traceback), ``jacobian-full`` 48 x 36
  (a pass on 0.0 against 0.0), ``jacobian-full`` 20 x 16 at spectrum
  ``linspace(0.3, 0.15, 16)`` and ``operator-rank`` 3 x 5 q=2 at spectrum
  ``2.5e-13,2.5e-14`` (both an overflow to inf), each in JSON; and
  ``report`` merges, in JSON and in text, of a hand-written file whose
  ``values`` hold a nested array and an object (which the JSON merge
  refuses with exit 2: a report's JSON holds no such value; the text merge
  writes no values), and of a file with zero reports together with the
  ``blocks`` file ``dup.json``; and, in JSON, the
  boundary cases of the three checks that moved into ``suites``: square
  ``exterior-chain`` (4 x 4),
  ``hausdorff`` at q=1 (no pair of singular values) and ``invariance`` on
  the full chart (3 x 2 at q = 2, where |det| = 1 is asserted); and, in
  JSON, the chart oracles' forward-mode tangent of pinv on stacks:
  ``jacobian-full`` 3 x 4 and 4 x 3 at spectrum ``10,0.1,0.001`` (cond(X)
  1e4), ``operator-rank`` 3 x 5 q=2 and 4 x 3 q=1, and ``differential`` 7 x
  5 q=3 at spectrum ``1000,1,0.001``; and, in JSON, the stacked charts of
  the chart oracles: at the pivot cap (``--q 2 --seed 0``,
  ``jacobian-full`` 2 x 3 at ``1,1e-9`` and 3 x 2 at ``1,1e-8``,
  ``operator-rank`` 4 x 3 at ``1,1e-9`` and ``1,1e-8``, whose first trials
  fail the pivot test, pivoted alone, on X11 and Y11, on X11 alone, on
  both and on Y11 alone; no suite tests Y11, so edge 117 fails on trial
  1's X11), on square charts (``jacobian-full`` 3 x 3, ``operator-rank`` 4 x 4
  at q=2 and q=1), on q=1 charts (``jacobian-full`` 1 x 4 and 4 x 1,
  ``operator-rank`` 5 x 2) and with ``--trials 1`` (``jacobian-full`` 3 x 4,
  ``operator-rank`` 4 x 3 q=2); and ``report`` of a file that begins with a
  byte order mark, in JSON and in text; and the retries of one trial
  stack: ``blocks`` and ``differential`` 24 x 22 q=20 seed 226, three
  trials, whose middle trial draws a tied spectrum at its first attempt
  (the stack redraws that slice alone), ``blocks`` and ``invariance`` 3 x 3
  q=2 at spectrum ``100000,0.001`` (seeds 5 and 10, four trials), whose
  first trial passes and whose later trials hit the pivot cap, the worst
  one not first (the run names the first trial's condition), and ``gen``
  24 x 22 q=20 seed 275, whose first draw is degenerate; and, in JSON,
  ``blocks`` on each branch of the factored pseudoinverse: 3 x 5 q=3 (a
  chart that keeps every row, so no I + Z'Z), 4 x 4 q=4 (neither Gram
  matrix) and 6 x 5 q=2 (both); and ``invariance`` 3 x 3 q=2 at spectrum
  ``1.7976931348623157e308,1.7e308`` (the largest float), seeds 1-3, whose
  X no check coerces a second time; and, in JSON, the refusals that the one
  rank requirement and the one spectrum check make: ``jacobian-full`` 3 x 2
  at spectrum ``1,1e-17`` and ``exterior-chain`` 4 x 3 at ``1,0.5,1e-17``
  (a lost rank, exit 1), ``gen`` 3 x 3 q=2 at ``3,2,1`` (a wrong count) and
  ``blocks`` 4 x 3 q=2 at ``3,2.9999999,1`` (a tied gap and a wrong count,
  which names the gap), each exit 2; and, in JSON, a lost rank above
  ``operator-rank``'s chart cap (8 x 6 q=3 at ``1,0.5,1e-17``, exit 1) and
  the full charts of ``jacobian-full`` 3 x 4 and 4 x 3 at spectrum
  ``geomspace(1, 1e-5, 3)``; and, in JSON, ``symmetric-inverse`` at order
  12 (two trials, a 78 x 78 Jacobian each) and at order 1 (three trials,
  one coordinate); and, in JSON, ``operator-rank`` 3 x 5 q=2 with 40
  trials, in 7 of which Y's own pivots differ from X's, and 6 x 5 q=1 with
  8 trials, where they cannot (a rank-1 Y' is X / d^2); and, in text,
  ``report`` of a file whose ``inputs`` hold a lone surrogate
  (``"\\ud800"``, which JSON can hold and UTF-8 cannot encode), to stdout
  and to an ``--out`` file (edges 150 and 151); and the two runs that the
  entry budget splits into several trial stacks, ``operator-rank`` 24 x 20
  q=8 with 40 trials (six stacks) and ``invariance`` 8 x 6 q=3 with 45
  trials (stacks of 20, 20 and 5), each in JSON and in text to stdout and in
  JSON to an ``--out`` file, and ``report`` of those two files, in JSON and
  in text; and the refusals (exit 1) of ``gen`` 4 x 3 q=2 seed 1 at a
  numerical rank other than q: spectrum ``1.7976931348623157e308,1.79e308``
  (LAPACK's largest singular value is inf, so the cut is inf and the rank
  0), ``1,1e-17`` (rank 1) and ``1e-312,9.99999e-313`` (rank 3);
* ``verify hausdorff`` 4 x 3 q=2, in JSON and in text, with
  ``measures.log_hausdorff_density`` patched to return NaN on both sides, so
  that a residual that is not finite reaches a live report (``identity=null``
  in the text).

Each invocation records its exit code (or the exception that escaped
``cli.main``), its stdout (a UTF-8 byte stream, as a terminal or a pipe
is), its ``error: ...`` lines of stderr and the
bytes of its ``--out`` file.  Text output drops its ``wall_time`` line,
which is timing; the rest of stderr, such as numpy's ``RuntimeWarning``
lines that carry source paths, is not compared.  The script prints one
digest per side and every invocation whose record differs, and exits 0
when the two sides agree, 1 otherwise.  Where stdout or the ``--out``
bytes differ and are JSON on both sides, it also names the leaf paths
whose values differ, list indices collapsed to ``[*]`` (for example
``reports[*].residuals.annihilation``), and after the invocations it
prints each such path once, with the number of invocations in which it
differs.  CHANGES.md records, per change, the differences it declared.

With ``--write-manifest PATH`` the one tree given is replayed the same way
and its records (id, argv, exit code, the digests of stdout and of the
``--out`` bytes, the ``error:`` lines) go to PATH, with the environment
they were taken in (``environment()``: Python, numpy, the BLAS build, the
machine and the SIMD extensions numpy dispatches to), since the bits of a
residual are stable only for one numpy/BLAS build and CPU.  A test holds
the tree to the checked-in ``tests/output_manifest.json``
(``manifest_differences``); a change that declares an output change
rewrites it, and its diff is the record.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (101, 102, 103)
CYCLES = 3

# linspace(0.3, 0.15, 20) and linspace(0.06, 0.03, 8): |X'X|^-n leaves the
# float range at 30 x 20 and at 16 x 8.  The entry budget puts each run in
# one trial stack.  linspace(0.3, 0.15, 16) does so at 20 x 16.
OVERFLOW_SPECTRA = {(30, 20): ",".join(str(0.3 - 0.15 * i / 19) for i in range(20)),
                    (16, 8): ",".join(str(0.06 - 0.03 * i / 7) for i in range(8)),
                    (20, 16): ",".join(str(0.3 - 0.15 * i / 15) for i in range(16))}

# Numbers that strict JSON refuses, each written into a one-report file
# that ``report`` reads.
NON_FINITE = ("NaN", "Infinity", "1e400")
NON_FINITE_REPORT = (
    '{"reports": [{"check_name": "blocks", "inputs": {"n": 4, "m": 3, "q": 3}, "values": {}, '
    '"residuals": {"roundtrip": %s}, "tolerances": {"roundtrip": 1e-10}, "pass": true}], '
    '"summary": {"total": 1, "passed": 1, "failed": 0}}\n')

# Report files of the wrong structure, each a one-report file that
# ``report`` reads.
MALFORMED_REPORTS = {
    "inputs-array": NON_FINITE_REPORT.replace('{"n": 4, "m": 3, "q": 3}', "[4, 3, 3]"),
    "residuals-array": NON_FINITE_REPORT.replace('{"roundtrip": %s}', "[%s]"),
    "seed-string": NON_FINITE_REPORT.replace('"q": 3}', '"q": 3, "seed": "5"}'),
}

# Runs whose trials the entry budget splits into several stacks: operator-rank
# 24 x 20 q=8 into six (seven trials each, then five), invariance 8 x 6 q=3
# into stacks of 20, 20 and 5.
MULTI_STACK_RUNS = {
    "operator-rank": ["operator-rank", "--n", "24", "--m", "20", "--q", "8", "--trials", "40"],
    "invariance": ["invariance", "--n", "8", "--m", "6", "--q", "3", "--trials", "45"],
}

EDGE_CASES = [
    ["gen", "--n", "4", "--m", "3", "--q", "2", "--seed", "7"],
    ["gen", "--n", "4", "--m", "3", "--q", "2", "--seed", "7", "--out", "gen.json"],
    ["gen", "--n", "5", "--m", "2", "--q", "1", "--seed", "3", "--spectrum", "3"],
    ["gen", "--n", "3", "--m", "3", "--q", "2", "--spectrum", "1,2"],
    ["gen", "--n", "4", "--m", "3", "--q", "5"],
    ["gen", "--n", "3", "--m", "2"],
    ["gen", "--n", "3", "--m", "2", "--tol", "1e-30", "--fd-step", "1e-3", "--format", "text",
     "--trials", "7"],
    ["gen", "--n", "3", "--m", "2", "--trials", "0"],
    ["verify", "blocks", "--n", "8", "--m", "6", "--q", "3", "--trials", "3", "--seed", "5"],
    ["verify", "invariance", "--n", "8", "--m", "6", "--q", "3", "--trials", "3", "--seed", "5",
     "--format", "json"],
    ["verify", "differential", "--n", "7", "--m", "5", "--q", "3", "--trials", "3",
     "--format", "json"],
    ["verify", "differential", "--n", "4", "--m", "3", "--trials", "2", "--seed", "1",
     "--tol", "1e-30"],
    ["verify", "jacobian-full", "--n", "4", "--m", "3", "--q", "2"],
    ["verify", "exterior-chain", "--n", "5", "--m", "3", "--tol", "1e-30"],
    ["verify", "jacobian-full", "--n", "4", "--m", "2", "--trials", "2", "--tol", "1e-30",
     "--format", "json"],
    ["verify", "operator-rank", "--n", "4", "--m", "4", "--q", "2", "--trials", "2",
     "--tol", "1e-30", "--format", "json"],
    ["verify", "hausdorff", "--n", "6", "--m", "5", "--q", "3", "--trials", "2", "--tol", "1e-30",
     "--format", "json"],
    ["verify", "symmetric-inverse", "--m", "3", "--trials", "2", "--tol", "1e-30",
     "--format", "json"],
    ["verify", "blocks", "--n", "5", "--m", "4", "--q", "2", "--trials", "2", "--tol", "1e-30",
     "--format", "json"],
    ["verify", "invariance", "--n", "3", "--m", "3", "--tol", "1e-30"],
    ["verify", "differential", "--fd-step", "0.5"],
    ["verify", "blocks", "--trials", "0"],
    ["verify", "hausdorff", "--spectrum", "3,x"],
    ["report", "--format", "json"],
    ["report", "missing.json"],
    ["verify", "invariance", "--n", "4", "--m", "4", "--q", "2", "--trials", "6",
     "--spectrum", "1000,0.001", "--seed", "3", "--format", "json"],
    ["verify", "operator-rank", "--n", "4", "--m", "3", "--q", "2", "--trials", "6",
     "--spectrum", "1000,0.001", "--seed", "4", "--format", "json"],
    ["verify", "invariance", "--n", "3", "--m", "3", "--q", "2", "--trials", "6",
     "--spectrum", "100000,0.001", "--seed", "1", "--format", "json"],
    ["verify", "differential", "--n", "7", "--m", "5", "--q", "3", "--trials", "4",
     "--spectrum", "100,1,0.01", "--seed", "3", "--format", "json"],
    ["verify", "differential", "--n", "7", "--m", "5", "--q", "3", "--trials", "4",
     "--spectrum", "100,1,0.01", "--seed", "10", "--format", "json"],
    ["verify", "blocks", "--n", "3", "--m", "3", "--q", "2", "--trials", "6",
     "--spectrum", "100000,0.001", "--seed", "1", "--format", "json"],
    *(["verify", "exterior-chain", "--n", str(n), "--m", str(m), "--trials", str(trials),
       "--spectrum", OVERFLOW_SPECTRA[n, m], "--format", fmt]
      for n, m, trials in ((30, 20, 3), (16, 8, 4)) for fmt in ("json", "text")),
    ["verify", "blocks", "--trials", "1", "--out", "no-such-dir/x.json"],
    ["verify", "operator-rank", "--n", "8", "--m", "4", "--q", "4", "--trials", "3",
     "--format", "json"],
    ["verify", "operator-rank", "--n", "4", "--m", "3", "--trials", "2", "--format", "json"],
    ["verify", "operator-rank", "--n", "32", "--m", "24", "--q", "12", "--trials", "1",
     "--format", "json"],
    ["verify", "exterior-chain", "--n", "30", "--m", "20", "--trials", "12", "--format", "json"],
    ["verify", "operator-rank", "--n", "8", "--m", "6", "--q", "5", "--trials", "5",
     "--spectrum", "1,0.1,0.01,0.001,0.0001", "--format", "json"],
    ["verify", "operator-rank", "--n", "1", "--m", "5", "--trials", "4", "--format", "json"],
    ["verify", "operator-rank", "--n", "4", "--m", "3", "--q", "2", "--trials", "4", "--seed", "2",
     "--spectrum", "1,0.00001", "--format", "json"],
    *(["verify", "operator-rank", "--n", "6", "--m", "5", "--q", "2", "--trials", "2",
       "--spectrum", spectrum, "--format", "json"]
      for spectrum in ("1e-100,5e-101", "1e150,5e149")),
    *(["verify", "blocks", "--trials", "2", "--tol", tol, "--format", "json"]
      for tol in ("nan", "inf", "1e400")),
    *(["report", f"non-finite-{number}.json", "--format", fmt]
      for number in NON_FINITE for fmt in ("json", "text")),
    *(["verify", "jacobian-full", "--n", n, "--m", m, "--trials", "4", "--seed", "1",
       "--spectrum", "1,0.01,0.0001", "--format", "json"] for n, m in (("4", "3"), ("3", "4"))),
    ["verify", "blocks", "--n", "8", "--m", "6", "--q", "3", "--trials", "4", "--seed", "1",
     "--spectrum", "1,0.0031622776601683794,1e-05", "--format", "json"],
    ["verify", "differential", "--n", "7", "--m", "5", "--q", "3", "--spectrum", "1000,1,0.001",
     "--trials", "3", "--format", "json"],
    ["verify", "differential", "--n", "5", "--m", "5", "--trials", "4", "--seed", "1",
     "--spectrum", "1,0.1,0.01,0.001,0.0001", "--format", "json"],
    ["verify", "symmetric-inverse", "--m", "8", "--trials", "4", "--format", "json"],
    ["verify", "hausdorff", "--n", "60", "--m", "50", "--q", "20", "--format", "json"],
    ["verify", "hausdorff", "--n", "40", "--m", "32", "--q", "20", "--trials", "1",
     "--seed", "278331871", "--format", "json"],
    ["verify", "invariance", "--n", "2", "--m", "2", "--q", "1", "--trials", "45",
     "--seed", "221480469", "--format", "json"],
    ["verify", "blocks", "--n", "5", "--m", "4", "--q", "2", "--trials", "3", "--seed", "9",
     "--format", "json", "--out", "dup.json"],
    *(["report", "dup.json", "dup.json", "--format", fmt] for fmt in ("json", "text")),
    *(["verify", "hausdorff", "--n", "40", "--m", "32", "--q", "20", "--trials", trials,
       "--seed", seed, "--format", "json", "--out", f"h40-{seed}.json"]
      for seed, trials in (("278331871", "1"), ("2", "1"), ("3", "6"))),
    *(["report", "h40-278331871.json", "h40-2.json", "h40-3.json", "--format", fmt]
      for fmt in ("json", "text")),
    *(["report", "escapes.json", "--format", fmt] for fmt in ("json", "text")),
    *(["verify", "operator-rank", "--n", n, "--m", m, "--q", q, "--trials", trials,
       "--format", fmt]
      for n, m, q, trials in (("24", "20", "8", "2"), ("10", "8", "3", "9"))
      for fmt in ("json", "text")),
    ["verify", "hausdorff", "--n", "40", "--m", "32", "--q", "20", "--trials", "4",
     "--seed", "226", "--format", "json"],
    ["verify", "invariance", "--n", "5", "--m", "4", "--q", "2", "--trials", "6",
     "--seed", str(2**64 + 3), "--format", "json"],
    ["verify", "blocks", "--n", "8", "--m", "6", "--q", "3", "--trials", "5",
     "--seed", str(2**32), "--format", "json"],
    ["verify", "blocks", "--seed", "-1", "--trials", "2"],
    ["gen", "--seed", "-1"],
    ["MPJL_DEFAULT_SEED=-3", "verify", "hausdorff"],
    ["verify", "symmetric-inverse", "--m", "3", "--spectrum", "1000,1,0.001"],
    ["verify", "symmetric-inverse", "--m", "3", "--q", "2"],
    *(["report", f"malformed-{name}.json", "--format", fmt]
      for name in ("inputs-array", "residuals-array") for fmt in ("json", "text")),
    *(["report", "finite.json", "malformed-seed-string.json", "--format", fmt]
      for fmt in ("json", "text")),
    ["verify", "symmetric-inverse", "--m", "8", "--q", "8", "--trials", "4", "--format", "json"],
    *(["verify", "operator-rank", "--n", "6", "--m", "5", "--q", "2", "--trials", "2", "--seed", "3",
       "--spectrum", spectrum, "--format", fmt]
      for spectrum in ("1.2e69,6e68", "5e-76,4.8e-77") for fmt in ("json", "text")),
    ["verify", "operator-rank", "--n", "24", "--m", "20", "--q", "8", "--trials", "3",
     "--format", "json"],
    ["verify", "operator-rank", "--n", "6", "--m", "5", "--trials", "8", "--format", "json"],
    ["verify", "exterior-chain", "--n", "40", "--m", "30", "--trials", "3", "--format", "json"],
    ["verify", "jacobian-full", "--n", "48", "--m", "36", "--trials", "3", "--format", "json"],
    ["verify", "jacobian-full", "--n", "20", "--m", "16", "--trials", "1",
     "--spectrum", OVERFLOW_SPECTRA[20, 16], "--format", "json"],
    ["verify", "operator-rank", "--n", "3", "--m", "5", "--q", "2", "--trials", "2", "--seed", "0",
     "--spectrum", "2.5e-13,2.5e-14", "--format", "json"],
    *(["report", "nested-values.json", "--format", fmt] for fmt in ("json", "text")),
    *(["report", "no-reports.json", "dup.json", "--format", fmt] for fmt in ("json", "text")),
    ["verify", "exterior-chain", "--n", "4", "--m", "4", "--trials", "3", "--format", "json"],
    ["verify", "hausdorff", "--n", "3", "--m", "2", "--q", "1", "--trials", "3", "--format", "json"],
    ["verify", "invariance", "--n", "3", "--m", "2", "--trials", "3", "--format", "json"],
    *(["verify", "jacobian-full", "--n", n, "--m", m, "--trials", "6", "--seed", "2",
       "--spectrum", "10,0.1,0.001", "--format", "json"] for n, m in (("3", "4"), ("4", "3"))),
    *(["verify", "operator-rank", "--n", n, "--m", m, "--q", q, "--trials", "5", "--format", "json"]
      for n, m, q in (("3", "5", "2"), ("4", "3", "1"))),
    ["verify", "differential", "--n", "7", "--m", "5", "--q", "3", "--spectrum", "1000,1,0.001",
     "--trials", "5", "--seed", "2", "--format", "json"],
    *(["verify", suite, "--n", n, "--m", m, "--q", "2", "--trials", "3", "--seed", "0",
       "--spectrum", spectrum, "--format", "json"]
      for suite, n, m, spectrum in (("jacobian-full", "2", "3", "1,1e-9"),
                                    ("jacobian-full", "3", "2", "1,1e-8"),
                                    ("operator-rank", "4", "3", "1,1e-9"),
                                    ("operator-rank", "4", "3", "1,1e-8"))),
    *(["verify", suite, "--n", n, "--m", m, "--q", q, "--trials", trials, "--format", "json"]
      for suite, n, m, q, trials in (("jacobian-full", "3", "3", "3", "4"),
                                     ("operator-rank", "4", "4", "2", "4"),
                                     ("operator-rank", "4", "4", "1", "4"),
                                     ("jacobian-full", "1", "4", "1", "4"),
                                     ("jacobian-full", "4", "1", "1", "4"),
                                     ("operator-rank", "5", "2", "1", "4"),
                                     ("jacobian-full", "3", "4", "3", "1"),
                                     ("operator-rank", "4", "3", "2", "1"))),
    *(["report", "bom.json", "--format", fmt] for fmt in ("json", "text")),
    *(["verify", suite, "--n", "24", "--m", "22", "--q", "20", "--trials", "3", "--seed", "226",
       "--format", "json"] for suite in ("blocks", "differential")),
    *(["verify", suite, "--n", "3", "--m", "3", "--q", "2", "--trials", "4",
       "--spectrum", "100000,0.001", "--seed", seed, "--format", "json"]
      for suite, seed in (("blocks", "5"), ("invariance", "10"))),
    ["gen", "--n", "24", "--m", "22", "--q", "20", "--seed", "275"],
    *(["verify", "blocks", "--n", n, "--m", m, "--q", q, "--trials", "4", "--format", "json"]
      for n, m, q in (("3", "5", "3"), ("4", "4", "4"), ("6", "5", "2"))),
    *(["verify", "invariance", "--n", "3", "--m", "3", "--q", "2", "--trials", "4",
       "--spectrum", "1.7976931348623157e308,1.7e308", "--seed", seed] for seed in "123"),
    ["verify", "jacobian-full", "--n", "3", "--m", "2", "--trials", "2", "--spectrum", "1,1e-17",
     "--format", "json"],
    ["verify", "exterior-chain", "--n", "4", "--m", "3", "--trials", "3",
     "--spectrum", "1,0.5,1e-17", "--format", "json"],
    ["gen", "--n", "3", "--m", "3", "--q", "2", "--spectrum", "3,2,1"],
    ["verify", "blocks", "--n", "4", "--m", "3", "--q", "2", "--spectrum", "3,2.9999999,1",
     "--format", "json"],
    ["verify", "operator-rank", "--n", "8", "--m", "6", "--q", "3", "--trials", "2",
     "--spectrum", "1,0.5,1e-17", "--format", "json"],
    *(["verify", "jacobian-full", "--n", n, "--m", m, "--trials", "4", "--seed", "1",
       "--spectrum", "1,0.0031622776601683794,1e-05", "--format", "json"]
      for n, m in (("3", "4"), ("4", "3"))),
    ["verify", "symmetric-inverse", "--m", "12", "--trials", "2", "--format", "json"],
    ["verify", "symmetric-inverse", "--m", "1", "--trials", "3", "--format", "json"],
    *(["verify", "operator-rank", "--n", n, "--m", m, "--q", q, "--trials", trials,
       "--format", "json"] for n, m, q, trials in (("3", "5", "2", "40"), ("6", "5", "1", "8"))),
    *(["report", "surrogate.json", "--format", "text", *out]
      for out in ([], ["--out", "surrogate.txt"])),
    *(["verify", *args, "--format", fmt, *out]
      for args in MULTI_STACK_RUNS.values()
      for fmt, out in (("json", []), ("text", []), ("json", ["--out", f"{args[0]}-stacks.json"]))),
    *(["report", *(f"{args[0]}-stacks.json" for args in MULTI_STACK_RUNS.values()), "--format", fmt]
      for fmt in ("json", "text")),
    *(["gen", "--n", "4", "--m", "3", "--q", "2", "--seed", "1", "--spectrum", spectrum]
      for spectrum in ("1.7976931348623157e308,1.79e308", "1,1e-17", "1e-312,9.99999e-313")),
]

# Run with the density forced to NaN, as a check that produces a value that is
# not finite would leave it.
NAN_DENSITY_CASES = [["verify", "hausdorff", "--n", "4", "--m", "3", "--q", "2", "--trials", "3",
                      "--format", fmt] for fmt in ("json", "text")]

# Keys and strings that the JSON writer must escape, in a one-report file
# that ``report`` reads.
ESCAPES_REPORT = json.dumps({
    "reports": [{"check_name": "blocks %s 100%",
                 "inputs": {"n": 4, "note %d": "a\u0000b \u00e9 %%"},
                 "values": {"%": "\u0000\"", "\u00e9\u2200": 1.5}, "residuals": {"roundtrip": 0.0},
                 "tolerances": {"roundtrip": 1e-10}, "pass": True}],
    "summary": {"total": 1, "passed": 1, "failed": 0}})


# A report whose values are not all scalars, and a file with no reports,
# each a file that ``report`` reads.
NESTED_VALUES_REPORT = NON_FINITE_REPORT.replace(
    '"values": {}', '"values": {"grid": [[1.0, 2.5], []], "factors": {"s": [3.0], "rank": 1}}'
) % "0.0"
NO_REPORTS = '{"reports": [], "summary": {"total": 0, "passed": 0, "failed": 0}}\n'
# A report whose inputs hold a lone surrogate, which JSON can hold and UTF-8
# cannot encode.
SURROGATE_REPORT = NON_FINITE_REPORT.replace('"q": 3}', '"q": 3, "label": "\\ud800"}') % "0.0"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _leaves(obj, path: str = ""):
    # (path, value) of every leaf, list indices collapsed to [*].
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for value in obj:
            yield from _leaves(value, f"{path}[*]")
    else:
        yield path, obj


def _leaf_digests(data: bytes) -> dict | None:
    """Digest of the values at each collapsed leaf path of JSON ``data``; None if not JSON."""
    try:
        obj = json.loads(data)
    except ValueError:
        return None
    values: dict[str, list] = {}
    for path, value in _leaves(obj):
        values.setdefault(path, []).append(value)
    return {path: _sha(json.dumps(v).encode()) for path, v in values.items()}


def _invoke(cli, label: str, argv: list[str]) -> dict:
    env = list(itertools.takewhile(lambda word: "=" in word, argv))
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    if out is not None:
        Path(out).unlink(missing_ok=True)
    # stdout is a byte stream, as a terminal or a pipe is; stderr is text.
    stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    try:
        with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
              mock.patch.dict(os.environ, (word.split("=", 1) for word in env))):
            code = cli.main(argv[len(env):])
    except SystemExit as e:
        code = e.code
    except Exception as e:  # an escaping exception is an outcome to compare
        code = f"{type(e).__name__}: {e}"
    stdout.flush()
    lines = stdout.buffer.getvalue().decode("utf-8").splitlines(keepends=True)
    text = "".join(line for line in lines if not line.startswith("wall_time:"))
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
    written = Path(out).read_bytes() if out is not None and Path(out).exists() else b""
    return {"id": label, "argv": argv, "code": code,
            "stdout": _sha(text.encode()), "errors": errors, "out": _sha(written),
            "stdout_leaves": _leaf_digests(text.encode()), "out_leaves": _leaf_digests(written)}


def replay(src: Path) -> list[dict]:
    """Records of every invocation, run against the mpjl sources in ``src``."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from mpjl import cli, measures, witnesses
    from mpjl.reports import dumps_canonical
    from workloads import WORKLOADS

    if Path(cli.__file__).resolve().parent != src / "mpjl":
        raise SystemExit(f"imported mpjl from {cli.__file__}, not {src}")
    records = []
    with tempfile.TemporaryDirectory(prefix="output-identity-") as work:
        os.chdir(work)
        for name, make_ops in WORKLOADS.items():
            for seed in SEEDS:
                rng = random.Random(f"{name}/{seed}")
                for cycle in range(CYCLES):
                    written = []
                    for op in make_ops(rng):
                        if op.kind != "verify":
                            continue
                        label = f"{name}/{seed}/{cycle}/{op.slot}"
                        out = f"{name}-{seed}-{cycle}-{op.slot}.json"
                        records.append(_invoke(cli, label, list(op.argv)))
                        records.append(_invoke(cli, f"{label} --out", [*op.argv, "--out", out]))
                        if Path(out).exists():
                            written.append(out)
                    for fmt in ("json", "text"):
                        records.append(_invoke(cli, f"{name}/{seed}/{cycle}/report {fmt}",
                                               ["report", *written, "--format", fmt]))
        for i, fixture in enumerate(witnesses.load_witnesses()):
            report = witnesses.reproduce(fixture)
            text = dumps_canonical({"check_name": report.check_name, "inputs": report.inputs,
                                    "values": report.values, "residuals": report.residuals,
                                    "tolerances": report.tolerances, "pass": report.passed})
            records.append({"id": f"witness {i}", "argv": [], "code": None,
                            "stdout": _sha(text.encode()), "errors": [], "out": _sha(b""),
                            "stdout_leaves": _leaf_digests(text.encode())})
        for number in NON_FINITE:
            Path(f"non-finite-{number}.json").write_text(NON_FINITE_REPORT % number)
        Path("finite.json").write_text(NON_FINITE_REPORT % "0.0")
        for name, report in MALFORMED_REPORTS.items():
            Path(f"malformed-{name}.json").write_text(report % "0.0")
        Path("escapes.json").write_text(ESCAPES_REPORT)
        Path("nested-values.json").write_text(NESTED_VALUES_REPORT)
        Path("no-reports.json").write_text(NO_REPORTS)
        Path("surrogate.json").write_text(SURROGATE_REPORT)
        Path("bom.json").write_text("\ufeff" + NON_FINITE_REPORT % "0.0", encoding="utf-8")
        for i, argv in enumerate(EDGE_CASES):
            records.append(_invoke(cli, f"edge {i}", argv))
        density = measures.log_hausdorff_density
        with mock.patch.object(measures, "log_hausdorff_density",
                               lambda *args: density(*args) + float("nan")):
            for argv in NAN_DENSITY_CASES:
                records.append(_invoke(cli, f"nan density {argv[-1]}", argv))
    return records


def _side(src: Path) -> list[dict]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "MPJL_DEFAULT_SEED")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave the perfbench tree as it is
    done = subprocess.run([sys.executable, __file__, "--replay", str(src)],
                          capture_output=True, text=True, env=env, timeout=1800)
    if done.returncode != 0:
        raise SystemExit(f"replay of {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


# The fields of a record that a manifest keeps: the leaf digests stay in the
# two-tree mode, which names the paths that differ.
MANIFEST_FIELDS = ("id", "argv", "code", "stdout", "errors", "out")


def environment() -> dict:
    """What the bits of a replay depend on beyond the source tree."""
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": [blas.get(key) for key in ("name", "version", "openblas configuration")],
            "machine": platform.machine(), "simd": config["SIMD Extensions"]["found"]}


def manifest_text(records: list[dict]) -> str:
    # One invocation per line, so that a rewritten manifest diffs by invocation.
    lines = (json.dumps({field: r[field] for field in MANIFEST_FIELDS}) for r in records)
    return ('{"environment": %s,\n "invocations": [\n  %s\n]}\n'
            % (json.dumps(environment()), ",\n  ".join(lines)))


def manifest_differences(manifest: dict, records: list[dict]) -> list[str]:
    """``id: field: manifest != replay`` for each field of each replayed invocation that
    differs from ``manifest``, and each id that only one side holds."""
    kept, found = ({r["id"]: r for r in side} for side in (manifest["invocations"], records))
    lines = [f"{key}: not replayed" for key in kept if key not in found]
    lines += [f"{key}: not in the manifest" for key in found if key not in kept]
    for key in kept.keys() & found.keys():
        lines += [f"{key}: {field}: {kept[key][field]!r} != {found[key][field]!r}"
                  for field in MANIFEST_FIELDS if kept[key][field] != found[key][field]]
    return sorted(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src", nargs="+", type=lambda s: Path(s).resolve(),
                   help="two src directories to compare")
    p.add_argument("--replay", action="store_true",
                   help="print the records of the one src directory given, as JSON")
    p.add_argument("--write-manifest", metavar="PATH", type=Path,
                   help="write the manifest of the one src directory given to PATH")
    args = p.parse_args(argv)
    if args.replay or args.write_manifest:
        if len(args.src) != 1:
            p.error("--replay and --write-manifest take one src directory")
        if args.replay:
            json.dump(replay(args.src[0]), sys.stdout)
        else:
            args.write_manifest.write_text(manifest_text(_side(args.src[0])))
        return 0
    if len(args.src) != 2:
        p.error("give two src directories")
    sides = [_side(src) for src in args.src]
    for src, records in zip(args.src, sides):
        digest = _sha(json.dumps(records, sort_keys=True).encode())
        print(f"{digest}  {src}  ({len(records)} invocations)")
    a, b = ({r["id"]: r for r in records} for records in sides)
    differing = [key for key in a.keys() | b.keys() if a.get(key) != b.get(key)]
    path_counts = collections.Counter()
    for key in sorted(differing):
        ra, rb = a.get(key, {}), b.get(key, {})
        print(f"differs: {key}: {' '.join(ra.get('argv') or rb.get('argv') or [])}")
        invocation_paths = set()
        for field in ("code", "stdout", "errors", "out"):
            if ra.get(field) == rb.get(field):
                continue
            print(f"  {field}: {ra.get(field)!r} != {rb.get(field)!r}")
            la, lb = ra.get(f"{field}_leaves"), rb.get(f"{field}_leaves")
            if la is not None and lb is not None:
                paths = sorted(p for p in la.keys() | lb.keys() if la.get(p) != lb.get(p))
                print(f"  {field} paths: {', '.join(paths)}")
                invocation_paths.update(paths)
        path_counts.update(invocation_paths)
    for path, count in sorted(path_counts.items()):
        print(f"path {path}: differs in {count} invocations")
    print(f"{len(differing)} of {max(len(a), len(b))} invocations differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
