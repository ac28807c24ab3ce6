"""Compare what two mpjl source trees print and write, invocation by invocation.

Usage:
    python3 tools/output_identity.py SRC_A SRC_B

SRC_A and SRC_B are ``src`` directories (for example the one of this
checkout and the one of an older commit unpacked elsewhere).  Each side
runs in a fresh process with one BLAS thread and ``mpjl`` imported from
its own directory.  It replays:

* every ``verify`` op of the first 3 cycles of each perfbench workload at
  seeds 101-103, with the op schedules taken unchanged from
  ``perfbench/workloads.py``, once to stdout and once to an ``--out`` file;
* after each cycle, ``report`` over that cycle's ``--out`` files in JSON
  and in text;
* the three invariance witness fixtures, rendered as canonical JSON;
* a fixed list of edge invocations: ``gen``, ``--tol`` overrides (and
  refusals) per suite, bad configurations, an ``--out`` path that cannot
  be written, report merges and parse errors, and runs whose trial stack
  raises and so reruns trial by trial: a ``ChartInvalid`` or
  ill-conditioned pivot in one trial, retried draws, and a retry budget
  that runs out.

Each invocation records its exit code (or the exception that escaped
``cli.main``), its stdout, its ``error: ...`` lines of stderr and the
bytes of its ``--out`` file.  Text output drops its ``wall_time`` line,
which is timing; the rest of stderr, such as numpy's ``RuntimeWarning``
lines that carry source paths, is not compared.  The script prints one
digest per side and every invocation whose record differs, and exits 0
when the two sides agree, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (101, 102, 103)
CYCLES = 3

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
    ["verify", "blocks", "--trials", "1", "--out", "no-such-dir/x.json"],
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _invoke(cli, label: str, argv: list[str]) -> dict:
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    if out is not None:
        Path(out).unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    except Exception as e:  # an escaping exception is an outcome to compare
        code = f"{type(e).__name__}: {e}"
    lines = stdout.getvalue().splitlines(keepends=True)
    text = "".join(line for line in lines if not line.startswith("wall_time:"))
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
    written = Path(out).read_bytes() if out is not None and Path(out).exists() else b""
    return {"id": label, "argv": argv, "code": code,
            "stdout": _sha(text.encode()), "errors": errors, "out": _sha(written)}


def replay(src: Path) -> list[dict]:
    """Records of every invocation, run against the mpjl sources in ``src``."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from mpjl import cli, witnesses
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
                        written.append(out)
                    for fmt in ("json", "text"):
                        records.append(_invoke(cli, f"{name}/{seed}/{cycle}/report {fmt}",
                                               ["report", *written, "--format", fmt]))
        for i, fixture in enumerate(witnesses.load_witnesses()):
            text = dumps_canonical(witnesses.reproduce(fixture).to_json())
            records.append({"id": f"witness {i}", "argv": [], "code": None,
                            "stdout": _sha(text.encode()), "errors": [], "out": _sha(b"")})
        for i, argv in enumerate(EDGE_CASES):
            records.append(_invoke(cli, f"edge {i}", argv))
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src", nargs="+", type=lambda s: Path(s).resolve(),
                   help="two src directories to compare")
    p.add_argument("--replay", action="store_true",
                   help="print the records of the one src directory given, as JSON")
    args = p.parse_args(argv)
    if args.replay:
        if len(args.src) != 1:
            p.error("--replay takes one src directory")
        json.dump(replay(args.src[0]), sys.stdout)
        return 0
    if len(args.src) != 2:
        p.error("give two src directories")
    sides = [_side(src) for src in args.src]
    for src, records in zip(args.src, sides):
        digest = _sha(json.dumps(records, sort_keys=True).encode())
        print(f"{digest}  {src}  ({len(records)} invocations)")
    a, b = ({r["id"]: r for r in records} for records in sides)
    differing = [key for key in a.keys() | b.keys() if a.get(key) != b.get(key)]
    for key in sorted(differing):
        ra, rb = a.get(key, {}), b.get(key, {})
        print(f"differs: {key}: {' '.join(ra.get('argv') or rb.get('argv') or [])}")
        for field in ("code", "stdout", "errors", "out"):
            if ra.get(field) != rb.get(field):
                print(f"  {field}: {ra.get(field)!r} != {rb.get(field)!r}")
    print(f"{len(differing)} of {max(len(a), len(b))} invocations differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
