"""The benchmark's workloads: op schedules drawn from the benchmark seed.

A workload is a cycle of ops that a run repeats a fixed number of times
(see ``NOMINAL_CYCLE_S``).  Every cycle draws fresh ``--seed`` values (and, in ``cli-sweep``,
fresh ranks and spectrum scales) from the run's generator, so no two
cycles verify the same instances while each cycle does the same kind and
amount of work.  Trials per op are chosen so that the median and the
tail of op latency each fall inside a group of ops of one kind or of like
cost, not on the edge between two groups, where they would jump with the
number of cycles a run completes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One closed-loop request.

    ``kind`` is ``verify`` (``mpjl verify``), ``report`` (``mpjl report``
    over the files this cycle's verify ops wrote) or ``witness``
    (``witnesses.reproduce`` of fixture number ``argv[0]``).  ``slot``
    names the op within its cycle; file outputs are keyed by it.
    ``gauge`` names the machine-speed gauge of the op's kind of work (see
    ``speed.py``).
    """

    kind: str
    argv: tuple
    trials: int
    slot: str
    gauge: str = "small"


# Suites that build the dense nm x nm Jacobian operator, and the n*m from
# which that operator's factorisation outweighs the op's interpreter work.
OPERATOR_SUITES = ("jacobian-full", "operator-rank", "exterior-chain")
DENSE_GAUGE_MIN_ENTRIES = 256


def _verify(slot: str, rng: random.Random, suite: str, n: int, m: int, q: int | None,
            trials: int, spectrum: list[float] | None = None) -> Op:
    argv = ["verify", suite, "--n", str(n), "--m", str(m), "--trials", str(trials),
            "--seed", str(rng.randrange(1, 2**31)), "--format", "json"]
    if q is not None:
        argv += ["--q", str(q)]
    if spectrum is not None:
        argv += ["--spectrum", ",".join(repr(v) for v in spectrum)]
    dense = suite in OPERATOR_SUITES and n * m >= DENSE_GAUGE_MIN_ENTRIES
    return Op("verify", tuple(argv), trials, slot, "dense" if dense else "small")


def _scaled_spectrum(rng: random.Random, q: int) -> list[float]:
    """q evenly spaced values from s down to s/q, s log-uniform in [1/4, 4]."""
    scale = 4.0 ** rng.uniform(-1.0, 1.0)
    return [scale * (q - k) / q for k in range(q)]


def _linear_spectrum(hi: float, lo: float, q: int) -> list[float]:
    return [hi - (hi - lo) * k / (q - 1) for k in range(q)]


def dense_operator(rng: random.Random) -> list[Op]:
    # Full-rank shapes with nm > 12: the dense nm x nm Jacobian operator and
    # its rank SVD dominate, the FD chart cross-check never runs.
    return [
        _verify("jf-24x20", rng, "jacobian-full", 24, 20, None, 1),
        _verify("jf-20x24", rng, "jacobian-full", 20, 24, None, 1),
        _verify("jf-32x24", rng, "jacobian-full", 32, 24, None, 1),
        _verify("or-24x20q8", rng, "operator-rank", 24, 20, 8, 1),
        _verify("ec-24x16", rng, "exterior-chain", 24, 16, None, 1),
    ]


def fd_chart(rng: random.Random) -> list[Op]:
    # Small shapes (nm <= 12, or the invariance chart) where the
    # free-coordinate FD chart Jacobian and perturbed_assemble dominate.
    ops = [
        _verify("jf-3x4", rng, "jacobian-full", 3, 4, None, 15),
        _verify("jf-4x3", rng, "jacobian-full", 4, 3, None, 15),
        _verify("or-4x3q2", rng, "operator-rank", 4, 3, 2, 15),
        _verify("inv-2x2q1", rng, "invariance", 2, 2, 1, 45),
        _verify("inv-8x6q3", rng, "invariance", 8, 6, 3, 9),
        _verify("inv-5x4q4", rng, "invariance", 5, 4, 4, 15),
    ]
    return ops + [Op("witness", (i,), 1, f"witness-{i}") for i in range(3)]


def cli_sweep(rng: random.Random) -> list[Op]:
    # All 8 suites written to files and merged by `mpjl report`: many tiny
    # svd/pinv/decompose/make_rng calls, JSON writes and reads.  The last
    # block holds known defects on purpose, so they are measured, not
    # avoided: Hausdorff densities that underflow (ZeroDivisionError),
    # small spectra whose determinants overflow (FAIL, then ValueError from
    # the JSON writer), and an ill-conditioned deficient spectrum whose FD
    # points drift in rank on every redraw (RankDrift retries, exit 3).
    r = rng.randint
    q_diff, q_or, q_haus, q_inv, q_blk = r(2, 5), r(1, 4), r(2, 6), r(1, 3), r(2, 5)
    ops = [
        _verify("differential", rng, "differential", 7, 5, q_diff, 12,
                _scaled_spectrum(rng, q_diff)),
        _verify("jacobian-full", rng, "jacobian-full", 6, 4, None, 12,
                _scaled_spectrum(rng, 4)),
        _verify("operator-rank", rng, "operator-rank", 6, 5, q_or, 8,
                _scaled_spectrum(rng, q_or)),
        _verify("hausdorff", rng, "hausdorff", 10, 8, q_haus, 40),
        _verify("invariance", rng, "invariance", 5, 4, q_inv, 3),
        _verify("symmetric-inverse", rng, "symmetric-inverse", 5, r(3, 5), None, 10),
        _verify("exterior-chain", rng, "exterior-chain", 10, 6, None, 12,
                _scaled_spectrum(rng, 6)),
        _verify("blocks", rng, "blocks", 8, 6, q_blk, 20, _scaled_spectrum(rng, q_blk)),
    ]
    ops += [_verify(f"hausdorff-40x32-{i}", rng, "hausdorff", 40, 32, 20, 1) for i in range(4)]
    ops += [
        _verify("hausdorff-60x50", rng, "hausdorff", 60, 50, 20, 1),
        _verify("jacobian-full-small", rng, "jacobian-full", 20, 16, None, 1,
                _linear_spectrum(0.3, 0.15, 16)),
        _verify("exterior-chain-small", rng, "exterior-chain", 30, 20, None, 1,
                _linear_spectrum(0.3, 0.15, 20)),
        _verify("differential-illcond", rng, "differential", 7, 5, 3, 1, [1000.0, 1.0, 0.001]),
    ]
    return ops + [Op("report", (), 0, "report")]


# name -> op schedule of one cycle
WORKLOADS = {
    "dense-operator": dense_operator,
    "fd-chart": fd_chart,
    "cli-sweep": cli_sweep,
}


# name -> wall seconds of one untraced cycle, gauge samples included, at
# the program's baseline speed on the host the bounds were set on.  A run
# of --seconds S makes round(S / this) cycles, so a seed always does the
# same work and meets the same failures, while a run lasts about S seconds.
NOMINAL_CYCLE_S = {
    "dense-operator": 0.50,
    "fd-chart": 0.55,
    "cli-sweep": 0.40,
}
