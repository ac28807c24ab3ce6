"""Correctness gate applied to every op the benchmark issues.

Each check returns a list of problems; any problem makes the run's
``correct`` false.  A known defect that ends an op with a traceback or a
FAIL is an op failure (counted in ``pass_share``), not a problem: the
program said what happened.  A problem is output that contradicts itself
or the seed's promises: JSON that does not parse or is not finite, a
summary that disagrees with its reports, a pass flag that disagrees with
the residuals or the exit code, a tolerance looser than the seed's, a
replay that is not byte-identical, a witness that moved.
"""

from __future__ import annotations

import json
import math

# Tolerances shipped with the seed, by (check_name, residual key).  A
# report may be stricter; a looser one means accuracy was traded for speed.
TOLERANCE_CEILINGS = {
    ("differential", "fd_mismatch"): 1e-6,
    ("jacobian-full", "operator_vs_formula"): 1e-8,
    ("jacobian-full", "fd_vs_formula"): 1e-4,
    ("operator-rank", "annihilation"): 1e-12,
    ("hausdorff", "identity"): 1e-10,
    ("invariance", "deviation"): 1e-6,
    ("symmetric-inverse", "fd_mismatch"): 1e-4,
    ("exterior-chain", "inverse_identity"): 1e-10,
    ("exterior-chain", "determinant_algebra"): 1e-12,
    ("exterior-chain", "operator_match"): 1e-8,
    ("blocks", "roundtrip"): 1e-10,
    ("blocks", "pinv_blocks"): 1e-8,
    ("blocks", "x22"): 1e-10,
}


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def _all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


def parse_json(text: str) -> dict | None:
    """Parse strictly: None when unparsable or any number is not finite."""
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except ValueError:
        return None
    return obj if isinstance(obj, dict) and _all_finite(obj) else None


def _tolerance_problem(report: dict, key: str, tol) -> str | None:
    ceiling = TOLERANCE_CEILINGS.get((report["check_name"], key))
    if ceiling is None:
        return None
    inputs = report["inputs"]
    if report["check_name"] == "invariance" and inputs["q"] < min(inputs["n"], inputs["m"]):
        # A deficient chart's deviation is evidence only and carries no bound.
        return None if tol is None else f"deficient-chart deviation gained a bound {tol}"
    if tol is None or tol > ceiling:
        return f"{report['check_name']}.{key} tolerance {tol} looser than {ceiling}"
    return None


def check_suite_json(obj: dict, exit_code: int | None) -> tuple[list[str], list[float]]:
    """Self-consistency of one suite result.

    Returns the problems found and, for every passing report, residual /
    tolerance of each residual whose tolerance is not None.  ``exit_code``
    None skips the exit-code checks.
    """
    problems = []
    ratios = []
    reports = obj.get("reports")
    summary = obj.get("summary")
    if not isinstance(reports, list) or not isinstance(summary, dict):
        return ["result lacks reports or summary"], []
    passed = sum(1 for r in reports if r.get("pass") is True)
    recount = {"total": len(reports), "passed": passed, "failed": len(reports) - passed}
    if {k: summary.get(k) for k in recount} != recount:
        problems.append(f"summary {summary} disagrees with reports {recount}")
    if exit_code == 0 and passed != len(reports):
        problems.append("exit code 0 with failing reports")
    if exit_code == 1 and passed == len(reports):
        problems.append("exit code 1 with every report passing")
    for r in reports:
        for key, tol in r["tolerances"].items():
            issue = _tolerance_problem(r, key, tol)
            if issue:
                problems.append(issue)
            if tol is None or not r["pass"]:
                continue
            ratio = r["residuals"][key] / tol
            if ratio > 1.0:
                problems.append(f"passing {r['check_name']} has {key} above its tolerance")
            ratios.append(ratio)
    return problems, ratios


def check_merge(merged: dict, parts: list[dict]) -> list[str]:
    """`mpjl report` must keep every report of its inputs and add none."""
    problems = []
    for key in ("total", "passed", "failed"):
        expected = sum(p["summary"][key] for p in parts)
        if merged["summary"].get(key) != expected:
            problems.append(f"merged summary {key}={merged['summary'].get(key)} != {expected}")
    if merged.get("duplicates"):
        problems.append(f"merge found duplicate trials {merged['duplicates']}")
    return problems


def check_witness(values: dict, fixture: dict) -> list[str]:
    """The shipped witnesses must reproduce bit for bit."""
    return [f"witness {key} {values[key]!r} != fixture {fixture[key]!r}"
            for key in ("abs_det", "deviation") if values[key] != fixture[key]]
