"""Structured results of formula-vs-oracle comparisons.

A VerificationReport is one check on one instance; a SuiteResult is an
ordered list of reports with a pass/fail summary.  JSON output is
canonical: fixed key order, two-space indent, shortest-roundtrip float
encoding, no volatile fields.  Identical inputs therefore produce
byte-identical files; wall time is kept on the in-memory result and in the
text rendering only.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field


def _plain(value):
    """Coerce numpy scalars/arrays to plain Python for JSON round-trips."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, bool):
        return value
    if hasattr(value, "item"):
        return _plain(value.item())
    if hasattr(value, "tolist"):
        return _plain(value.tolist())
    if isinstance(value, float):
        return float(value)
    return value


@dataclass
class VerificationReport:
    """One check on one instance, judged by its own residuals.

    Left out, ``passed`` is derived: every residual must be at or below its
    tolerance (a NaN residual never is), a ``None`` tolerance marks evidence
    that never gates, and every entry of ``conditions`` must hold too.  A
    stored verdict (``from_json``) is kept as given.
    """

    check_name: str
    inputs: dict
    values: dict
    residuals: dict
    tolerances: dict
    passed: bool | None = None
    conditions: InitVar[tuple[bool, ...]] = ()

    def __post_init__(self, conditions):
        if self.passed is None:
            self.passed = all(conditions) and all(
                self.residuals[k] <= tol for k, tol in self.tolerances.items() if tol is not None
            )

    def to_json(self) -> dict:
        return {
            "check_name": self.check_name,
            "inputs": _plain(self.inputs),
            "values": _plain(self.values),
            "residuals": _plain(self.residuals),
            "tolerances": _plain(self.tolerances),
            "pass": bool(self.passed),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "VerificationReport":
        return cls(
            check_name=obj["check_name"],
            inputs=obj["inputs"],
            values=obj["values"],
            residuals=obj["residuals"],
            tolerances=obj["tolerances"],
            passed=obj["pass"],
        )


@dataclass
class SuiteResult:
    reports: list[VerificationReport] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def summary(self) -> dict:
        passed = sum(1 for r in self.reports if r.passed)
        return {
            "total": len(self.reports),
            "passed": passed,
            "failed": len(self.reports) - passed,
        }

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_json(self) -> dict:
        return {
            "reports": [r.to_json() for r in self.reports],
            "summary": self.summary,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SuiteResult":
        return cls(reports=[VerificationReport.from_json(r) for r in obj["reports"]])


def dumps_canonical(obj: dict) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def render_text(result: SuiteResult, show_wall_time: bool = True) -> str:
    """Human-readable rendering of the same data as the JSON form."""
    lines = []
    for r in result.reports:
        status = "PASS" if r.passed else "FAIL"
        inputs = " ".join(f"{k}={v}" for k, v in _plain(r.inputs).items())
        resid = " ".join(f"{k}={v:.3e}" for k, v in _plain(r.residuals).items()
                         if isinstance(v, float))
        lines.append(f"[{status}] {r.check_name} {inputs} {resid}".rstrip())
    s = result.summary
    lines.append(f"summary: total={s['total']} passed={s['passed']} failed={s['failed']}")
    if show_wall_time:
        lines.append(f"wall_time: {result.wall_time:.3f}s")
    return "\n".join(lines) + "\n"
