"""Structured results of formula-vs-oracle comparisons.

A VerificationReport is one check on one instance; a SuiteResult is an
ordered list of reports with a pass/fail summary.  JSON output is
canonical: fixed key order, two-space indent, shortest-roundtrip float
encoding, no volatile fields.  Identical inputs therefore produce
byte-identical files; wall time is kept on the in-memory result and in the
text rendering only.

Tolerance policy: ``TOLERANCES`` is the one table of what each check's
residuals are held to; ``PRIMARY`` names, for the checks that have one,
the residual whose tolerance a caller's ``tol`` (the CLI's ``--tol``) replaces.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field

# Check name -> {residual key: tolerance}.
TOLERANCES = {
    "differential": {"fd_mismatch": 1e-6},
    "jacobian-full": {"operator_vs_formula": 1e-8, "fd_vs_formula": 1e-4},
    "operator-rank": {"annihilation": 1e-12, "pseudo_det": 1e-8},
    "hausdorff": {"identity": 1e-10},
    "invariance": {"deviation": 1e-6},
    "symmetric-inverse": {"fd_mismatch": 1e-4},
    "exterior-chain": {
        "inverse_identity": 1e-10, "determinant_algebra": 1e-12, "operator_match": 1e-8,
    },
    "blocks": {"roundtrip": 1e-10, "pinv_blocks": 1e-8, "x22": 1e-10},
}

# Check name -> the residual key that ``tol`` overrides.
PRIMARY = {
    "differential": "fd_mismatch",
    "jacobian-full": "operator_vs_formula",
    "operator-rank": "annihilation",
    "hausdorff": "identity",
    "symmetric-inverse": "fd_mismatch",
    "blocks": "pinv_blocks",
}


def _plain(value):
    """Coerce numpy scalars/arrays to plain Python for JSON round-trips."""
    if hasattr(value, "tolist"):  # any numpy value, scalar or array
        value = value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass
class VerificationReport:
    """One check on one instance, judged by its own residuals.

    Left out, ``tolerances`` come from ``TOLERANCES``, one per residual key,
    with ``tol`` (when given) in place of the ``PRIMARY`` one.  Left out,
    ``passed`` is derived: every residual must be at or below its tolerance
    (a NaN residual never is), a ``None`` tolerance marks evidence that
    never gates, and every entry of ``conditions`` must hold too.  A stored
    verdict (``from_json``) is kept as given.
    """

    check_name: str
    inputs: dict
    values: dict
    residuals: dict
    tolerances: dict | None = None
    passed: bool | None = None
    tol: InitVar[float | None] = None
    conditions: InitVar[tuple[bool, ...]] = ()

    def __post_init__(self, tol, conditions):
        if self.tolerances is None:
            table = TOLERANCES[self.check_name]
            self.tolerances = {k: table[k] for k in self.residuals}
            if tol is not None:
                self.tolerances[PRIMARY[self.check_name]] = tol
        if self.passed is None:
            self.passed = all(conditions) and all(
                self.residuals[k] <= t for k, t in self.tolerances.items() if t is not None
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
