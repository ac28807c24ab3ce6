"""Structured results of formula-vs-oracle comparisons.

A VerificationReport is one check on one instance; a SuiteResult is an
ordered list of reports with a pass/fail summary.  JSON output is
canonical: fixed key order, two-space indent, shortest-roundtrip float
encoding, no volatile fields.  Identical inputs therefore produce
byte-identical files; wall time is kept on the in-memory result and in the
text rendering only.  ``dumps_canonical`` writes exactly what
``json.dumps(obj, indent=2, allow_nan=False)`` writes, each container of
scalars through CPython's C encoder rather than the pure-Python indenting
one.

Tolerance policy: ``TOLERANCES`` is the one table of what each check's
residuals are held to; ``PRIMARY`` names, for the checks that have one,
the residual whose tolerance a caller's ``tol`` (the CLI's ``--tol``) replaces.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from functools import cache
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np

# Check name -> {residual key: tolerance}.  operator-rank's leak (share
# off the pair blocks in X's SVD basis) grows like eps * cond(X), measured
# up to 3.3e-15 at random spectra and 2.7e-13, 3.4e-12, 1.9e-11 at cond(X)
# 1e3, 1e4, 1e5; 1e-11 keeps every eigenvalue of S within 1e-11 ||S||_F of
# the pair spectrum (Weyl).
TOLERANCES = {
    "differential": {"fd_mismatch": 1e-6},
    "jacobian-full": {"operator_vs_formula": 1e-8, "fd_vs_formula": 1e-4},
    "operator-rank": {"annihilation": 1e-12, "pseudo_det": 1e-8, "leak": 1e-11},
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


def stack_reports(check_name: str, inputs: dict, values: dict, residuals: dict,
                  conditions: tuple = (), **kwargs) -> list[VerificationReport]:
    """One report per slice of a stacked check: each value, residual and condition is
    one entry shared by every slice or an array with one entry per slice; a value
    entry None is left out of its slice's report.  The other keyword arguments of
    :class:`VerificationReport` go to every report."""
    columns = np.broadcast_arrays(*map(np.asarray, [*values.values(), *residuals.values(),
                                                    *conditions]))
    return [VerificationReport(check_name, dict(inputs),
                               {k: v for k, v in zip(values, row) if v is not None},
                               dict(zip(residuals, row[len(values):])),
                               conditions=row[len(values) + len(residuals):], **kwargs)
            for row in zip(*(c.ravel().tolist() for c in columns))]


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


_CONTAINERS = (dict, list, tuple)


@cache
def _level(level: int) -> tuple:
    # For containers nested ``level`` deep: CPython's C encoder of a scalar,
    # or of a container of scalars whose items it puts on separate lines;
    # the line break before an item; the line break before the closing bracket.
    indent = "\n" + "  " * (level + 1)
    encoder = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                             ": ", "," + indent, False, False, False)
    return encoder, indent, "\n" + "  " * level


def _layout(obj, level: int) -> str:
    # json.dumps(obj, indent=2) of ``obj`` nested ``level`` containers deep.
    encode, indent, close = _level(level)
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    else:
        return "".join(encode(obj, 0))
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    for child in children:
        if isinstance(child, _CONTAINERS):
            break
    else:  # scalars only: one call of the C encoder
        text = "".join(encode(obj, 0))
        return text[0] + indent + text[1:-1] + close + text[-1]
    parts = [_layout(c, level + 1) if isinstance(c, _CONTAINERS) else "".join(encode(c, 0))
             for c in children]
    if isinstance(obj, (list, tuple)):
        return "[" + indent + ("," + indent).join(parts) + close + "]"
    if not all(isinstance(k, str) for k in obj):
        raise TypeError("keys other than str are left to json.dumps")
    parts = [encode_basestring_ascii(k) + ": " + p for k, p in zip(obj, parts)]
    return "{" + indent + ("," + indent).join(parts) + close + "}"


def dumps_canonical(obj: dict) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)`` and a newline, byte for byte.

    Each container whose children are all scalars goes through CPython's C
    encoder; the others are laid out here.  Whatever that does not take (a
    number that is not finite, a type JSON lacks, a key that is not a str)
    goes to the reference call, which writes it or raises its own error.
    """
    try:
        return _layout(obj, 0) + "\n"
    except (TypeError, ValueError, RecursionError):
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
