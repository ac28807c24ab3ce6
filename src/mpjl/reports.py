"""Structured results of formula-vs-oracle comparisons.

A VerificationReport is one check on one instance; a SuiteResult is an
ordered list of reports with a pass/fail summary.  JSON output is
canonical: fixed key order, two-space indent, shortest-roundtrip float
encoding, no volatile fields.  Identical inputs therefore produce
byte-identical files; wall time is kept on the in-memory result and in the
text rendering only.  ``dumps_canonical`` writes a SuiteResult exactly as
``json.dumps(result.to_json(), indent=2, allow_nan=False)`` would, from
per-layout row templates, without building that dict or running json's
pure-Python indenting encoder.

Tolerance policy: every residual gates, held to its entry in ``TOLERANCES``, the
one table of tolerances, and no residual repeats another: a full chart's
``invariance`` asserts |det| = 1 as ``deviation`` alone, a deficient chart's asserts
``volume`` (its deviation has no bound: it is a value).  ``PRIMARY`` names, for the
checks that have one, the residual whose tolerance a caller's ``tol`` (the CLI's
``--tol``) replaces.  ``stack_reports`` is the one place a verdict is made; a report
stores it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter, methodcaller

import numpy as np

# Check name -> {residual key: tolerance}.  operator-rank's leak (share
# off the pair blocks in X's SVD basis) grows like eps * cond(X), measured
# up to 3.3e-15 at random spectra and 2.7e-13, 3.4e-12, 1.9e-11 at cond(X)
# 1e3, 1e4, 1e5; 1e-11 keeps every eigenvalue of S within 1e-11 ||S||_F of
# the pair spectrum (Weyl).  invariance's volume was measured up to 6.4e-11
# at cond(X) 1e5 and 4.7e-10 at 1e6, its full-chart deviation up to 1.1e-14.
TOLERANCES = {
    "differential": {"fd_mismatch": 1e-6},
    "jacobian-full": {"operator_vs_formula": 1e-8, "fd_vs_formula": 1e-4},
    "operator-rank": {"annihilation": 1e-12, "pseudo_det": 1e-8, "leak": 1e-11,
                      "area_formula": 1e-9},
    "hausdorff": {"identity": 1e-10},
    "invariance": {"deviation": 1e-12, "volume": 1e-9},
    "symmetric-inverse": {"fd_mismatch": 1e-4},
    "exterior-chain": {"inverse_identity": 1e-10},
    "blocks": {"roundtrip": 1e-10, "pinv_blocks": 1e-8},
}

# Python type -> the JSON type ``json.load`` reads as it, for messages.
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}

# A report's JSON fields in the order ``from_json`` reads them, and their types.
_FIELDS = ("check_name", "pass", "inputs", "values", "residuals", "tolerances")
_FIELD_TYPES = (str, bool, dict, dict, dict, dict)
_read_fields = itemgetter(*_FIELDS)

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
    """One check on one instance: its residuals, the tolerances they were held to and the
    verdict, as :func:`stack_reports` made it (or as ``from_json`` read it)."""

    check_name: str
    inputs: dict
    values: dict
    residuals: dict
    tolerances: dict
    passed: bool

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
        """The report ``to_json`` wrote; TypeError when a field that merging and rendering
        read has the wrong JSON type (``inputs``' ``seed`` and ``trial``, where present)."""
        # KeyError names the first field missing; the loop runs only to name a wrong type.
        name, passed, inputs, values, residuals, tolerances = parts = _read_fields(obj)
        if not (tuple(map(type, parts)) == _FIELD_TYPES and type(inputs.get("seed", 0)) is int
                and type(inputs.get("trial", 0)) is int):
            ids = [key for key in ("seed", "trial") if type(inputs) is dict and key in inputs]
            for field, value, kind in [*zip(_FIELDS, parts, _FIELD_TYPES),
                                       *((f"inputs.{key}", inputs[key], int) for key in ids)]:
                if type(value) is not kind:
                    raise TypeError(f"report {field} must be {_JSON_TYPES[kind]}, "
                                    f"got {_JSON_TYPES.get(type(value), type(value).__name__)}")
        return cls(name, inputs, values, residuals, tolerances, passed)


def stack_reports(check_name: str, inputs: dict, values: dict, residuals: dict,
                  conditions: tuple = (), tol: float | None = None) -> list[VerificationReport]:
    """One report per slice of a stacked check: each value, residual and condition is
    one entry shared by every slice (0-d) or an array of the stack's shape.

    The one place a verdict is made.  Every residual gates, held to its key's
    ``TOLERANCES`` entry, ``tol`` (when given) in place of the ``PRIMARY`` one; a
    deficient chart's ``invariance`` deviation, which has no bound, is a value.  A
    report passes when every residual is at or below its tolerance (a NaN residual
    never is) and every condition holds: one comparison per residual and one
    ``logical_and`` per condition, for the whole stack, whose reports share one dict.
    """
    table = TOLERANCES[check_name]
    tolerances = {k: table[k] for k in residuals}
    if tol is not None:
        tolerances[PRIMARY[check_name]] = tol
    columns = [np.asarray(c) for c in (*values.values(), *residuals.values(), *conditions)]
    stack = np.broadcast(*columns)
    split = len(values) + len(residuals)
    by_key = dict(zip(residuals, columns[len(values):split]))
    passed = np.ones(stack.shape, bool)
    for gate in [by_key[k] <= t for k, t in tolerances.items()] + columns[split:]:
        np.logical_and(passed, gate, out=passed)  # NaN <= t is False: a NaN residual fails
    rows = zip(*(c.ravel().tolist() if c.ndim else [c.item()] * stack.size
                 for c in (*columns[:split], passed)), strict=True)
    return [VerificationReport(check_name, dict(inputs), dict(zip(values, row)),
                               dict(zip(residuals, row[len(values):split])), tolerances, row[-1])
            for row in rows]


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


# CPython's C encoder of a list of scalars, its items separated by NUL.  It
# writes a NUL inside a string as \u0000, so every NUL it writes separates
# two items.  A numpy value is written as its ``tolist()``, as ``_plain``
# makes it (anything else raises AttributeError).
_encode_scalars = c_make_encoder(None, methodcaller("tolist"), encode_basestring_ascii, None,
                                 ": ", "\x00", False, False, False)

_SEQUENCES = frozenset({list, tuple})

# Row %-templates by report layout.  A cache: what it holds never changes an
# output byte; it is emptied when full.
TEMPLATE_LIMIT = 512
_rows: dict[tuple, str] = {}


def _block(items: list[str], level: int, brackets: str) -> str:
    # json.dumps(indent=2) of a list or dict nested ``level`` containers deep
    # whose items (a dict's with their keys) are written as ``items``.
    if not items:
        return brackets
    indent = "\n" + "  " * (level + 1)
    return brackets[0] + indent + ("," + indent).join(items) + indent[:-2] + brackets[1]


def _dict(keys, level: int, items=None) -> str:
    # _block of a dict, each value written as its entry of ``items``, "%s" if
    # left out.  Each key is escaped for ``%``; one that is not a str raises
    # TypeError, which leaves the file to json.dumps.
    items = items or ["%s"] * len(keys)
    return _block([encode_basestring_ascii(k).replace("%", "%%") + ": " + item
                   for k, item in zip(keys, items)], level, "{}")


def _row_template(inputs: tuple, sizes: tuple | None, values: tuple, residuals: tuple,
                  tolerances: tuple) -> str:
    # One report as an item of the file's "reports" list, "%s" for each scalar;
    # ``sizes`` gives the length of each input that is a list (-1 where it is
    # a scalar), None when no input is.
    lists = ["%s" if k < 0 else _block(["%s"] * k, 4, "[]") for k in sizes or [-1] * len(inputs)]
    fields = {"check_name": "%s", "inputs": _dict(inputs, 3, lists), "values": _dict(values, 3),
              "residuals": _dict(residuals, 3), "tolerances": _dict(tolerances, 3), "pass": "%s"}
    return _dict(fields, 2, list(fields.values()))


def _row(report: VerificationReport, scalars: list) -> str:
    # The cached template of ``report``; its scalars go to ``scalars``, in written order.
    inputs, values, residuals, tolerances = (report.inputs, report.values, report.residuals,
                                             report.tolerances)
    scalars.append(report.check_name)
    if _SEQUENCES.isdisjoint(map(type, inputs.values())):
        sizes = None
        scalars += inputs.values()
    else:
        sizes = tuple(len(v) if type(v) in _SEQUENCES else -1 for v in inputs.values())
        for v in inputs.values():
            scalars += v if type(v) in _SEQUENCES else (v,)
    scalars += values.values()
    scalars += residuals.values()
    scalars += tolerances.values()
    scalars.append(bool(report.passed))
    layout = (tuple(inputs), sizes, tuple(values), tuple(residuals), tuple(tolerances))
    template = _rows.get(layout)
    if template is None:
        template = _row_template(*layout)
        if len(_rows) >= TEMPLATE_LIMIT:
            _rows.clear()
        _rows[layout] = template
    return template


def _written(result: SuiteResult, duplicates: list | None) -> str:
    # The file through the row templates; ValueError where the C encoder wrote
    # a container in a scalar's place.
    scalars: list = []
    parts = {"reports": _block([_row(r, scalars) for r in result.reports], 1, "[]"),
             "summary": _dict(("total", "passed", "failed"), 1)}
    scalars += result.summary.values()
    if duplicates is not None:
        parts["duplicates"] = _block([_block(["%s"] * len(d), 2, "[]") for d in duplicates],
                                     1, "[]")
        for d in duplicates:
            scalars += d
    text = "".join(_encode_scalars(scalars, 0))[1:-1]  # one C-encoder call per file
    if text.startswith(("[", "{")) or "\x00[" in text or "\x00{" in text:
        raise ValueError("a value that is not a plain scalar")
    return _dict(parts, 0, list(parts.values())) % tuple(text.split("\x00")) + "\n"


def dumps_canonical(obj, duplicates: list | None = None) -> str:
    """``json.dumps(payload, indent=2, allow_nan=False)`` and a newline, byte for byte.

    For a SuiteResult the payload is ``obj.to_json()``, with ``duplicates``
    (``mpjl report``'s list of duplicated trials) as its last key when given;
    it is written without being built: each report fills the %-template of
    its layout (cached, ``TEMPLATE_LIMIT``), and one call of CPython's C
    encoder writes every scalar of the file.  Anything else is the payload
    itself, and goes to ``json.dumps``; so does a SuiteResult holding a value
    that is not a plain scalar (or a list of them, in ``inputs``), a number
    that is not finite or a key that is not a str: the reference call writes
    it or raises its own error.  On that path a NaN or an infinity in a
    SuiteResult is written as ``null``: strict JSON has no such number, and
    the report that holds it has failed (``stack_reports``).
    """
    if isinstance(obj, SuiteResult):
        try:
            return _written(obj, duplicates)
        except (TypeError, ValueError, AttributeError):
            obj = json.loads(json.dumps(obj.to_json()), parse_constant=lambda name: None)
        if duplicates is not None:
            obj["duplicates"] = duplicates
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def render_text(result: SuiteResult, show_wall_time: bool = True) -> str:
    """Human-readable rendering of the same data as the JSON form; a residual that is not
    finite reads ``null``, as it does there."""
    lines = []
    for r in result.reports:
        status = "PASS" if r.passed else "FAIL"
        inputs = " ".join(f"{k}={v}" for k, v in _plain(r.inputs).items())
        resid = " ".join(f"{k}={v:.3e}" if v is not None and math.isfinite(v) else f"{k}=null"
                         for k, v in _plain(r.residuals).items()
                         if v is None or isinstance(v, float))
        lines.append(f"[{status}] {r.check_name} {inputs} {resid}".rstrip())
    s = result.summary
    lines.append(f"summary: total={s['total']} passed={s['passed']} failed={s['failed']}")
    if show_wall_time:
        lines.append(f"wall_time: {result.wall_time:.3f}s")
    return "\n".join(lines) + "\n"
