"""Structured results of formula-vs-oracle comparisons.

A VerificationReport is one check on one instance; a SuiteResult is an
ordered list of reports with a pass/fail summary.  JSON output is
canonical: fixed key order, two-space indent, shortest-roundtrip float
encoding, no volatile fields.  Identical inputs therefore produce
byte-identical files; wall time is kept on the in-memory result and in the
text rendering only.  ``dumps_canonical`` writes exactly what
``json.dumps(obj, indent=2, allow_nan=False)`` writes, without its
pure-Python indenting encoder: each report's layout (the keys of its dicts,
the lengths of its lists) maps to a cached %-template, one call of
CPython's C encoder writes every scalar of the file, and one ``%`` fills
them in.  Whatever is not shaped like a report file goes to ``json.dumps``.

Tolerance policy: ``TOLERANCES`` is the one table of what each check's
residuals are held to; ``PRIMARY`` names, for the checks that have one,
the residual whose tolerance a caller's ``tol`` (the CLI's ``--tol``) replaces.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii

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
    "exterior-chain": {
        "inverse_identity": 1e-10, "determinant_algebra": 1e-12, "operator_match": 1e-8,
    },
    "blocks": {"roundtrip": 1e-10, "pinv_blocks": 1e-8, "x22": 1e-10},
}

# Python type -> the JSON type ``json.load`` reads as it, for messages.
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}

# Check name -> the residual key that ``tol`` overrides.
PRIMARY = {
    "differential": "fd_mismatch",
    "jacobian-full": "operator_vs_formula",
    "operator-rank": "annihilation",
    "hausdorff": "identity",
    "symmetric-inverse": "fd_mismatch",
    "blocks": "pinv_blocks",
}


_PLAIN = frozenset({str, int, float, bool, type(None)})


def _plain(value):
    """Coerce numpy scalars/arrays to plain Python for JSON round-trips."""
    if type(value) in _PLAIN:
        return value
    if type(value) is dict and _PLAIN.issuperset(map(type, value.values())):
        return dict(value)
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
        """The report ``to_json`` wrote; TypeError when a field that merging and rendering
        read has the wrong JSON type (``inputs``' ``seed`` and ``trial``, where present)."""
        fields = [("check_name", obj["check_name"], str), ("pass", obj["pass"], bool)]
        fields += [(key, obj[key], dict) for key in ("inputs", "values", "residuals", "tolerances")]
        fields += [(f"inputs.{key}", obj["inputs"][key], int) for key in ("seed", "trial")
                   if type(obj["inputs"]) is dict and key in obj["inputs"]]
        for name, value, kind in fields:
            if type(value) is not kind:
                raise TypeError(f"report {name} must be {_JSON_TYPES[kind]}, "
                                f"got {_JSON_TYPES.get(type(value), type(value).__name__)}")
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
    one entry shared by every slice or an array with one entry per slice.  The other
    keyword arguments of :class:`VerificationReport` go to every report."""
    columns = np.broadcast_arrays(*map(np.asarray, [*values.values(), *residuals.values(),
                                                    *conditions]))
    return [VerificationReport(check_name, dict(inputs), dict(zip(values, row)),
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


_NESTED = frozenset({dict, list, tuple})
_HOLDS = object()

# CPython's C encoder of a list of scalars, its items separated by NUL.  It
# writes a NUL inside a string as \u0000, so every NUL it writes separates
# two items.
_encode_scalars = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                                 None, ": ", "\x00", False, False, False)

# %-templates by (nesting level, layout of the container).  A cache: what it
# holds never changes an output byte; it is emptied when full.
TEMPLATE_LIMIT = 512
_templates: dict[tuple, str] = {}


def _key(key: str) -> str:
    # A dict key as json.dumps writes it, escaped for ``%``; a key that is
    # not a str raises TypeError, which leaves the payload to json.dumps.
    return encode_basestring_ascii(key).replace("%", "%%") + ": "


def _scan(container, scalars: list, depth: int):
    # Layout of a dict (its keys) or list (its length): what its template
    # depends on.  Down to ``depth`` further levels it lists, by position,
    # the layouts of the containers it holds, after a marker that no tuple
    # of dict keys can equal; below that every item counts as a scalar.
    # Appends each scalar to ``scalars``, in written order.
    if type(container) is dict:
        head, items = tuple(container), container.values()
    else:
        head, items = len(container), container
    if not depth or _NESTED.isdisjoint(map(type, items)):
        scalars.extend(items)
        return head
    layout = [_HOLDS, head]
    for i, item in enumerate(items):
        if type(item) in _NESTED:
            layout.append((i, _scan(item, scalars, depth - 1)))
        else:
            scalars.append(item)
    return tuple(layout)


def _template(obj, level: int, depth: int) -> str:
    # json.dumps(indent=2) of ``obj`` nested ``level`` containers deep, with
    # "%s" for each item that _scan(obj, ..., depth) counts as a scalar.
    if type(obj) not in _NESTED or depth < 0:
        return "%s"
    if not obj:
        return "{}" if type(obj) is dict else "[]"
    indent = "\n" + "  " * (level + 1)
    if type(obj) is dict:
        parts = [_key(k) + _template(v, level + 1, depth - 1) for k, v in obj.items()]
    else:
        parts = [_template(v, level + 1, depth - 1) for v in obj]
    brackets = "{}" if type(obj) is dict else "[]"
    return brackets[0] + indent + ("," + indent).join(parts) + indent[:-2] + brackets[1]


def _item(obj, level: int, depth: int, scalars: list) -> str:
    # The cached template of ``obj`` at ``level``; its scalars go to ``scalars``.
    if type(obj) not in _NESTED:
        scalars.append(obj)
        return "%s"
    key = (level, _scan(obj, scalars, depth))
    template = _templates.get(key)
    if template is None:
        template = _template(obj, level, depth)
        if len(_templates) >= TEMPLATE_LIMIT:
            _templates.clear()
        _templates[key] = template
    return template


def _templated(obj: dict) -> str | None:
    # A SuiteResult-shaped dict through the templates: the items of its lists
    # (reports, duplicates) nest two levels (a report's inputs, its spectrum),
    # its dicts (the summary) none.  None where a container sits in a scalar's
    # place.
    scalars: list = []
    parts = []
    for key, value in obj.items():
        if type(value) in (list, tuple) and value:
            items = ",\n    ".join([_item(v, 2, 2, scalars) for v in value])
            parts.append(_key(key) + "[\n    " + items + "\n  ]")
        else:
            parts.append(_key(key) + _item(value, 1, 0, scalars))
    text = "".join(_encode_scalars(scalars, 0))[1:-1]  # one C-encoder call per file
    if text.startswith(("[", "{")) or "\x00[" in text or "\x00{" in text:
        return None
    template = "{\n  " + ",\n  ".join(parts) + "\n}\n"
    return template % tuple(text.split("\x00") if scalars else ())


def dumps_canonical(obj: dict) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)`` and a newline, byte for byte.

    A SuiteResult-shaped dict is filled into per-layout templates, cached
    (``TEMPLATE_LIMIT``), with every scalar written by one call of
    CPython's C encoder.  Everything else (a number that is not finite, a
    type JSON lacks, a key that is not a str, deeper nesting) goes to the
    reference call, which writes it or raises its own error.
    """
    try:
        text = _templated(obj) if type(obj) is dict and obj else None
    except (TypeError, ValueError, RecursionError):
        text = None
    return json.dumps(obj, indent=2, allow_nan=False) + "\n" if text is None else text


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
