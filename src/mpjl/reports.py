"""Structured results of formula-vs-oracle comparisons.

A VerificationReport is one check on one instance; a ReportStack is the
reports of one check's trial stack, held as columns; a SuiteResult is the
reports of a run with a pass/fail summary, held, written and rendered as
stacks: a run's own, or rows (a report's fields, as ``_read_row`` reads
them from JSON) grouped, so a merge builds no report.  JSON output is
canonical: fixed key order, two-space indent, shortest-roundtrip float
encoding, no volatile fields, so identical inputs produce byte-identical
files; wall time is kept on the in-memory result and in the text rendering
only.  ``dumps_canonical`` writes each report as ``json.dumps(indent=2)``
writes its fields (``check_name``, ``inputs``, ``values``, ``residuals``,
``tolerances``, ``pass``), a number that is not finite as ``null``, from the
stacks' columns, without building a report or running json's pure-Python
indenting encoder; ``render_text`` reads the same columns.

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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, groupby
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter

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

# A report's row: its JSON fields in this order, the order ``_group`` reads, and their types.
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


@dataclass
class VerificationReport:
    """One check on one instance: its residuals, the tolerances they were held to and the
    verdict, as :func:`stack_reports` made it."""

    check_name: str
    inputs: dict
    values: dict
    residuals: dict
    tolerances: dict
    passed: bool


def _read_row(obj: dict) -> tuple:
    """(sort key, row) of a report read from JSON: ``(check_name, seed, trial)``, 0 for a
    seed or trial ``inputs`` lacks, and its ``_FIELDS``.  TypeError where a field that merging
    and rendering read (``inputs``' ``seed`` and ``trial`` too) has the wrong JSON type."""
    # KeyError names the first field missing; the loop runs only to name a wrong type.
    name, _, inputs, _, _, _ = row = _read_fields(obj)
    if tuple(map(type, row)) == _FIELD_TYPES:
        key = name, inputs.get("seed", 0), inputs.get("trial", 0)
        if type(key[1]) is int and type(key[2]) is int:
            return key, row
    ids = [key for key in ("seed", "trial") if type(inputs) is dict and key in inputs]
    for field, value, kind in [*zip(_FIELDS, row, _FIELD_TYPES),
                               *((f"inputs.{key}", inputs[key], int) for key in ids)]:
        if type(value) is not kind:
            raise TypeError(f"report {field} must be {_JSON_TYPES[kind]}, "
                            f"got {_JSON_TYPES.get(type(value), type(value).__name__)}")


@dataclass(eq=False)
class ReportStack(Sequence):
    """The reports of one check's trial stack, as columns.  What every report shares is held
    once: ``check_name`` and the one ``tolerances`` dict.  Each list of ``inputs``, of
    ``values``, of ``residuals`` and ``passed`` holds one entry per report, an input that
    every report shares included.  Indexing builds the report, anew on each access."""

    check_name: str
    inputs: dict
    values: dict
    residuals: dict
    tolerances: dict
    passed: list

    def __len__(self) -> int:
        return len(self.passed)

    def __getitem__(self, i: int) -> VerificationReport:
        passed = self.passed[i]
        return VerificationReport(
            self.check_name, {k: c[i] for k, c in self.inputs.items()},
            {k: c[i] for k, c in self.values.items()}, {k: c[i] for k, c in self.residuals.items()},
            self.tolerances, passed)


def stack_reports(check_name: str, inputs: dict, values: dict, residuals: dict,
                  conditions: tuple = (), tol: float | None = None) -> ReportStack:
    """The reports of a stacked check, one per slice: each input is one value that every slice
    holds; each value, residual and condition is one entry shared by every slice (0-d) or an
    array of the stack's shape.

    The one place a verdict is made.  Every residual gates, held to its key's
    ``TOLERANCES`` entry, ``tol`` (when given) in place of the ``PRIMARY`` one; a
    deficient chart's ``invariance`` deviation, which has no bound, is a value.  A
    report passes when every residual is at or below its tolerance (a NaN residual
    never is), every float value is finite and every condition holds: one gate per
    residual, float value and condition, for the whole stack, whose reports share one dict.
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
    for gate in [by_key[k] <= t for k, t in tolerances.items()] + columns[split:] + [
            np.isfinite(c) for c in columns[:len(values)] if c.dtype.kind == "f"]:
        np.logical_and(passed, gate, out=passed)  # NaN <= t is False: a NaN residual fails
    lists = [c.ravel().tolist() if c.ndim else [c.item()] * stack.size
             for c in (*columns[:split], passed)]
    return ReportStack(check_name, {k: [v] * stack.size for k, v in inputs.items()},
                       dict(zip(values, lists)), dict(zip(residuals, lists[len(values):split])),
                       tolerances, lists[-1])


_SEQUENCES = frozenset({list, tuple})


def _layout(row: tuple) -> tuple:
    # What the rows of one stack share: the check name and tolerance values as JSON writes
    # them, compared with their types (1, 1.0 and True differ) and by repr where one equals
    # 0.0 (0.0 and -0.0 differ); and the key layout, with each input list's length.
    name, _, inputs, values, residuals, tolerances = row
    shared = (name, *tolerances.values())
    kinds = tuple(map(type, shared))
    if 0.0 in shared:
        shared = tuple(map(repr, shared))
    sizes = None if _SEQUENCES.isdisjoint(map(type, inputs.values())) else tuple(
        len(v) if type(v) in _SEQUENCES else -1 for v in inputs.values())
    return kinds, shared, sizes, tuple(inputs), tuple(values), tuple(residuals), tuple(tolerances)


def _group(rows: Iterable[tuple]) -> list[ReportStack]:
    # Each run of consecutive rows (``_FIELDS``, as ``_read_row`` reads them from JSON, so
    # every key a str) with one _layout as a stack.
    stacks = []
    for _, run in groupby(rows, _layout):
        names, passed, *dicts, tolerances = zip(*run)
        columns = [dict(zip(d[0], zip(*map(dict.values, d)))) for d in dicts]
        stacks.append(ReportStack(names[0], *columns, tolerances[0], list(map(bool, passed))))
    return stacks


class SuiteResult:
    """The reports of a run, in order, with a pass/fail summary, held as ``stacks``: a run's
    trial stacks, or the rows of the report files ``mpjl report`` merges, grouped once
    (``_group``).

    ``stacks`` is the one stored form; ``summary``, the writer and ``render_text`` read it.
    ``reports`` builds each report from the stacks on every read, so a report read from a
    result is a copy: an edit to it reaches neither the result nor its file.
    """

    def __init__(self, *, stacks: list[ReportStack], wall_time: float = 0.0):
        self.stacks = stacks
        self.wall_time = wall_time

    @property
    def reports(self) -> list[VerificationReport]:
        return [r for stack in self.stacks for r in stack]

    @property
    def summary(self) -> dict:
        verdicts = [p for stack in self.stacks for p in stack.passed]
        passed = sum(map(bool, verdicts))
        return {"total": len(verdicts), "passed": passed, "failed": len(verdicts) - passed}

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0


def _tolist(value):
    # A numpy value as plain Python; anything else without a JSON form raises TypeError.
    if not hasattr(value, "tolist"):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return value.tolist()


# CPython's C encoder of a list of scalars, its items separated by NUL.  It
# writes a NUL inside a string as \u0000, so every NUL it writes separates
# two items.  A numpy value is written as its ``tolist()``; a number that is
# not finite as NaN, Infinity or -Infinity, which ``_pieces`` makes null.
_encode_scalars = c_make_encoder(None, _tolist, encode_basestring_ascii, None,
                                 ": ", "\x00", False, False, True)
_NULL = dict.fromkeys(("NaN", "Infinity", "-Infinity"), "null")

# The text of a stack's rows by their layout, check name and tolerances (``_stack_text``).
# A cache: what it holds never changes an output byte; it is emptied when full.
TEMPLATE_LIMIT = 512
_rows: dict[tuple, tuple] = {}


def _block(items: list[str], level: int, brackets: str) -> str:
    # json.dumps(indent=2) of a list or dict nested ``level`` containers deep
    # whose items (a dict's with their keys) are written as ``items``.
    if not items:
        return brackets
    indent = "\n" + "  " * (level + 1)
    return brackets[0] + indent + ("," + indent).join(items) + indent[:-2] + brackets[1]


def _dict(keys, level: int, items=None) -> str:
    # _block of a dict, each value written as its entry of ``items``, a NUL (the place
    # of a scalar) if left out.  A key that is not a str raises TypeError.
    items = items or ["\x00"] * len(keys)
    return _block([encode_basestring_ascii(k) + ": " + item for k, item in zip(keys, items)],
                  level, "{}")


def _stack_rows(stack: ReportStack, shared: list, scalars: list) -> tuple:
    # (layout, count, size) of ``stack``, whose reports share one layout, from its columns:
    # the ``count`` scalars that every row holds (the check name and the tolerances) go to
    # ``shared`` once, the rest to ``scalars`` row by row, each in written order.  An input
    # column is a column of lists when its first entry is one; lists of several lengths, or
    # lists beside scalars, raise ValueError or TypeError (a container among scalars is
    # refused by _pieces).
    columns, sizes = [], []
    for value in stack.inputs.values():
        if type(value[0]) not in _SEQUENCES:
            sizes.append(-1)
            columns.append(value)
        elif _SEQUENCES.issuperset(map(type, value)):
            sizes.append(len(value[0]))
            columns += zip(*value, strict=True)
        else:
            raise TypeError("an input column of lists beside scalars")
    shared.append(stack.check_name)
    shared += stack.tolerances.values()
    scalars += chain.from_iterable(zip(*columns, *stack.values.values(),
                                       *stack.residuals.values(), stack.passed, strict=True))
    layout = (tuple(stack.inputs), tuple(sizes), tuple(stack.values), tuple(stack.residuals),
              tuple(stack.tolerances))
    return layout, 1 + len(stack.tolerances), len(stack)


def _stack_text(key: tuple) -> tuple:
    # The text of a stack's rows, cached by ``key``: its layout, and its check name and
    # tolerances as written, joined by NUL.  (head, middle, cycle, tail): a row's text
    # before its first own scalar, between its own scalars and after its last; ``cycle``
    # is the text from a row's last own scalar to the next row's first, then ``middle``.
    (inputs, sizes, values, residuals, tolerances), text = key
    check, *heads = text.split("\x00")
    # One report as an item of the file's "reports" list, a NUL for each own scalar.
    lists = ["\x00" if k < 0 else _block(["\x00"] * k, 4, "[]") for k in sizes]
    fields = {"check_name": check, "inputs": _dict(inputs, 3, lists),
              "values": _dict(values, 3), "residuals": _dict(residuals, 3),
              "tolerances": _dict(tolerances, 3, heads), "pass": "\x00"}
    head, *middle, tail = _dict(fields, 2, list(fields.values())).split("\x00")
    found = head, tuple(middle), (tail + ",\n    " + head, *middle), tail
    if len(_rows) >= TEMPLATE_LIMIT:
        _rows.clear()
    _rows[key] = found
    return found


def _pieces(scalars: list) -> list[str]:
    # Each scalar as written, by one C-encoder call, a number that is not finite as null (a
    # string is quoted, so "NaN" is not one); ValueError where the encoder wrote a container
    # in a scalar's place.
    text = "".join(_encode_scalars(scalars, 0))[1:-1]
    if text.startswith(("[", "{")) or "\x00[" in text or "\x00{" in text:
        raise ValueError("a value that is not a plain scalar")
    pieces = text.split("\x00") if text else []
    if "NaN" in text or "Infinity" in text:
        pieces = [_NULL.get(piece, piece) for piece in pieces]
    return pieces


def _written(stacks: list[ReportStack], summary: dict, duplicates: list | None) -> str:
    # The file from the stacks' columns: each row is its stack's text, with the stack's
    # check name and tolerances written in, around the row's own scalars; ``duplicates``, when
    # given, is the last key.
    shared: list = []
    scalars: list = []
    layouts = [_stack_rows(stack, shared, scalars) for stack in stacks if stack]
    pieces = _pieces(shared + scalars)
    gaps, text, start = [], '{\n  "reports": [\n    ', 0
    for layout, count, size in layouts:
        key = layout, "\x00".join(pieces[start:start + count])
        start += count
        head, middle, cycle, tail = _rows.get(key) or _stack_text(key)
        gaps.append(text + head)
        gaps += middle
        gaps += cycle * (size - 1)
        text = tail + ",\n    "
    text = text[:-6] + "\n  ]" if gaps else text[:-5] + "]"
    text += ',\n  "summary": {\n    "total": %d,\n    "passed": %d,\n    "failed": %d\n  }' % (
        tuple(summary.values()))
    if duplicates is not None:
        text += (',\n  "duplicates": '
                 + _block([_block(["%s"] * len(d), 2, "[]") for d in duplicates], 1, "[]")
                 % tuple(_pieces([*chain.from_iterable(duplicates)])))
    return "".join(chain.from_iterable(zip(gaps, pieces[start:], strict=True))) + text + "\n}\n"


def dumps_canonical(obj, duplicates: list | None = None) -> str:
    """The canonical JSON of ``obj`` and a newline.

    A SuiteResult is written by ``_written`` from its stacks (see the module docstring), with
    ``duplicates`` (``mpjl report``'s list of duplicated trials) as its last key when given:
    cached row templates (``TEMPLATE_LIMIT``) around the scalars of the rows, which one call
    of CPython's C encoder writes, and one more those of ``duplicates``.  A number that is
    not finite is written as ``null``: strict JSON has no such number, and the report that
    holds it has failed (``stack_reports``).  TypeError or ValueError refuses a value that is
    not a plain scalar (or a list of them, in ``inputs``), a key that is not a str and an
    input column of lists of several lengths (or of lists and scalars).  Anything else is
    written as ``json.dumps(obj, indent=2, allow_nan=False)``.
    """
    if isinstance(obj, SuiteResult):
        return _written(obj.stacks, obj.summary, duplicates)
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def render_text(result: SuiteResult, show_wall_time: bool = True) -> str:
    """Human-readable rendering of the same data as the JSON form; a residual that is not
    finite reads ``null``, as it does there."""
    lines = []
    for stack in result.stacks:
        # Each input and residual as its text in each row, from the stack's columns: an
        # input as k=v; a residual that is a float (or null) as k=%.3e, else "", which is
        # left out.
        inputs = [[f"{k}={x}" for x in column] for k, column in stack.inputs.items()]
        resid = [["" if v is not None and not isinstance(v, float) else f"{k}={v:.3e}"
                  if v is not None and math.isfinite(v) else f"{k}=null" for v in column]
                 for k, column in stack.residuals.items()]
        for passed, *texts in zip(stack.passed, *inputs, *resid):
            lines.append(f"[{'PASS' if passed else 'FAIL'}] {stack.check_name} "
                         f"{' '.join(texts[:len(inputs)])} "
                         f"{' '.join(filter(None, texts[len(inputs):]))}".rstrip())
    s = result.summary
    lines.append(f"summary: total={s['total']} passed={s['passed']} failed={s['failed']}")
    if show_wall_time:
        lines.append(f"wall_time: {result.wall_time:.3f}s")
    return "\n".join(lines) + "\n"
