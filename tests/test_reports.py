"""The verdict rule of stack_reports, and the canonical JSON writer."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import report_json, result_of
from mpjl import reports, suites
from mpjl.reports import (PRIMARY, TOLERANCES, SuiteResult, VerificationReport, dumps_canonical,
                          render_text)

CHECKS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


def _report(monkeypatch, residuals, tolerances, conditions=()):
    # One report of a synthetic check whose table entry is ``tolerances``.
    monkeypatch.setitem(TOLERANCES, "check", tolerances)
    [report] = reports.stack_reports("check", {}, {}, residuals, conditions)
    return report


def test_residuals_at_or_below_tolerance_pass(monkeypatch):
    assert _report(monkeypatch, {"a": 1e-9, "b": 0.0}, {"a": 1e-9, "b": 1e-12}).passed is True
    assert _report(monkeypatch, {"a": 2e-9}, {"a": 1e-9}).passed is False


def test_nan_residual_fails(monkeypatch):
    assert _report(monkeypatch, {"a": float("nan")}, {"a": 1.0}).passed is False
    assert _report(monkeypatch, {"a": np.float64("nan")}, {"a": 1.0}).passed is False


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_value_that_is_not_finite_fails(monkeypatch, bad):
    # Beside residuals that pass, and a value that is not a float: a float value that is
    # not finite fails its report, as a NaN residual does, in every slice that holds it.
    monkeypatch.setitem(TOLERANCES, "check", {"a": 1.0})
    values = {"rank": np.array([2, 2, 2]), "v": np.array([1.0, bad, 2.0])}
    stack = reports.stack_reports("check", {}, values, {"a": np.zeros(3)})
    assert stack.passed == [True, False, True]
    [report] = reports.stack_reports("check", {}, {"v": bad, "w": 0.5}, {"a": 0.0})
    assert report.passed is False


def test_false_condition_fails_within_tolerance(monkeypatch):
    assert _report(monkeypatch, {"a": 0.0}, {"a": 1.0}, conditions=(True, False)).passed is False
    assert _report(monkeypatch, {"a": 0.0}, {"a": 1.0}, conditions=(True,)).passed is True
    assert _report(monkeypatch, {}, {}, conditions=(False,)).passed is False


def test_explicit_verdict_is_kept():
    assert VerificationReport("stub", {}, {}, {}, {}, True).passed is True
    assert VerificationReport("stub", {}, {}, {"a": 2.0}, {"a": 1.0}, True).passed is True


def test_numpy_values_serialize_as_plain_json():
    # A numpy scalar is written as its tolist(); an array is not a scalar, so a value that
    # holds one is refused.
    values = {"det": np.float64(2.0), "ok": np.bool_(True), "rank": np.int64(2),
              "half": np.float32(0.5), "zero_d": np.array(1.5)}
    report = VerificationReport("stub", {"n": np.int64(3), "spectrum": [np.float64(3.0), 1.0]},
                                values, {}, {}, np.bool_(True))
    back = json.loads(dumps_canonical(result_of([report])))["reports"][0]
    assert back["inputs"] == {"n": 3, "spectrum": [3.0, 1.0]}
    assert back["values"] == {"det": 2.0, "ok": True, "rank": 2, "half": 0.5, "zero_d": 1.5}
    assert back["pass"] is True
    for array in (np.array([3.0, 1.0]), np.arange(4).reshape(2, 2), np.array([0.5])):
        with pytest.raises(ValueError):
            dumps_canonical(result_of([VerificationReport("stub", {}, {"a": array}, {}, {}, True)]))


def test_omitted_tolerances_come_from_the_table():
    residuals = {"pinv_blocks": 0.0, "roundtrip": 0.0}
    [report] = reports.stack_reports("blocks", {}, {}, residuals)
    assert report.tolerances == {k: TOLERANCES["blocks"][k] for k in residuals}
    assert list(report.tolerances) == list(residuals)
    assert report.passed is True


def test_tol_replaces_the_primary_tolerance():
    residuals = {"roundtrip": 0.0, "pinv_blocks": 1e-6}
    [report] = reports.stack_reports("blocks", {}, {}, residuals, tol=1e-3)
    assert report.tolerances == {"roundtrip": TOLERANCES["blocks"]["roundtrip"], "pinv_blocks": 1e-3}
    assert report.passed is True
    [report] = reports.stack_reports("blocks", {}, {}, residuals)
    assert report.passed is False


# Benchmark ceilings whose residual no report writes any more, each with the reason and the
# live (check, residual) that its ceiling still bounds, or None where no residual took its place.
RETIRED = {
    ("blocks", "x22"): ("bit-identical to roundtrip", ("blocks", "roundtrip")),
    ("exterior-chain", "determinant_algebra"): (
        "the determinant form of inverse_identity, exactly 0 at n = m + 1", None),
    ("exterior-chain", "operator_match"): (
        "jacobian-full's operator_vs_formula plus determinant_algebra",
        ("jacobian-full", "operator_vs_formula")),
}


def test_table_is_no_looser_than_the_benchmark_ceilings():
    # The benchmark's correctness gate is read as source, never imported, so
    # nothing is written under perfbench/.
    namespace: dict = {}
    exec(compile(CHECKS_PY.read_text(), str(CHECKS_PY), "exec"), namespace)
    for (check, key), ceiling in namespace["TOLERANCE_CEILINGS"].items():
        if (check, key) in RETIRED:
            assert key not in TOLERANCES[check], (check, key)
            if RETIRED[check, key][1] is None:
                continue
            check, key = RETIRED[check, key][1]
        assert key in TOLERANCES[check], (check, key)
        assert TOLERANCES[check][key] <= ceiling, (check, key)


FULL_RANK_ONLY = ("jacobian-full", "exterior-chain", "symmetric-inverse")


@pytest.mark.parametrize("suite, q", [(suite, q) for suite in suites.SUITE_NAMES for q in (3, 2)
                                      if q == 3 or suite not in FULL_RANK_ONLY])
def test_every_residual_gates_and_none_repeats_another(suite, q):
    # An oracle that cannot fail shows nothing: a residual held to no finite
    # tolerance, or one that repeats another residual to rounding (within
    # 1e-12 relative) in every report.  4 x 3 at full rank, and at q=2 where
    # the suite takes a deficient rank.
    made = suites.run_suite(suite, suites.RunConfig(n=4, m=3, q=q, trials=6, seed=5)).reports
    for report in made:
        assert list(report.tolerances) == list(report.residuals)
        assert all(type(t) is float and math.isfinite(t) for t in report.tolerances.values())
    for a, b in itertools.combinations(made[0].residuals, 2):
        assert not all(math.isclose(r.residuals[a], r.residuals[b], rel_tol=1e-12)
                       for r in made), (a, b)


# Residuals around every tolerance of the table, NaN and inf among them.
RESIDUALS = (st.sampled_from([0.0, 1e-13, 1e-11, 1e-9, 1e-7, 1e-5, 1e-3, float("nan"),
                              float("inf")])
             | st.floats(min_value=0.0, allow_nan=False))


@st.composite
def stacks(draw):
    # The arguments of one stack_reports call: T slices, each column 0-d or
    # (T,); residual keys from one check's table, with the ``tol`` override
    # or a synthetic check's table of tolerances; conditions that may be false.
    size = draw(st.integers(1, 4))

    def column(elements):
        return draw(st.lists(elements, min_size=size, max_size=size).map(np.array)
                    | elements.map(np.asarray))

    check = draw(st.sampled_from(sorted(TOLERANCES)))
    keys = draw(st.lists(st.sampled_from(sorted(TOLERANCES[check])), unique=True, min_size=1))
    kwargs = draw(st.sampled_from(["table", "tol", "tolerances"]))
    if kwargs == "tol" and check in PRIMARY:
        keys = [PRIMARY[check], *(k for k in keys if k != PRIMARY[check])]
        kwargs = {"tol": draw(st.sampled_from([1e-30, 1e-10, 1e-6, 1.0]))}
    elif kwargs == "tolerances":
        check, kwargs = "check", {"tolerances": {k: draw(RESIDUALS) for k in keys}}
    else:
        kwargs = {}
    values = {"v": column(st.floats(allow_nan=False))}
    residuals = {k: column(RESIDUALS) for k in keys}
    conditions = tuple(column(st.booleans()) for _ in range(draw(st.integers(0, 2))))
    return check, values, residuals, conditions, kwargs


@given(stacks())
@example(("check", {}, {"roundtrip": np.array([0.0, np.nan]), "pinv_blocks": np.asarray(1.0)},
          (np.array([True, False]),), {"tolerances": {"roundtrip": 1.0, "pinv_blocks": 0.5}}))
def test_a_stack_is_judged_as_each_report_alone(case):
    check, values, residuals, conditions, kwargs = case
    with pytest.MonkeyPatch.context() as patch:  # a synthetic check's table
        if "tolerances" in kwargs:
            patch.setitem(TOLERANCES, check, kwargs["tolerances"])
        stacked = reports.stack_reports(check, {"n": 1}, values, residuals, conditions,
                                        tol=kwargs.get("tol"))
    columns = np.broadcast_arrays(*values.values(), *residuals.values(), *conditions)
    assert len(stacked) == columns[0].size
    rows = zip(*(c.ravel().tolist() for c in columns))
    for report, row in zip(stacked, rows, strict=True):
        # The rule for one report, written out: the table's tolerance of each
        # residual (a synthetic check's table where one is drawn), ``tol`` in
        # place of the primary one; every residual at or below its tolerance
        # (NaN is not), every value finite (each is a float), and every condition true.
        alone = dict(zip(residuals, row[len(values):]))
        tolerances = kwargs.get("tolerances")
        if tolerances is None:
            tolerances = {k: TOLERANCES[check][k] for k in residuals}
            if "tol" in kwargs:
                tolerances[PRIMARY[check]] = kwargs["tol"]
        passed = all(row[len(values) + len(residuals):]) and all(
            alone[k] <= t for k, t in tolerances.items()) and all(
            map(math.isfinite, row[:len(values)]))
        assert report.passed is passed
        assert report.tolerances == tolerances
        assert list(report.tolerances) == list(tolerances)


def _reference(obj) -> str:
    # What dumps_canonical must write of a payload that is not a SuiteResult.
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _reference_of(made, duplicates=None) -> str:
    # What dumps_canonical must write of a result of the reports ``made``: the payload of
    # their fields (report_json) and summary, with the duplicates last.
    passed = sum(bool(r.passed) for r in made)
    payload = {"reports": [report_json(r) for r in made],
               "summary": {"total": len(made), "passed": passed, "failed": len(made) - passed}}
    if duplicates is not None:
        payload["duplicates"] = duplicates
    return _reference(payload)


_SCALAR_TYPES = (str, int, float, bool, type(None), np.generic)


def _writable(made, duplicates) -> bool:
    # Whether the writer can write the reports ``made``: every key a str; every value,
    # residual, tolerance and duplicate a scalar (a numpy one included); every input one
    # or a list (or tuple) of them.
    dicts = [d for r in made for d in (r.inputs, r.values, r.residuals, r.tolerances)]
    scalars = [v for r in made for d in (r.values, r.residuals, r.tolerances) for v in d.values()]
    scalars += [x for d in duplicates or () for x in d]
    for r in made:
        for v in r.inputs.values():
            scalars += v if type(v) in (list, tuple) else [v]
    return (all(type(k) is str for d in dicts for k in d)
            and all(isinstance(v, _SCALAR_TYPES) for v in scalars))


SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2**70, 2**70) | st.text()
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 5e-324, 1e308, "\u00e9\n\"\\\t\x00\U0001f600"]))
PAYLOADS = st.recursive(SCALARS, lambda children: st.lists(children, max_size=5)
                        | st.dictionaries(st.text(max_size=5), children, max_size=5), max_leaves=40)


# What a report holds: values of every kind JSON has, numpy scalars that
# the writer writes as their tolist(), keys and strings that the row templates
# must escape, and input lists (as lists or tuples) of several lengths.
REPORT_SCALARS = (SCALARS | st.integers(-2**63, 2**63 - 1).map(np.int64)
                  | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
                  | st.booleans().map(np.bool_)
                  | st.sampled_from([2**70, "%s %d %%", "\x00", '"', "\u00e9\x00\"%"]))
REPORT_KEYS = st.sampled_from(["a", "fd_chart_det", "%", "%s", "100%", "a%%b", "\u00e9", "\x00\"",
                               "k\n"])


@st.composite
def made_reports(draw):
    # The reports of a SuiteResult and the duplicates written with it (None:
    # no such key).  The reports share a few layouts (repeated and mixed);
    # about half the results hold one value that is not a plain scalar (a
    # nested list or object, or an array), which the writer refuses.
    layouts = draw(st.lists(st.tuples(st.lists(REPORT_KEYS, unique=True, max_size=4),
                                      st.lists(REPORT_KEYS, unique=True, max_size=2),
                                      st.none() | st.integers(0, 4)), min_size=1, max_size=4))
    made = []
    for _ in range(draw(st.integers(0, 12))):
        keys, input_keys, q = draw(st.sampled_from(layouts))
        inputs = {"n": draw(REPORT_SCALARS), "%m": 3,
                  **{k: draw(REPORT_SCALARS) for k in input_keys}}
        if q is not None:
            spectrum = st.lists(REPORT_SCALARS, min_size=q, max_size=q)
            floats = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=q,
                              max_size=q)
            inputs["spectrum"] = draw(spectrum | spectrum.map(tuple) | floats)
        values = {k: draw(REPORT_SCALARS) for k in keys}
        residuals = {k: draw(REPORT_SCALARS) for k in keys[:2]}
        tolerances = {k: draw(st.none() | REPORT_SCALARS) for k in residuals}
        passed = draw(st.booleans() | st.booleans().map(np.bool_))
        made.append(VerificationReport(draw(st.text(max_size=3)), inputs, values, residuals,
                                       tolerances, passed))
    if made and draw(st.booleans()):
        report = draw(st.sampled_from(made))
        report.values[draw(REPORT_KEYS)] = draw(
            st.lists(PAYLOADS, min_size=1, max_size=3) | st.dictionaries(REPORT_KEYS, PAYLOADS)
            | st.just(np.arange(4.0).reshape(2, 2)))
    duplicates = draw(st.none() | st.lists(st.lists(SCALARS, min_size=3, max_size=3), max_size=3))
    return made, duplicates


def _stub(inputs=None, values=None):
    return VerificationReport("c", inputs or {"n": 4}, values or {}, {"r": 0.0}, {"r": 1e-9}, True)


def _blocks(trial, tol):
    # A blocks report as a run writes it, its primary tolerance ``tol``.
    return VerificationReport("blocks", {"n": 4, "m": 3, "q": 2, "seed": 5, "trial": trial},
                              {}, {"roundtrip": 0.0, "pinv_blocks": 1e-9},
                              {"roundtrip": 1e-10, "pinv_blocks": tol}, True)


def _hausdorff(spectrum):
    return VerificationReport("hausdorff", {"n": 4, "m": 3, "q": len(spectrum),
                                            "spectrum": spectrum, "seed": 5, "trial": 0},
                              {"log_density_x": 1.5}, {"identity": 0.0}, {"identity": 1e-10}, True)


@given(made_reports())
@example(([], None))
@example(([], []))
@example(([_stub({"spectrum": []}), _stub({"spectrum": [1.0]}), _stub()], [["c", 1, 2]]))
@example(([_stub(values={"x": [[1.0]]}), _stub(values={"x": {"y": [1]}})], None))
@example(([_stub(values={1: 2.0, None: True})], None))
@example(([_stub({"n%%": 4}, {"a%%b": "%d"})], None))
@example(([_stub({"spectrum": [[1.0], 2.0]})], [["c", [0], 1]]))
# Merged reports of one check whose tolerance dicts differ: a --tol run beside
# a default one, and tolerances (or inputs) equal as numbers that JSON writes apart.
@example(([_blocks(t, tol) for t, tol in enumerate([1e-8, 1e-3, 1e-3, 1e-8, 0, False,
                                                     1e-8, 0.0, -0.0])], []))
@example(([_stub({"n": n, "m": 3}) for n in (0, 0, 0.0, -0.0, False)], None))
@example(([_hausdorff([2.0, 1.0]), _hausdorff([2.5, 1.5, 0.5]),
           _hausdorff([1.5, 0.5, 0.25]), _hausdorff([3.0, 1.0])], None))
@example(([_stub({"n": 4, "m": 3}, {"a": 1.0, "b": 2.0}),
           _stub({"m": 3, "n": 4}, {"a": 1.0, "b": 2.0}),
           _stub({"m": 3, "n": 4}, {"b": 2.0, "a": 1.0}),
           VerificationReport("d", {"m": 3, "n": 4}, {"b": 2.0, "a": 1.0}, {"r": 0.0},
                              {"r": 1e-9}, True)], None))
@example(([VerificationReport("c", {"n": 4}, {}, {"r": 0.0, "s": 0.0}, tolerances, True)
           for tolerances in ({"r": 1e-9, "s": 1e-9}, {"s": 1e-9, "r": 1e-9})], None))
@example(([], [["blocks", 5, 0], ["blocks", 5, 1]]))
# Keys that are not a str, equal as numbers that JSON writes apart: refused.
@example(([VerificationReport("c", {"n": 1}, {key: 2.0}, {}, {}, True) for key in (1, True, 1.0)],
          None))
def test_dumps_canonical_is_the_reference_encoding(case):
    # The reference is json.dumps of the reports as made: grouping them into
    # the result's stacks loses no byte.  What the writer cannot write (a key
    # that is not a str, a value that is not a scalar) raises TypeError or ValueError.
    made, duplicates = case
    if _writable(made, duplicates):
        assert dumps_canonical(result_of(made), duplicates) == _reference_of(made, duplicates)
    else:
        with pytest.raises((TypeError, ValueError)):
            dumps_canonical(result_of(made), duplicates)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Per-row input lists, as hausdorff's spectrum: one length (several, or lists
# beside scalars, in a column that is written report by report).
SPECTRA = st.integers(0, 3).flatmap(lambda k: st.lists(FINITE, min_size=k, max_size=k))


@st.composite
def stack_results(draw):
    # A SuiteResult of trial stacks as a run makes them, and the duplicates
    # written with it: stack_reports of one to four rows (or none), each value
    # and residual an entry per row or one 0-d entry for all, residuals around
    # the tolerances (NaN and inf among them), inputs that every row shares
    # (lists among them), then input columns such as the trial ids and
    # hausdorff's spectrum; stacks of several layouts in one result.
    stacks = []
    for _ in range(draw(st.integers(0, 4))):
        size = draw(st.integers(0, 4))

        def column(elements):
            return draw(st.lists(elements, min_size=size, max_size=size).map(np.array)
                        | elements.map(np.asarray))

        check = draw(st.sampled_from(sorted(TOLERANCES)))
        keys = draw(st.lists(st.sampled_from(sorted(TOLERANCES[check])), unique=True))
        values = {k: column(draw(st.sampled_from([FINITE, st.floats(), st.booleans(),
                                                  st.integers(-2**62, 2**62)])))
                  for k in draw(st.lists(REPORT_KEYS, unique=True, max_size=3))}
        inputs = draw(st.dictionaries(REPORT_KEYS, REPORT_SCALARS
                                      | st.lists(REPORT_SCALARS, max_size=3).map(tuple)
                                      | st.lists(REPORT_SCALARS, max_size=3), max_size=3))
        stack = reports.stack_reports(check, inputs, values, {k: column(RESIDUALS) for k in keys})
        size = len(stack)  # one row where every entry is 0-d
        for key in draw(st.lists(st.sampled_from(["spectrum", "seed", "trial", "attempt"])
                                 | REPORT_KEYS, unique=True, max_size=3)):
            rows = st.lists(REPORT_SCALARS, min_size=size, max_size=size)
            spectra = SPECTRA.flatmap(lambda spectrum: st.just([spectrum] * size)
                                      | st.lists(st.lists(FINITE, min_size=len(spectrum),
                                                          max_size=len(spectrum)),
                                                 min_size=size, max_size=size))
            stack.inputs[key] = draw(rows | spectra | st.lists(SPECTRA | REPORT_SCALARS,
                                                              min_size=size, max_size=size))
        stacks.append(stack)
    result = SuiteResult(stacks=stacks)
    duplicates = draw(st.none() | st.lists(st.lists(SCALARS, min_size=3, max_size=3), max_size=3))
    return result, duplicates


def _stack(size, spectra=None, inputs=(), **columns):
    # A hausdorff stack of ``size`` rows, its trials' spectra and ids as input columns.
    stack = reports.stack_reports("hausdorff", {"n": 4, "m": 3, "q": 2, **dict(inputs)},
                                  {"log_density_x": np.arange(float(size)), "one": 1.5},
                                  {"identity": np.zeros(size)})
    if spectra is not None:
        stack.inputs["spectrum"] = spectra
    stack.inputs.update(seed=[5] * size, trial=list(range(size)), **columns)
    return stack


def _regular(column) -> bool:
    # Every entry a scalar, or every entry a list of one length.
    kinds = {type(x) in (list, tuple) for x in column}
    return kinds == {False} or kinds == {True} and len({len(x) for x in column}) == 1


@given(stack_results())
@example((SuiteResult(stacks=[_stack(3, [[2.0, 1.0], [2.5, 0.5], [1.5, 1.0]]), _stack(1)]), None))
@example((SuiteResult(stacks=[_stack(2, [[2.0, 1.0], [2.5]]), _stack(2, [[], []])]), [["h", 5, 0]]))
@example((SuiteResult(stacks=[_stack(2, [[2.0, 1.0], "ab"]), _stack(2, [[2.0], {"a": 1}])]), None))
@example((SuiteResult(stacks=[_stack(3, [[2.5], [2.0, 1.0], [1.5]])]), None))
@example((SuiteResult(stacks=[_stack(2, attempt=[0, float("nan")]), _stack(0)]), []))
@example((SuiteResult(stacks=[_stack(2, [[2.0, 1.0], [2.5, 0.5]]), _stack(0)]), None))
@example((SuiteResult(stacks=[_stack(3, inputs={"note%%": "100%% of %%d"},
                                     label=["a%%", "b", "c"])]), None))
def test_dumps_canonical_writes_stacks_as_the_reference(case):
    # A run whose input columns are regular is written from its stacks as the
    # reference, each number that is not finite as null (the report holding one
    # has failed); one whose columns are not raises TypeError or ValueError.  A
    # stack of no rows writes nothing, so its (empty) columns do not count.
    result, duplicates = case
    if all(_regular(c) for stack in result.stacks if stack for c in stack.inputs.values()):
        assert dumps_canonical(result, duplicates) == _reference_of(result.reports, duplicates)
    else:
        with pytest.raises((TypeError, ValueError)):
            dumps_canonical(result, duplicates)


@given(made_reports().map(lambda case: (result_of(case[0]), case[1])) | stack_results())
@example((result_of([VerificationReport("c", {}, {}, {"r": 0.0, "s": "x", "t": None},
                                        {"r": 1e-9}, False)]), None))
def test_render_text_reads_as_each_report(case):
    # render_text writes a stack's rows from its columns; each line is the
    # report's as rendered one by one.
    result = case[0]
    text = render_text(result, show_wall_time=False)
    lines = []
    for r in result.reports:
        inputs = " ".join(f"{k}={v}" for k, v in r.inputs.items())
        resid = " ".join(f"{k}={v:.3e}" if v is not None and math.isfinite(v) else f"{k}=null"
                         for k, v in r.residuals.items() if v is None or isinstance(v, float))
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.check_name} {inputs} {resid}".rstrip())
    s = result.summary
    lines.append(f"summary: total={s['total']} passed={s['passed']} failed={s['failed']}")
    assert text == "\n".join(lines) + "\n"


def test_reports_read_from_a_result_are_copies():
    # A result holds its stacks alone: a report read from it is built anew on
    # each read, and an edit to it reaches neither the result nor its file.
    result = SuiteResult(stacks=[_stack(3, [[2.0, 1.0], [2.5, 0.5], [1.5, 1.0]])])
    before = dumps_canonical(result)
    report = result.reports[1]
    assert result.reports[1] == report and result.reports[1] is not report
    report.inputs["trial"] = 7
    report.passed = False
    assert dumps_canonical(result) == before
    assert result.summary == {"total": 3, "passed": 3, "failed": 0} and result.all_passed


def test_a_stack_reads_as_its_reports():
    stack = _stack(3, [[2.0, 1.0], [2.5, 0.5], [1.5, 1.0]], attempt=[0, 1, 0])
    built = list(stack)
    assert len(stack) == 3 and all(type(r) is VerificationReport for r in built)
    assert built[1] == stack[1] == stack[-2]
    assert built[1].inputs == {"n": 4, "m": 3, "q": 2, "spectrum": [2.5, 0.5], "seed": 5,
                               "trial": 1, "attempt": 1}
    assert built[1].values == {"log_density_x": 1.0, "one": 1.5}
    assert all(r.tolerances is stack.tolerances for r in built)
    [one] = reports.stack_reports("blocks", {}, {}, {"roundtrip": 0.0})
    assert type(one) is VerificationReport and one.passed is True


@given(PAYLOADS)
@example({"reports": [{"spectrum": [1.0]}], "summary": {"total": 1}})
def test_other_payloads_go_to_the_reference(payload):
    assert dumps_canonical(payload) == _reference(payload)


def test_template_cache_stays_bounded():
    made = [_stub(), _stub(), _stub({"spectrum": [1.0, 2.0]})]
    dumps_canonical(result_of(made))
    held = len(reports._rows)
    assert dumps_canonical(result_of(made)) == _reference_of(made) and len(reports._rows) == held
    for i in range(reports.TEMPLATE_LIMIT + 50):
        made = [_stub({f"k{i}": i}), _stub({f"k{i}": [i] * (i % 3)}), _stub()]
        assert dumps_canonical(result_of(made), [["c", i, 0]]) == _reference_of(made, [["c", i, 0]])
        assert 0 < len(reports._rows) <= reports.TEMPLATE_LIMIT
        # A stack's rows are cached by their layout and their shared scalars.
        result = SuiteResult(stacks=[_stack(2, inputs={"k": i})])
        assert dumps_canonical(result) == _reference_of(result.reports)
        assert 0 < len(reports._rows) <= reports.TEMPLATE_LIMIT


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", [lambda v: {"a": v}, lambda v: {"a": [1.0, {"b": v}]},
                                   lambda v: [{"c": "x", "d": [v]}], lambda v: v])
def test_non_finite_numbers_raise_the_reference_error(bad, where):
    obj = where(bad)
    with pytest.raises(ValueError) as reference:
        _reference(obj)
    with pytest.raises(ValueError) as ours:
        dumps_canonical(obj)
    assert str(ours.value) == str(reference.value)
    assert str(ours.value).startswith("Out of range float values are not JSON compliant: ")


def _refuse_constant(name):
    raise ValueError(f"strict JSON has no {name}")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", [lambda v: [
                                       VerificationReport("c", {"q": 1}, {}, {}, {}, True),
                                       VerificationReport("c", {"q": 1}, {"x": v}, {}, {}, True),
                                   ],
                                   lambda v: [_stub({"spectrum": [1.0, np.float64(v)]})],
                                   lambda v: [_stub(values={"s": "NaN", "t": "-Infinity",
                                                            "x": v})]])
def test_non_finite_numbers_of_a_suite_result_are_written_as_null(bad, where):
    # Strict JSON has no such number, and the report holding one has failed
    # (stack_reports): the file says null there and keeps its layout.  A string
    # that spells one is a string.
    made = where(bad)
    text = dumps_canonical(result_of(made))
    assert text == _reference_of(made)
    json.loads(text, parse_constant=_refuse_constant)


def test_what_json_lacks_raises_the_reference_error():
    for obj in ({"a": {"b": object()}}, {"a": np.float32(1.0)}, {(1, 2): [1]}):
        with pytest.raises(TypeError) as reference:
            _reference(obj)
        with pytest.raises(TypeError) as ours:
            dumps_canonical(obj)
        assert str(ours.value) == str(reference.value)
    # A result that the writer cannot write raises TypeError or ValueError, never
    # AttributeError: a value without a JSON form (json.dumps' error), a key that is not
    # a str, a value (or an input's item) that is not a scalar.
    with pytest.raises(TypeError) as reference:
        _reference({"b": object()})
    with pytest.raises(TypeError) as ours:
        dumps_canonical(result_of([_stub(values={"b": object()})]))
    assert str(ours.value) == str(reference.value)
    for report, error in [(_stub(values={(1, 2): 1.0}), TypeError),
                          (_stub(values={1: 2.0, None: True}), TypeError),
                          (_stub({"n": 4, 3: "m"}), TypeError),
                          (_stub(values={"x": [[1.0]]}), ValueError),
                          (_stub(values={"x": {"y": [1]}}), ValueError),
                          (_stub({"spectrum": [[1.0], 2.0]}), ValueError)]:
        with pytest.raises(error):
            dumps_canonical(result_of([report]))
    # Keys JSON converts (numbers, bools, None) are written as the reference writes them.
    obj = {"x": {1: [2], 2.5: {"y": True}, None: [], False: {}}}
    assert dumps_canonical(obj) == _reference(obj)
