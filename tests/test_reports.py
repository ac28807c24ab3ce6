"""The verdict rule of VerificationReport, and the canonical JSON writer."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mpjl import reports
from mpjl.reports import TOLERANCES, SuiteResult, VerificationReport, dumps_canonical

CHECKS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


def _report(residuals, tolerances, conditions=()):
    return VerificationReport("check", {}, {}, residuals, tolerances, conditions=conditions)


def test_residuals_at_or_below_tolerance_pass():
    assert _report({"a": 1e-9, "b": 0.0}, {"a": 1e-9, "b": 1e-12}).passed is True
    assert _report({"a": 2e-9}, {"a": 1e-9}).passed is False


def test_nan_residual_fails():
    assert _report({"a": float("nan")}, {"a": 1.0}).passed is False
    assert _report({"a": np.float64("nan")}, {"a": 1.0}).passed is False


def test_none_tolerance_never_gates():
    assert _report({"evidence": 1e300}, {"evidence": None}).passed is True
    assert _report({"a": 1.0, "evidence": 0.0}, {"a": 0.5, "evidence": None}).passed is False


def test_false_condition_fails_within_tolerance():
    assert _report({"a": 0.0}, {"a": 1.0}, conditions=(True, False)).passed is False
    assert _report({"a": 0.0}, {"a": 1.0}, conditions=(True,)).passed is True
    assert _report({}, {}, conditions=(False,)).passed is False


def test_explicit_verdict_is_kept():
    assert VerificationReport("stub", {}, {}, {}, {}, True).passed is True
    assert VerificationReport("stub", {}, {}, {"a": 2.0}, {"a": 1.0}, True).passed is True


def test_numpy_values_serialize_as_plain_json():
    values = {"spectrum": np.array([3.0, 1.0]), "grid": np.arange(4).reshape(2, 2),
              "one": np.array([0.5]), "det": np.float64(2.0), "ok": np.bool_(True)}
    report = VerificationReport("stub", {"n": np.int64(3)}, values, {}, {})
    back = json.loads(dumps_canonical(report.to_json()))
    assert back["inputs"] == {"n": 3}
    assert back["values"] == {"spectrum": [3.0, 1.0], "grid": [[0, 1], [2, 3]], "one": [0.5],
                              "det": 2.0, "ok": True}


def test_from_json_keeps_the_stored_flag():
    # A stored verdict is what the producer decided; a merge must not re-judge it.
    failing = _report({"a": 0.0}, {"a": 1.0}, conditions=(False,))
    result = SuiteResult(reports=[failing])
    back = SuiteResult.from_json(json.loads(dumps_canonical(result.to_json())))
    assert back.reports[0].passed is False
    stored = failing.to_json()
    stored["pass"] = True
    assert VerificationReport.from_json(stored).passed is True


def test_omitted_tolerances_come_from_the_table():
    residuals = {"pinv_blocks": 0.0, "roundtrip": 0.0, "x22": 0.0}
    report = VerificationReport("blocks", {}, {}, residuals)
    assert report.tolerances == {k: TOLERANCES["blocks"][k] for k in residuals}
    assert list(report.tolerances) == list(residuals)
    assert report.passed is True


def test_table_is_no_looser_than_the_benchmark_ceilings():
    # The benchmark's correctness gate is read as source, never imported, so
    # nothing is written under perfbench/.
    namespace: dict = {}
    exec(compile(CHECKS_PY.read_text(), str(CHECKS_PY), "exec"), namespace)
    for (check, key), ceiling in namespace["TOLERANCE_CEILINGS"].items():
        assert key in TOLERANCES[check], (check, key)
        assert TOLERANCES[check][key] <= ceiling, (check, key)


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2**70, 2**70) | st.text()
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 5e-324, 1e308, "\u00e9\n\"\\\t\x00\U0001f600"]))
PAYLOADS = st.recursive(SCALARS, lambda children: st.lists(children, max_size=5)
                        | st.dictionaries(st.text(max_size=5), children, max_size=5), max_leaves=40)


# What a report file holds: per-report values of every kind JSON has,
# numpy scalars that to_json makes plain, keys and strings that the
# templates must escape, and layouts that some reports share and some not
# (a value left out, spectra of other lengths, none).
REPORT_SCALARS = (SCALARS | st.integers(-2**63, 2**63 - 1).map(np.int64)
                  | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
                  | st.booleans().map(np.bool_)
                  | st.sampled_from([2**70, "%s %d %%", "\x00", '"', "\u00e9\x00\"%"]))
REPORT_KEYS = st.sampled_from(["a", "fd_chart_det", "%", "%s", "100%", "\u00e9", "\x00\"", "k\n"])


@st.composite
def report_files(draw):
    layouts = draw(st.lists(st.tuples(st.lists(REPORT_KEYS, unique=True, max_size=4),
                                      st.none() | st.integers(0, 4)), min_size=1, max_size=4))
    made = []
    for _ in range(draw(st.integers(0, 12))):
        keys, q = draw(st.sampled_from(layouts))
        inputs = {"n": draw(REPORT_SCALARS), "%m": 3}
        if q is not None:
            inputs["spectrum"] = draw(st.lists(REPORT_SCALARS, min_size=q, max_size=q))
        values = {k: draw(REPORT_SCALARS) for k in keys}
        residuals = {k: draw(REPORT_SCALARS) for k in keys[:2]}
        tolerances = {k: draw(st.none() | REPORT_SCALARS) for k in residuals}
        made.append(VerificationReport(draw(st.text(max_size=3)), inputs, values, residuals,
                                       tolerances, draw(st.booleans())))
    payload = SuiteResult(reports=made).to_json()
    if draw(st.booleans()):
        payload["duplicates"] = draw(st.lists(st.lists(SCALARS, min_size=3, max_size=3),
                                              max_size=3))
    return payload


@given(PAYLOADS | report_files())
@example({"a": [], "b": {}, "c": [[], [{}]], "d": {"e": [1, {"f": None}]}, "g": (1.5, "h")})
@example([{"\u00e9": -0.0}, 5e-324, 1e308, 10**30, True, None])
@example({"reports": [{"spectrum": [1.0]}, {"spectrum": 1.0}, {"spectrum": [[1.0]]},
                      {"spectrum": {"a": [1]}}, {"spectrum": []}, {"spectrum": {}}]})
@example({"reports": [{"a": [{"b": [1]}]}], "summary": {"c": [2]}, "duplicates": [[[3]]]})
def test_dumps_canonical_is_the_reference_encoding(payload):
    assert dumps_canonical(payload) == _reference(payload)


def test_template_cache_stays_bounded():
    for i in range(reports.TEMPLATE_LIMIT + 50):
        payload = {"reports": [{"check_name": "c", "inputs": {f"k{i}": i}, "pass": True}]}
        assert dumps_canonical(payload) == _reference(payload)
    assert len(reports._templates) <= reports.TEMPLATE_LIMIT


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", [lambda v: {"a": v}, lambda v: {"a": [1.0, {"b": v}]},
                                   lambda v: [{"c": "x", "d": [v]}], lambda v: v,
                                   lambda v: SuiteResult(reports=[
                                       VerificationReport("c", {"q": 1}, {}, {}, {}, True),
                                       VerificationReport("c", {"q": 1}, {"x": v}, {}, {}, True),
                                   ]).to_json()])
def test_non_finite_numbers_raise_the_reference_error(bad, where):
    obj = where(bad)
    with pytest.raises(ValueError) as reference:
        _reference(obj)
    with pytest.raises(ValueError) as ours:
        dumps_canonical(obj)
    assert str(ours.value) == str(reference.value)
    assert str(ours.value).startswith("Out of range float values are not JSON compliant: ")


def test_what_json_lacks_raises_the_reference_error():
    for obj in ({"a": {"b": object()}}, {"a": np.float32(1.0)}, {(1, 2): [1]}):
        with pytest.raises(TypeError) as reference:
            _reference(obj)
        with pytest.raises(TypeError) as ours:
            dumps_canonical(obj)
        assert str(ours.value) == str(reference.value)
    # Keys JSON converts (numbers, bools, None) are written as the reference writes them.
    obj = {"x": {1: [2], 2.5: {"y": True}, None: [], False: {}}}
    assert dumps_canonical(obj) == _reference(obj)
