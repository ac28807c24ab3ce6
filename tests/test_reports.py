"""The verdict rule of VerificationReport."""

import json

import numpy as np

from mpjl.reports import SuiteResult, VerificationReport, dumps_canonical


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


def test_from_json_keeps_the_stored_flag():
    # A stored verdict is what the producer decided; a merge must not re-judge it.
    failing = _report({"a": 0.0}, {"a": 1.0}, conditions=(False,))
    result = SuiteResult(reports=[failing])
    back = SuiteResult.from_json(json.loads(dumps_canonical(result.to_json())))
    assert back.reports[0].passed is False
    stored = failing.to_json()
    stored["pass"] = True
    assert VerificationReport.from_json(stored).passed is True
