"""Stored non-invariance witnesses.

The deficient-chart invariance deviations are regression fixtures: each
witness pins an instance (either a fixed plane rotation or a Haar draw
from a stored seed) whose chart Jacobian determinant stays away from 1.
``reproduce`` rebuilds the instance from the stored recipe, so the shipped
values are checkable bit for bit.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .matcore import make_rng
from .reports import VerificationReport
from .suites import RunConfig, _check_invariance, _draw_invariance, judge_invariance

FIXTURE_NAME = "invariance_witnesses.json"


def load_witnesses() -> list[dict]:
    text = resources.files("mpjl.fixtures").joinpath(FIXTURE_NAME).read_text()
    return json.loads(text)["witnesses"]


def _rotation(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    # X = e1 e1' and the plane rotation by pi/4, which is both H and Q.
    if (n, m) != (2, 2):
        raise ValueError("rotation witnesses are defined for 2x2 instances")
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    return np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[c, -s], [s, c]])


def reproduce(witness: dict) -> VerificationReport:
    """Re-run the invariance check for a stored witness recipe: a Haar witness is
    ``invariance``'s own draw from the stream ``make_rng(seed)``."""
    n, m, q = witness["n"], witness["m"], witness["q"]
    if witness["kind"] == "rotation":
        x, rot = _rotation(n, m)
        return judge_invariance(x, q, rot, rot)[0]
    if witness["kind"] == "haar":
        draw = _draw_invariance(n, m, q, make_rng(witness["seed"]), None)
        return _check_invariance(RunConfig(n=n, m=m, q=q), [draw])[0]
    raise ValueError(f"unknown witness kind {witness['kind']!r}")
