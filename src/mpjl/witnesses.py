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

from .matcore import make_rng, random_rank_q, random_stiefel
from .measures import orthogonal_invariance_check
from .reports import VerificationReport

FIXTURE_NAME = "invariance_witnesses.json"


def load_witnesses() -> list[dict]:
    text = resources.files("mpjl.fixtures").joinpath(FIXTURE_NAME).read_text()
    return json.loads(text)["witnesses"]


def _rotation_instance(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if (n, m) != (2, 2):
        raise ValueError("rotation witnesses are defined for 2x2 instances")
    x = np.zeros((2, 2))
    x[0, 0] = 1.0
    c = np.cos(np.pi / 4)
    s = np.sin(np.pi / 4)
    rot = np.array([[c, -s], [s, c]])
    return x, rot, rot


def _haar_instance(n: int, m: int, q: int, seed: int):
    rng = make_rng(seed)
    x = random_rank_q(n, m, q, rng)
    h = random_stiefel(n, n, rng)
    qmat = random_stiefel(m, m, rng)
    return x, h, qmat


def reproduce(witness: dict) -> VerificationReport:
    """Re-run the invariance check for a stored witness recipe."""
    n, m, q = witness["n"], witness["m"], witness["q"]
    if witness["kind"] == "rotation":
        x, h, qmat = _rotation_instance(n, m)
    elif witness["kind"] == "haar":
        x, h, qmat = _haar_instance(n, m, q, witness["seed"])
    else:
        raise ValueError(f"unknown witness kind {witness['kind']!r}")
    return orthogonal_invariance_check(x, q, h, qmat)
