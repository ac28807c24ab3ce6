"""Mutation audit: every oracle must be able to fail.

Each mutant monkeypatches one library function with a plausible error and
names a suite run that must FAIL under it; the same run passes unmutated.
A mutant that survives would show an oracle that cannot see that error.
"""

import numpy as np
import pytest

from mpjl import chart, differential, measures, suites


def _flip_z_dx12(original):
    # dX22 = (dX21 - Z dX11) W + Z dX12 with the sign of Z dX12 flipped.
    return lambda b, dx11, dx12, dx21: (dx21 - b.z @ dx11) @ b.w - b.z @ dx12


def _swap_volumes(original):
    # -V(b) for V(b): V_in - V_out becomes V_out - V_in.
    return lambda b: -original(b)


def _exponent_n_minus_q_plus_1(original):
    # (n-q+1)/2 log det(I + W'W) in place of (n-q)/2.
    def mutant(b):
        w = b.w
        return original(b) + 0.5 * np.linalg.slogdet(np.eye(b.m - b.q) + w.swapaxes(-1, -2) @ w)[1]
    return mutant


INVARIANCE_5X4Q2 = ("invariance", dict(n=5, m=4, q=2, trials=6, seed=5))

# name -> (patches [(module, attribute, mutant factory)], (suite, config)).
MUTANTS = {
    "tangent-dx22-sign": ([(chart, "_tangent_x22", _flip_z_dx12),
                           (differential, "_tangent_x22", _flip_z_dx12)], INVARIANCE_5X4Q2),
    "chart-volumes-swapped": ([(measures, "log_chart_volume", _swap_volumes)], INVARIANCE_5X4Q2),
    "volume-exponent-n-q+1": ([(measures, "log_chart_volume", _exponent_n_minus_q_plus_1)],
                              INVARIANCE_5X4Q2),
}


def _reports(suite, config):
    return suites.run_suite(suite, suites.RunConfig(**config)).reports


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_fails_its_run(monkeypatch, name):
    patches, (suite, config) = MUTANTS[name]
    assert all(r.passed for r in _reports(suite, config))
    for module, attribute, factory in patches:
        monkeypatch.setattr(module, attribute, factory(getattr(module, attribute)))
    reports = _reports(suite, config)
    assert reports and not any(r.passed for r in reports)
