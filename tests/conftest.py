"""Shared fixtures."""

import numpy as np
import pytest

from mpjl import matcore

try:
    from hypothesis import settings
except ImportError:  # optional test dependency; only the property tests need it
    pass
else:
    # Fixed examples and no wall-clock deadline: reproducible runs that do
    # not flake on a slow host.
    settings.register_profile("mpjl", derandomize=True, database=None, deadline=None)
    settings.load_profile("mpjl")


def _record_shapes(monkeypatch, name, arg=0, read=np.shape, module=np.linalg):
    shapes = []
    function = getattr(module, name)

    def spy(*args, **kwargs):
        shapes.append(read(args[arg]))
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return shapes


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of the matrices passed to ``np.linalg.svd`` while the test runs."""
    return _record_shapes(monkeypatch, "svd")


@pytest.fixture
def qr_shapes(monkeypatch):
    """Shapes of the matrices passed to numpy's QR kernel ``qr_r_raw``, the entry point of
    every QR that ``matcore`` takes, while the test runs."""
    return _record_shapes(monkeypatch, "qr_r_raw", module=matcore)


@pytest.fixture
def solve_shapes(monkeypatch):
    """Shapes of the right-hand sides passed to ``np.linalg.solve`` while the test runs."""
    return _record_shapes(monkeypatch, "solve", 1)


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """Shapes of the matrices passed to ``np.linalg.eigvalsh`` while the test runs."""
    return _record_shapes(monkeypatch, "eigvalsh")


@pytest.fixture
def eigh_shapes(monkeypatch):
    """Shapes of the matrices passed to ``np.linalg.eigh`` while the test runs."""
    return _record_shapes(monkeypatch, "eigh")


@pytest.fixture
def inv_inputs(monkeypatch):
    """Shape and dtype of each matrix passed to ``np.linalg.inv`` while the test runs."""
    return _record_shapes(monkeypatch, "inv", read=lambda a: (np.shape(a), np.result_type(a)))
