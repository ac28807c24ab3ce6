"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of the matrices passed to ``np.linalg.svd`` while the test runs."""
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes
