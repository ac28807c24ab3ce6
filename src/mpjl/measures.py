"""The paper's scalar measure-density factors, as formulas.

Three families of scalars around the map Y = pinv(X), each computed and
returned as its log, since they grow like a power of the size and leave
the float range at moderate sizes:

* the spectral density ``2^-q (prod D)^(n+m-2q) prod_{i<j} (D_i^2 - D_j^2)``
  that multiplies the frame and spectrum differentials of a rank-q matrix;
* the rank-deficient change-of-variables factor ``prod D_i^(-2(n+m-q))``;
* the symmetric-inverse Jacobian ``|S|^-(m+1)`` for S -> inv(S), with its
  forward-mode oracle on half-vectorized coordinates.

The density and factor take a spectrum or a stack (..., q) of them; the
symmetric-inverse pair takes plain arrays, one matrix or a stack, that
``symmetric_part`` makes exactly symmetric.  No function here judges a
result: the checks that hold these formulas against each other and against
their oracles live in ``suites``.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import BadSpectrum, ShapeMismatch
from .matcore import as_stack, check_spectrum, rank_profile, require_rank


def _spectra(n: int, m: int, d) -> np.ndarray:
    # A spectrum, or a stack (..., q) of them, checked; q <= min(n, m).
    d = check_spectrum(d)
    if d.shape[-1] > min(n, m):
        raise BadSpectrum(f"q={d.shape[-1]} exceeds min(n, m)={min(n, m)}")
    return d


@cache
def _triu(q: int, offset: int) -> tuple[np.ndarray, np.ndarray]:
    # Indices (i, j), i + offset <= j < q, row-major: the pairs i < j of a spectrum at
    # offset 1, the half-vectorized coordinates at 0; shared by every caller, so read-only.
    pairs = np.triu_indices(q, offset)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def log_hausdorff_density(n: int, m: int, d):
    """log of the spectral density 2^-q (prod D)^(n+m-2q) prod_{i<j}(D_i^2 - D_j^2), one per
    spectrum of a stack (..., q); each D_i^2 - D_j^2 as (D_i - D_j)(D_i + D_j), both exact to
    rounding."""
    d = _spectra(n, m, d)
    q = d.shape[-1]
    # ``take`` keeps the pairs contiguous, so a stack sums each row as one spectrum would.
    di, dj = (np.take(d, k, axis=-1) for k in _triu(q, 1))
    pairs = np.log(di - dj) + np.log(di + dj)
    return -q * np.log(2.0) + (n + m - 2 * q) * np.log(d).sum(axis=-1) + pairs.sum(axis=-1)


def log_nonfullrank_jacobian_factor(n: int, m: int, d):
    """log of the change-of-variables factor prod_i D_i^(-2(n+m-q)) of Y = pinv(X), one per
    spectrum of a stack (..., q)."""
    return _log_factor(n, m, _spectra(n, m, d))


def _log_factor(n: int, m: int, d: np.ndarray):
    # The factor, unchecked, of a C-contiguous spectrum or stack (matcore's bit rule): the
    # checks read it from X's retained singular values, whose rank they have required.
    return -2.0 * (n + m - d.shape[-1]) * np.log(d).sum(axis=-1)


# ---------------------------------------------------------------------------
# Symmetric matrices and the inverse-map Jacobian.

def symmetric_part(s) -> np.ndarray:
    """The exactly symmetric 0.5 * (S + S') of a symmetric matrix or stack (..., m, m).

    Raises ShapeMismatch when S is not square, or when a slice deviates from
    symmetry by more than 1e-12 relative to its largest entry (or to 1).
    """
    s = as_stack(s)
    if s.shape[-1] != s.shape[-2]:
        raise ShapeMismatch(f"expected square matrix, got {s.shape}")
    st = s.swapaxes(-1, -2)
    scale = np.maximum(np.max(np.abs(s), axis=(-2, -1)), 1.0)
    if np.any(np.max(np.abs(s - st), axis=(-2, -1)) > 1e-12 * scale):
        raise ShapeMismatch("matrix is not symmetric")
    return 0.5 * (s + st)


def log_symmetric_inverse_jacobian(s):
    """-(m+1) log|det S|: the log half-vectorization Jacobian of S -> inv(S).

    ``s`` is one symmetric m x m matrix or a stack of them, taken through
    :func:`symmetric_part`; RankMismatch unless every slice has numerical rank m
    (``matcore.require_rank``).
    """
    s = symmetric_part(s)
    m = s.shape[-1]
    require_rank(rank_profile(s), m)
    return -(m + 1) * np.linalg.slogdet(s)[1]


def symmetric_inverse_fd_det(s):
    """Forward-mode oracle: log|det| of the inverse map on half-vectorized coordinates.

    ``s`` is one symmetric matrix or a stack, taken through :func:`symmetric_part`.
    Coordinate (i, j), i <= j, moves S[i, j] and S[j, i] (one entry when i = j).  With
    P = inv(S), d inv(S) = -P dS P: the k x k Jacobian, k = m(m+1)/2, holds -(P[a, i] P[j, b]
    + P[a, j] P[i, b]) at row (a, b), column (i, j), halved when i = j, gathered from P
    without the sign, which log|det| drops.
    """
    p = np.linalg.inv(symmetric_part(s))
    rows, cols = _triu(p.shape[-1], 0)
    a, b = rows[:, None], cols[:, None]
    jac = p[..., a, rows] * p[..., cols, b] + p[..., a, cols] * p[..., rows, b]
    jac[..., rows == cols] *= 0.5
    return np.linalg.slogdet(jac)[1]
