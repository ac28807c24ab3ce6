"""The paper's scalar measure-density factors, as formulas.

Three families of scalars around the map Y = pinv(X), each computed and
returned as its log, since they grow like a power of the size and leave
the float range at moderate sizes:

* the spectral density ``2^-q (prod D)^(n+m-2q) prod_{i<j} (D_i^2 - D_j^2)``
  that multiplies the frame and spectrum differentials of a rank-q matrix;
* the rank-deficient change-of-variables factor ``prod D_i^(-2(n+m-q))``;
* the symmetric-inverse Jacobian ``|S|^-(m+1)`` for S -> inv(S), with its
  complex-step oracle on half-vectorized coordinates.

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
def _pairs(q: int) -> tuple[np.ndarray, np.ndarray]:
    # Indices (i, j) of the pairs i < j of a spectrum of q values, row-major;
    # shared by every caller, so read-only.
    pairs = np.triu_indices(q, 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def pinv_spectrum(d) -> np.ndarray:
    """Singular values of the pseudoinverse: reciprocals in decreasing order.

    Of a stack (..., q) of spectra, one row per spectrum.
    """
    d = check_spectrum(d)
    return 1.0 / d[..., ::-1]


def log_hausdorff_density(n: int, m: int, d):
    """log of the spectral density 2^-q (prod D)^(n+m-2q) prod_{i<j}(D_i^2 - D_j^2), one per
    spectrum of a stack (..., q); each D_i^2 - D_j^2 as (D_i - D_j)(D_i + D_j), both exact to
    rounding."""
    d = _spectra(n, m, d)
    q = d.shape[-1]
    # ``take`` keeps the pairs contiguous, so a stack sums each row as one spectrum would.
    di, dj = (np.take(d, k, axis=-1) for k in _pairs(q))
    pairs = np.log(di - dj) + np.log(di + dj)
    return -q * np.log(2.0) + (n + m - 2 * q) * np.log(d).sum(axis=-1) + pairs.sum(axis=-1)


def log_nonfullrank_jacobian_factor(n: int, m: int, d):
    """log of the change-of-variables factor prod_i D_i^(-2(n+m-q)) of Y = pinv(X), one per
    spectrum of a stack (..., q)."""
    d = _spectra(n, m, d)
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


def vech(s: np.ndarray) -> np.ndarray:
    """Half-vectorization: the m(m+1)/2 upper-triangle entries, row-major.

    A stack of shape (..., m, m) gives shape (..., m(m+1)/2).
    """
    rows, cols = np.triu_indices(s.shape[-1])
    return s[..., rows, cols]


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
    """Complex-step oracle: log|det| of the inverse map on half-vectorized coordinates.

    ``s`` is one symmetric matrix or a stack, taken through
    :func:`symmetric_part`.  Coordinate (i, j) with i < j moves both
    mirrored entries; diagonal coordinates move one entry.  The m(m+1)/2
    points S + i h E, h = 1e-20 max|S| per slice, form one stack and one
    stacked inversion: inv is analytic, so vech(Im inv / h) is each column
    of the Jacobian to rounding error (plain transposes, no conjugation).
    """
    s = symmetric_part(s)
    m = s.shape[-1]
    h = 1e-20 * np.max(np.abs(s), axis=(-2, -1))[..., None, None, None]
    rows, cols = np.triu_indices(m)
    coords = np.arange(rows.size)
    e = np.zeros((rows.size, m, m))
    e[coords, rows, cols] = 1.0
    e[coords, cols, rows] = 1.0
    jac = vech(np.linalg.inv(s[..., None, :, :] + 1j * h * e).imag / h).swapaxes(-1, -2)
    return np.linalg.slogdet(jac)[1]
