"""Dense real matrix primitives.

Column-stacking vectorization, thin SVD with an explicit rank policy,
the Moore-Penrose inverse, and seeded random generators for test
instances.  Everything works on plain ``numpy.ndarray`` values of dtype
float64; matrices are 2-D arrays.

Rank policy: a singular value of an n x m matrix is retained when it
exceeds ``max(n, m) * eps * s[0]``, with eps the machine epsilon.
``_rank_info`` is the one place that cut is made (``rank_profile``,
``svd_thin`` and ``pinv`` all go through it), and ``_pinv_from_svd`` the
one place retained factors become a pseudoinverse (``pinv`` and
``pinv_fixed_rank``).

Conditioning policy: ``ill_conditioned`` is the one test of whether a
square block can be inverted.  Callers pick its threshold and comparison
(a condition-number cap, or a floor on the smallest singular value
relative to the largest) and raise their own error.  The policy holds per
slice: a stack of blocks fails when any one of them would fail alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadSpectrum, DegenerateSpectrum, ShapeMismatch

# Relative gap below which retained singular values count as tied.
DISTINCT_GAP = 1e-10
# Relative gap required of requested spectra (instance generation).
REQUEST_GAP = 1e-6
# Range of singular values drawn when no spectrum is requested.
SPECTRUM_RANGE = (0.5, 2.5)


def as_matrix(a) -> np.ndarray:
    """Validate and coerce input to a finite 2-D float64 array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D array, got ndim={m.ndim}")
    return _finite(m)


def _finite(m: np.ndarray) -> np.ndarray:
    if m.size == 0:
        raise ShapeMismatch("matrix must have rows*cols > 0")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class RankInfo:
    """Outcome of a numerical rank determination.

    ``tolerance_used`` is the absolute cutoff; ``rank`` counts singular
    values strictly above it.
    """

    rank: int
    tolerance_used: float
    singular_values: np.ndarray


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``X = u @ diag(s) @ v.T`` keeping the retained triplets.

    ``u`` is n x q and ``v`` is m x q, both with orthonormal columns;
    ``s`` holds the q retained singular values, strictly decreasing.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def vec(a) -> np.ndarray:
    """Column-stacking vectorization: entry (i, j) lands at position j*n + i."""
    return as_matrix(a).reshape(-1, order="F")


def _rank_info(s: np.ndarray, shape: tuple[int, int]) -> RankInfo:
    cut = max(shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    return RankInfo(rank=int(np.sum(s > cut)), tolerance_used=float(cut), singular_values=s)


def _pinv_from_svd(u: np.ndarray, s: np.ndarray, vt: np.ndarray, q: int) -> np.ndarray:
    # Factors of one matrix or of a stack, as np.linalg.svd returns them.
    return (vt[..., :q, :].swapaxes(-1, -2) / s[..., None, :q]) @ u[..., :q].swapaxes(-1, -2)


def rank_profile(x) -> RankInfo:
    """Numerical rank of ``x`` under the relative tolerance policy."""
    x = as_matrix(x)
    return _rank_info(np.linalg.svd(x, compute_uv=False), x.shape)


def _check_distinct(s: np.ndarray) -> None:
    # Eq.-level downstream formulas divide by squared-value gaps, so ties
    # among retained singular values are a hard error.
    if s.size >= 2 and np.min(s[:-1] - s[1:]) < DISTINCT_GAP * s[0]:
        raise DegenerateSpectrum(
            f"retained singular values too close: {s.tolist()}"
        )


def svd_thin(x) -> tuple[SvdFactors, RankInfo]:
    """Thin SVD retaining the numerically nonzero triplets.

    Raises DegenerateSpectrum when two retained singular values differ by
    less than ``DISTINCT_GAP`` relative to the largest one.
    """
    x = as_matrix(x)
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    info = _rank_info(s, x.shape)
    q = info.rank
    _check_distinct(s[:q])
    return SvdFactors(u=u[:, :q].copy(), s=s[:q].copy(), v=vt[:q].T.copy()), info


def pinv(x) -> np.ndarray:
    """Moore-Penrose inverse via SVD with the relative rank cutoff.

    Ties among retained singular values are allowed here: the pseudoinverse
    is insensitive to them, unlike the measure-density formulas.
    """
    x = as_matrix(x)
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    return _pinv_from_svd(u, s, vt, _rank_info(s, x.shape).rank)


def pinv_fixed_rank(x, q: int) -> np.ndarray:
    """Pseudoinverse truncated to exactly the q leading singular triplets.

    Used by finite-difference oracles that must pin the rank of nearby
    evaluation points to the rank of the base point.  ``x`` is one n x m
    matrix or a stack of shape (..., n, m); a stack is factored in one
    stacked SVD and gives the (..., m, n) stack of pseudoinverses.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        raise ShapeMismatch(f"expected a matrix or a stack of matrices, got ndim={x.ndim}")
    x = _finite(x)
    if q < 0 or q > min(x.shape[-2:]):
        raise ValueError(f"q={q} out of range for shape {x.shape}")
    return _pinv_from_svd(*np.linalg.svd(x, full_matrices=False), q)


def ill_conditioned(
    a, max_cond: float | None = None, rtol: float | None = None
) -> np.ndarray | None:
    """Singular values of the square matrix ``a`` when it cannot be inverted, else None.

    Pass one of the two tests: ``max_cond`` fails ``a`` when ``s[0] / s[-1]``
    exceeds it (or ``s[-1]`` is zero); ``rtol`` fails ``a`` when ``s[-1]``
    is at or below ``rtol * s[0]``.  ``a`` may be a stack of shape
    (..., q, q), factored in one stacked SVD: the stack fails when any
    slice fails, and then all its singular values, of shape (..., q), are
    returned.
    """
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0:
        return None
    first, last = s[..., 0], s[..., -1]
    if max_cond is not None:
        # A zero s[-1] fails on the first test; its quotient is not used.
        with np.errstate(divide="ignore", invalid="ignore"):
            bad = (last <= 0) | (first / last > max_cond)
    else:
        bad = last <= first * rtol
    return s if np.any(bad) else None


# ---------------------------------------------------------------------------
# Seeded randomness.  All randomness flows through explicit generators; a
# (seed, *path) pair addresses one reproducible stream, so concurrent trials
# never share state.

def make_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by ``seed`` and an optional path."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def random_stiefel(n: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-style random n x q frame with orthonormal columns.

    Orthonormalizes a standard Gaussian matrix by QR and forces the R
    diagonal positive so the frame is a unique function of the draw.
    """
    if not 1 <= q <= n:
        raise ValueError(f"need 1 <= q <= n, got q={q}, n={n}")
    g = rng.standard_normal((n, q))
    qmat, r = np.linalg.qr(g)
    return qmat * np.sign(np.diag(r))


def check_spectrum(d) -> np.ndarray:
    """Check a spectrum: nonempty, 1-D, positive, finite, strictly decreasing."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise BadSpectrum("spectrum must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(d)) or np.any(d <= 0):
        raise BadSpectrum(f"spectrum must be positive and finite: {d.tolist()}")
    if d.size >= 2 and np.any(d[:-1] - d[1:] <= 0):
        raise BadSpectrum(f"spectrum must be strictly decreasing: {d.tolist()}")
    return d


def validate_spectrum(d) -> np.ndarray:
    """Check a requested spectrum: :func:`check_spectrum` plus the request gap."""
    d = check_spectrum(d)
    if d.size >= 2 and np.min(d[:-1] - d[1:]) < REQUEST_GAP * d[0]:
        raise BadSpectrum(
            f"relative spectrum gaps must be >= {REQUEST_GAP}: {d.tolist()}"
        )
    return d


def sample_spectrum(q: int, rng: np.random.Generator) -> np.ndarray:
    """Draw q distinct singular values uniformly from ``SPECTRUM_RANGE``, sorted decreasing.

    Raises DegenerateSpectrum when the draw violates the gap requirement;
    callers own the retry policy.
    """
    d = np.sort(rng.uniform(*SPECTRUM_RANGE, size=q))[::-1]
    if q >= 2 and np.min(d[:-1] - d[1:]) < REQUEST_GAP * d[0]:
        raise DegenerateSpectrum(f"sampled spectrum has tied values: {d.tolist()}")
    return d


def random_rank_q(n: int, m: int, q: int, rng: np.random.Generator, spectrum=None) -> np.ndarray:
    """Random n x m matrix with exact numerical rank q.

    Built as ``H1 @ diag(D) @ P1.T`` with independent random orthonormal
    frames, so the singular values equal the requested spectrum.  When
    ``spectrum`` is omitted, q distinct values are drawn by
    :func:`sample_spectrum`.
    """
    if not 1 <= q <= min(n, m):
        raise ValueError(f"need 1 <= q <= min(n, m), got q={q}, n={n}, m={m}")
    if spectrum is None:
        d = sample_spectrum(q, rng)
    else:
        d = validate_spectrum(spectrum)
        if d.size != q:
            raise BadSpectrum(f"spectrum has {d.size} values, expected q={q}")
    h1 = random_stiefel(n, q, rng)
    p1 = random_stiefel(m, q, rng)
    return (h1 * d) @ p1.T


# ---------------------------------------------------------------------------
# JSON wire format.  {rows, cols, data: [row-major floats]}; Python's float
# repr is shortest-roundtrip, so binary64 values survive a JSON round trip
# exactly.

def matrix_to_json(a) -> dict:
    a = as_matrix(a)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "data": [float(x) for x in a.reshape(-1, order="C")],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = np.asarray(obj["data"], dtype=float)
    if data.size != rows * cols:
        raise ShapeMismatch(
            f"data length {data.size} does not match {rows}x{cols}"
        )
    return as_matrix(data.reshape((rows, cols), order="C"))
