"""Dense real matrix primitives.

Full and thin SVD with an explicit rank policy, the Moore-Penrose
inverse, and seeded random generators for test instances.  Everything
works on plain ``numpy.ndarray`` values of dtype float64; matrices are
2-D arrays.  Functions documented as taking a stack also take shape (...,
n, m), one matrix per slice, each slice getting the bits of the 2-D call.
Numpy rounds Frobenius norms and scalar powers differently on a stack, so
``frobenius_norms`` and ``scalar_powers`` take them slice by slice.

Rank policy: a singular value of an n x m matrix is retained when it
exceeds ``max(n, m) * eps * s[0]``, with eps the machine epsilon.
``_rank_info`` is the one place that cut is made (also for the operator
blocks of ``differential.subspace_rank_profile``), and ``_pinv_from_svd``
the one place retained factors become a pseudoinverse.

Conditioning policy: ``ill_conditioned`` is the one test of whether a
square block can be inverted: ``s[-1] <= rtol * s[0]`` fails it, where a
cap c on the condition number is ``rtol = 1 / c``.  Callers raise their
own error.  A stack of blocks fails when any one of them would fail alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadSpectrum, DegenerateSpectrum, RankMismatch, ShapeMismatch

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


def as_stack(a) -> np.ndarray:
    """Validate and coerce input to a finite float64 matrix or stack (..., n, m)."""
    m = np.asarray(a, dtype=float)
    if m.ndim < 2:
        raise ShapeMismatch(f"expected a matrix or a stack of matrices, got ndim={m.ndim}")
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
    values strictly above it.  Of a stack, both are arrays over the stack.
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


def frobenius_norms(a) -> np.ndarray:
    """Frobenius norm of each slice of a matrix or stack (..., n, m): shape (...)."""
    a = np.asarray(a)
    return np.array([np.linalg.norm(a[i]) for i in np.ndindex(a.shape[:-2])]).reshape(a.shape[:-2])


def scalar_powers(a, power) -> np.ndarray:
    """``a ** power`` of each entry as a scalar power; a 0-d ``a`` gives a scalar."""
    a = np.asarray(a)
    return np.array([v**power for v in a.ravel()]).reshape(a.shape)[()]


def _rank_info(s: np.ndarray, shape: tuple[int, ...]) -> RankInfo:
    cut = max(shape[-2:]) * np.finfo(float).eps * s[..., :1]
    rank = (s > cut).sum(axis=-1)
    if s.ndim == 1:  # one matrix: plain Python scalars, as JSON output needs
        return RankInfo(rank=int(rank), tolerance_used=float(cut[0]), singular_values=s)
    return RankInfo(rank=rank, tolerance_used=cut[..., 0], singular_values=s)


def common_rank(info: RankInfo) -> int:
    """The rank every slice of ``info`` shares; RankMismatch when they differ."""
    ranks = set(info.rank.tolist()) if isinstance(info.rank, np.ndarray) else {info.rank}
    if len(ranks) != 1:
        raise RankMismatch(f"slices of the stack differ in rank: {sorted(ranks)}")
    return ranks.pop()


def _pinv_from_svd(u: np.ndarray, s: np.ndarray, vt: np.ndarray, q: int) -> np.ndarray:
    # Factors of one matrix or of a stack, as np.linalg.svd returns them.
    return (vt[..., :q, :].swapaxes(-1, -2) / s[..., None, :q]) @ u[..., :q].swapaxes(-1, -2)


def rank_profile(x) -> RankInfo:
    """Numerical rank of ``x``, one matrix or a stack, under the relative tolerance policy."""
    x = as_stack(x)
    return _rank_info(np.linalg.svd(x, compute_uv=False), x.shape)


def _check_distinct(s: np.ndarray) -> None:
    # Eq.-level downstream formulas divide by squared-value gaps, so ties
    # among retained singular values are a hard error.
    if s.size >= 2 and np.min(s[:-1] - s[1:]) < DISTINCT_GAP * s[0]:
        raise DegenerateSpectrum(
            f"retained singular values too close: {s.tolist()}"
        )


def svd_full(x) -> tuple[np.ndarray, RankInfo, np.ndarray, np.ndarray]:
    """One full SVD of a matrix or stack: orthogonal ``u`` (n x n) and ``vt`` (m x m), the
    rank profile, and the pseudoinverse from the retained triplets (one rank per stack)."""
    x = as_stack(x)
    u, s, vt = np.linalg.svd(x)
    info = _rank_info(s, x.shape)
    return u, info, vt, _pinv_from_svd(u, s, vt, common_rank(info))


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
    is insensitive to them, unlike the measure-density formulas.  The
    slices of a stack must share one rank (see :func:`common_rank`).
    """
    x = as_stack(x)
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    return _pinv_from_svd(u, s, vt, common_rank(_rank_info(s, x.shape)))


def ill_conditioned(a, rtol: float) -> np.ndarray | None:
    """Singular values of the square matrix ``a`` when ``s[-1] <= rtol * s[0]``, else None.

    ``a`` may be a stack (..., q, q), factored in one stacked SVD: the stack fails when
    any slice fails, and then all its singular values, of shape (..., q), are returned.
    """
    s = np.linalg.svd(a, compute_uv=False)
    return s if s.size and np.any(s[..., -1] <= rtol * s[..., 0]) else None


# ---------------------------------------------------------------------------
# Seeded randomness.  All randomness flows through explicit generators; a
# (seed, *path) pair addresses one reproducible stream, so concurrent trials
# never share state.

def make_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by ``seed`` and an optional path."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def orthonormal_frames(g: np.ndarray) -> np.ndarray:
    """Orthonormal frames of Gaussian blocks, one n x q block or a stack (..., n, q).

    One (stacked) QR; the R diagonal is made positive, so each frame is a
    unique function of its block.
    """
    qmat, r = np.linalg.qr(g)
    return qmat * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def random_stiefel(n: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-style random n x q frame with orthonormal columns (see :func:`orthonormal_frames`)."""
    if not 1 <= q <= n:
        raise ValueError(f"need 1 <= q <= n, got q={q}, n={n}")
    return orthonormal_frames(rng.standard_normal((n, q)))


def check_spectrum(d) -> np.ndarray:
    """Check a spectrum: nonempty, 1-D, positive, finite, strictly decreasing.

    A stack (..., q) of spectra is checked along its last axis.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim == 0 or d.size == 0:
        raise BadSpectrum("spectrum must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(d)) or np.any(d <= 0):
        raise BadSpectrum(f"spectrum must be positive and finite: {d.tolist()}")
    if np.any(d[..., :-1] - d[..., 1:] <= 0):
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


def draw_rank_q(n: int, m: int, q: int, rng: np.random.Generator, spectrum=None):
    """Every generator call behind one rank-q instance, in order: ``(d, g_left, g_right)``.

    ``d`` holds the q singular values, ``spectrum`` or else q distinct
    values from :func:`sample_spectrum`; then come the n x q and m x q
    Gaussian blocks of the two frames.
    """
    if not 1 <= q <= min(n, m):
        raise ValueError(f"need 1 <= q <= min(n, m), got q={q}, n={n}, m={m}")
    if spectrum is not None:
        spectrum = validate_spectrum(spectrum)
        if spectrum.size != q:
            raise BadSpectrum(f"spectrum has {spectrum.size} values, expected q={q}")
    return _draw_rank_q(n, m, q, rng, spectrum)


def _draw_rank_q(n: int, m: int, q: int, rng: np.random.Generator, spectrum) -> tuple:
    # draw_rank_q of a spectrum that is validated already, or None.
    d = sample_spectrum(q, rng) if spectrum is None else spectrum
    return d, rng.standard_normal((n, q)), rng.standard_normal((m, q))


def rank_q_from_draw(d: np.ndarray, g_left: np.ndarray, g_right: np.ndarray) -> np.ndarray:
    """``H1 @ diag(d) @ P1.T`` with H1, P1 the frames of the Gaussian blocks.

    Takes the parts of :func:`draw_rank_q`, or stacks of them.
    """
    frames = orthonormal_frames(g_left) * d[..., None, :]
    return frames @ orthonormal_frames(g_right).swapaxes(-1, -2)


def random_rank_q(n: int, m: int, q: int, rng: np.random.Generator, spectrum=None) -> np.ndarray:
    """Random n x m matrix with exact numerical rank q (see :func:`draw_rank_q`)."""
    return rank_q_from_draw(*draw_rank_q(n, m, q, rng, spectrum))


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
