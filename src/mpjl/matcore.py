"""Dense real matrix primitives.

Full and thin SVD with an explicit rank policy, the Moore-Penrose
inverse, and seeded random generators for test instances.  Everything
works on plain ``numpy.ndarray`` values of dtype float64; matrices are
2-D arrays.  Functions documented as taking a stack also take shape (...,
n, m), one matrix per slice.  Bit rule: a stack of T gives each slice the
bits of a stack of one, and a 2-D (or 0-d) call is a stack of one; so a
log, norm or matmul reads C-contiguous arrays (or their transposes), since
numpy may round a strided or reversed view on another path.

Rank policy: a singular value of an n x m matrix is retained when it
exceeds ``max(n, m) * eps * s[0]``, with eps the machine epsilon.
``_rank_info`` is the one place that cut is made (also for the pair blocks
that ``differential.pair_block_profile`` reads from the operator's factors
by Gram identities, S0 split off), and ``_pinv_from_svd``
the one place retained factors become a pseudoinverse.  A check that needs
both the rank and the pseudoinverse of X takes them from one SVD
(``pinv_rank``, ``svd_full``), never a second one.

Conditioning policy: ``ill_conditioned`` is the one test of whether a
square block can be inverted: ``s[-1] <= rtol * s[0]`` fails it, where a
cap c on the condition number is ``rtol = 1 / c``.  Callers raise their
own error.  A stack of blocks fails when any one of them would fail alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

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
    """Frobenius norm of each slice of a matrix or stack (..., n, m), shape (...): one dot of
    its n*m entries (``np.linalg.norm`` would square a temporary of the whole stack)."""
    f = np.ascontiguousarray(a, dtype=float)
    f = f.reshape(f.shape[:-2] + (1, -1))
    return np.sqrt(f @ f.swapaxes(-1, -2))[..., 0, 0]


def gram_qr(a) -> tuple[np.ndarray, np.ndarray]:
    """(R, log|R'R| = 2 sum log|r_ii|) of each full-rank slice of a matrix or stack, R from
    a QR of the slice (of its transpose when wide): R'R is its Gram matrix a'a (aa'), which
    is never formed, since that would square cond(a) (Higham 2002)."""
    a = as_stack(a)
    r = np.linalg.qr(a if a.shape[-1] <= a.shape[-2] else a.swapaxes(-1, -2), mode="r")
    return r, 2.0 * np.log(np.abs(np.diagonal(r, 0, -2, -1))).sum(axis=-1)


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
    # Eq.-level downstream formulas divide by squared-value gaps, so ties
    # among retained singular values are a hard error.
    if q >= 2 and np.min(s[:q - 1] - s[1:q]) < DISTINCT_GAP * s[0]:
        raise DegenerateSpectrum(f"retained singular values too close: {s[:q].tolist()}")
    return SvdFactors(u=u[:, :q].copy(), s=s[:q].copy(), v=vt[:q].T.copy()), info


def pinv_rank(x) -> tuple[np.ndarray, RankInfo]:
    """:func:`pinv` of ``x`` and its rank profile from one thin SVD (with vectors, so the
    singular values may differ in their last bits from :func:`rank_profile`'s)."""
    x = as_stack(x)
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    info = _rank_info(s, x.shape)
    return _pinv_from_svd(u, s, vt, common_rank(info)), info


def pinv(x) -> np.ndarray:
    """Moore-Penrose inverse via SVD with the relative rank cutoff.

    Ties among retained singular values are allowed here: the pseudoinverse
    is insensitive to them, unlike the measure-density formulas.  The
    slices of a stack must share one rank (see :func:`common_rank`).
    """
    return pinv_rank(x)[0]


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
# never share state.  ``make_rng`` seeds one stream through NumPy's own
# SeedSequence, the reference of ``make_rngs``, which seeds a trial stack's.

def make_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by ``seed`` and an optional path."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# uint32 words; each hash step xors a word with a running constant, then
# multiplies it by the constant's next power, so the constants of every step
# are known before the data.
_POOL = 4
_MASK32 = (1 << 32) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _powers(init: int, mult: int, count: int) -> list[int]:
    # init * mult^k mod 2^32 for k = 0..count.
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


@cache
def _hash_plan(words: int) -> tuple:
    """(xor, multiply) uint32 constants of each stacked step of the hash of ``words`` words.

    In order: the pool's first hash; one step per pool word, which hashes it
    three times to mix it into the other three words (its own column's
    constants are placeholders); one per entropy word beyond the pool; the
    output words, shape (2, 4).  Shared by every caller, so read-only.
    """
    a = np.array(_powers(_INIT_A, _MULT_A, _POOL * (_POOL + max(0, words - _POOL))), np.uint32)
    j = np.arange(_POOL)
    mixing = [_POOL + 3 * src + np.minimum(j - (j > src), 2) for src in range(_POOL)]
    extra = [k + j for k in range(_POOL * _POOL, len(a) - 1, _POOL)]
    b = np.array(_powers(_INIT_B, _MULT_B, 2 * _POOL), np.uint32)
    steps = [(a[i], a[i + 1]) for i in [j, *mixing, *extra]]
    steps.append((b[:-1].reshape(2, _POOL), b[1:].reshape(2, _POOL)))
    for pair in steps:
        for c in pair:
            c.flags.writeable = False
    return tuple(steps)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x
    r -= _MIX_R * y
    r ^= r >> 16
    return r


def _seed_words(n: int) -> list[int]:
    # SeedSequence's little-endian uint32 words of a non-negative integer (0 is one word).
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


class _SeedState(np.random.bit_generator.ISeedSequence):
    # One stream's PCG64 seed words, hashed by make_rngs.
    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds the 4 uint64 words that PCG64 asks for, nothing else")
        return self.words


def make_rngs(seed: int, trials, attempt: int = 0) -> list[np.random.Generator]:
    """Generators of the streams ``make_rng(seed, t, attempt)``, one per trial index t.

    The streams' entropy words differ only in t's, so NumPy's SeedSequence
    hash (``mix_entropy``, then ``generate_state(4, uint64)``) runs once over
    a (T, 4) pool; one trial is seeded by ``make_rng`` itself, which is faster
    alone.  Raises ValueError on a negative seed, attempt or trial, and on a
    trial index of 2^32 or more (it would take a second word).
    """
    trials = [int(t) for t in trials]
    if trials and not 0 <= min(trials) <= max(trials) <= _MASK32:
        raise ValueError(f"trial indices must lie in [0, 2^32), got {min(trials)}..{max(trials)}")
    if len(trials) == 1:
        return [make_rng(seed, trials[0], attempt)]
    head, tail = _seed_words(int(seed)), _seed_words(int(attempt))
    entropy = np.array([[*head, 0, *tail]], dtype=np.uint32).repeat(len(trials), axis=0)
    entropy[:, len(head)] = trials
    first, *mixing = _hash_plan(entropy.shape[1])
    extra, out = mixing[_POOL:-1], mixing[-1]
    pool = np.zeros((len(trials), _POOL), dtype=np.uint32)
    pool[:, :entropy.shape[1]] = entropy[:, :_POOL]
    with np.errstate(over="ignore"):
        pool = _hashmix(pool, *first)
        for src, consts in enumerate(mixing[:_POOL]):  # mix each word into the other three
            last = pool
            pool = _mix(last, _hashmix(last[:, src, None], *consts))
            pool[:, src] = last[:, src]
        for src, consts in enumerate(extra, _POOL):  # each word beyond the pool into all four
            pool = _mix(pool, _hashmix(entropy[:, src, None], *consts))
        state = _hashmix(pool[:, None, :], *out).reshape(len(trials), 2 * _POOL)
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_SeedState(w))) for w in words]


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


def sorted_spectra(values) -> np.ndarray:
    """Sampled values, one spectrum or a stack (..., q), sorted decreasing along the last axis.

    The result is C-contiguous.  Raises DegenerateSpectrum, naming the first
    tied spectrum and carrying the flat stack indices of every tied one, when
    two values of one differ by less than ``REQUEST_GAP`` relative to its
    largest; callers own the retry policy.
    """
    d = np.negative(values, dtype=float)  # sorted ascending, then negated back in place
    d.sort()
    np.negative(d, out=d)
    tied = d[..., :-1] - d[..., 1:] < REQUEST_GAP * d[..., :1]
    if tied.any():
        slices = np.flatnonzero(tied.reshape(-1, d.shape[-1] - 1).any(-1)).tolist()
        first = d.reshape(-1, d.shape[-1])[slices[0]]
        raise DegenerateSpectrum(f"sampled spectrum has tied values: {first.tolist()}", slices)
    return d


def sample_spectrum(q: int, rng: np.random.Generator) -> np.ndarray:
    """Draw q distinct singular values uniformly from ``SPECTRUM_RANGE``, sorted decreasing
    (see :func:`sorted_spectra`)."""
    return sorted_spectra(rng.uniform(*SPECTRUM_RANGE, size=q))


def _rows(rngs, size: int, fill) -> np.ndarray:
    # (T, size): row t holds the next ``size`` values that ``fill(rngs[t], out=row)`` writes.
    out = np.empty((len(rngs), size))
    for rng, row in zip(rngs, out):
        fill(rng, out=row)
    return out


def draw_spectra(rngs, q: int, spectrum=None) -> np.ndarray:
    """(T, q), one row per generator of ``rngs``: ``spectrum`` in every row, else the values
    of each one's ``uniform(*SPECTRUM_RANGE, size=q)``, unsorted: ``uniform`` is lo + (hi - lo)
    u of ``random``'s u, and hi - lo = 2 makes the product exact, fused or not."""
    if spectrum is not None:
        return np.broadcast_to(np.asarray(spectrum, dtype=float), (len(rngs), q))
    lo, hi = SPECTRUM_RANGE
    return lo + (hi - lo) * _rows(rngs, q, np.random.Generator.random)


def draw_rank_q(n: int, m: int, q: int, rngs, spectrum=None, *shapes):
    """Every generator call behind a stack of rank-q instances, one generator of ``rngs`` per
    instance, in each generator's order: ``(d, g_left, g_right, ...)``, each (T, ...).

    ``d`` holds the q singular values (:func:`draw_spectra`), unsorted; then come the n x q
    and m x q Gaussian blocks of the two frames and a block of each further shape, split
    from one ``standard_normal`` fill per generator (the values of one call per block).
    Nothing is checked: callers validate once, and sort (:func:`sorted_spectra`) the stack.
    """
    d = draw_spectra(rngs, q, spectrum)
    shapes = [(n, q), (m, q), *shapes]
    flat = _rows(rngs, sum([r * c for r, c in shapes]), np.random.Generator.standard_normal)
    blocks, start = [d], 0
    for r, c in shapes:
        blocks.append(flat[:, start:start + r * c].reshape(len(rngs), r, c))
        start += r * c
    return tuple(blocks)


def rank_q_from_draw(d: np.ndarray, g_left: np.ndarray, g_right: np.ndarray) -> np.ndarray:
    """``H1 @ diag(d) @ P1.T`` with H1, P1 the frames of the Gaussian blocks.

    Takes the stacked parts of :func:`draw_rank_q`, or one instance's.
    """
    frames = orthonormal_frames(g_left) * d[..., None, :]
    return frames @ orthonormal_frames(g_right).swapaxes(-1, -2)


def random_rank_q(n: int, m: int, q: int, rng: np.random.Generator, spectrum=None) -> np.ndarray:
    """Random n x m matrix with exact numerical rank q (see :func:`draw_rank_q`).

    ``spectrum``, when given, must pass :func:`validate_spectrum` and hold q
    values; a drawn one is sorted by :func:`sorted_spectra`, which raises
    DegenerateSpectrum when two of its values tie.
    """
    if not 1 <= q <= min(n, m):
        raise ValueError(f"need 1 <= q <= min(n, m), got q={q}, n={n}, m={m}")
    if spectrum is not None:
        spectrum = validate_spectrum(spectrum)
        if spectrum.size != q:
            raise BadSpectrum(f"spectrum has {spectrum.size} values, expected q={q}")
    d, g_left, g_right = draw_rank_q(n, m, q, [rng], spectrum)
    return rank_q_from_draw(sorted_spectra(d), g_left, g_right)[0]


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
