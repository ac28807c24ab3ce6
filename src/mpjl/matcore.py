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
by Gram identities, S0 split off), ``require_rank`` the one place a rank
is required (RankMismatch), and ``_pinv_from_svd`` the one place retained
factors become a pseudoinverse.  A check that needs both the rank and the
pseudoinverse of X takes them from one SVD, thin or full (``svd_pinv``),
never a second one.

QR: ``gram_qr`` and ``orthonormal_frames`` run numpy's stacked kernels
``qr_r_raw`` (LAPACK geqrf) and ``qr_reduced`` (orgqr), the two of
``np.linalg.qr(mode="reduced")``, their reference in ``tests/helpers.py``.
The kernels clear the floating-point flags they raise; no errstate is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.linalg._umath_linalg import qr_r_raw, qr_reduced

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
    values strictly above it.  Both are arrays over the stack, 0-d for one matrix.
    """

    rank: np.ndarray
    tolerance_used: np.ndarray
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
    its n*m entries scaled by 2^-e, e the exponent of the slice's largest, and of the norm
    scaled back by 2^e: both exact, so no square overflows or underflows (Higham 2002)."""
    f = np.ascontiguousarray(a, dtype=float)
    f = f.reshape(f.shape[:-2] + (1, -1))
    e = np.frexp(np.abs(f).max(axis=-1, keepdims=True))[1]
    f = np.ldexp(f, -e)
    return np.ldexp(np.sqrt(f @ f.swapaxes(-1, -2)), e)[..., 0, 0]


def gram_qr(a) -> tuple[np.ndarray, np.ndarray]:
    """(R, log|R'R| = 2 sum log|r_ii|) of each full-rank slice of a matrix or stack, R from
    a QR of the slice (of its transpose when wide): R'R is its Gram matrix a'a (aa'), which
    is never formed, since that would square cond(a) (Higham 2002)."""
    a = as_stack(a)
    raw = np.array(a if a.shape[-1] <= a.shape[-2] else a.swapaxes(-1, -2))  # tall or square
    qr_r_raw(raw)  # R on and above the diagonal of the raw factor, reflectors below it
    k = raw.shape[-1]
    r = np.where(_strictly_lower(k), 0.0, raw[..., :k, :])  # np.triu, its mask cached
    return r, 2.0 * np.log(np.abs(np.diagonal(r, 0, -2, -1))).sum(axis=-1)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    # The arrays a cached function returns, made read-only: every caller shares them.
    for a in arrays:
        a.flags.writeable = False
    return arrays


@cache
def _strictly_lower(k: int) -> np.ndarray:
    # The mask np.triu zeroes in a k x k matrix.
    return _read_only(np.tri(k, k, -1, dtype=bool))[0]


def _rank_info(s: np.ndarray, shape: tuple[int, ...]) -> RankInfo:
    cut = max(shape[-2:]) * np.finfo(float).eps * s[..., :1]
    return RankInfo(rank=(s > cut).sum(axis=-1), tolerance_used=cut[..., 0], singular_values=s)


def common_rank(info: RankInfo) -> int:
    """The rank every slice of ``info`` shares; RankMismatch when they differ."""
    ranks = set(info.rank.reshape(-1).tolist())
    if len(ranks) != 1:
        raise RankMismatch(f"slices of the stack differ in rank: {sorted(ranks)}")
    return ranks.pop()


def require_rank(info: RankInfo, q: int) -> None:
    """RankMismatch unless every slice of ``info`` has numerical rank q."""
    rank = common_rank(info)
    if rank != q:
        raise RankMismatch(f"numerical rank {rank} != requested q={q}")


def _pinv_from_svd(u: np.ndarray, s: np.ndarray, vt: np.ndarray, q: int) -> np.ndarray:
    # Factors of one matrix or of a stack, as np.linalg.svd returns them.
    return (vt[..., :q, :].swapaxes(-1, -2) / s[..., None, :q]) @ u[..., :q].swapaxes(-1, -2)


def rank_profile(x) -> RankInfo:
    """Numerical rank of ``x``, one matrix or a stack, under the relative tolerance policy."""
    x = as_stack(x)
    return _rank_info(np.linalg.svd(x, compute_uv=False), x.shape)


def svd_pinv(x, q: int | None = None, *, full_matrices: bool = False) -> tuple:
    """``(u, info, vt, y)`` of one SVD of a matrix or stack: factors ``u``, ``vt``, thin or (with
    ``full_matrices``) orthogonal, the rank profile (with ``q``, RankMismatch unless every slice
    has rank q), and the pseudoinverse from the retained triplets, one rank per stack.  Taken
    with vectors, the singular values may differ in their last bits from :func:`rank_profile`'s."""
    x = as_stack(x)
    u, s, vt = np.linalg.svd(x, full_matrices=full_matrices)
    info = _rank_info(s, x.shape)
    if q is not None:
        require_rank(info, q)
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


def pinv(x) -> np.ndarray:
    """Moore-Penrose inverse via SVD with the relative rank cutoff.

    Ties among retained singular values are allowed here: the pseudoinverse
    is insensitive to them, unlike the measure-density formulas.  The
    slices of a stack must share one rank (see :func:`common_rank`).
    """
    return svd_pinv(x)[3]


# ---------------------------------------------------------------------------
# Seeded randomness.  All randomness flows through explicit generators; a
# (seed, *path) pair addresses one reproducible stream, so concurrent trials
# never share state.  ``make_rng`` seeds one stream through NumPy's own
# SeedSequence, the reference of ``make_rngs``, which seeds a trial stack's.

def make_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by ``seed`` and an optional path."""
    words = [w for v in (seed, *path) for w in _seed_words(int(v))]  # SeedSequence's own words
    return np.random.default_rng(np.random.SeedSequence(np.array(words, np.uint32)))


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
    output words, shape (2, 4).
    """
    a = np.array(_powers(_INIT_A, _MULT_A, _POOL * (_POOL + max(0, words - _POOL))), np.uint32)
    j = np.arange(_POOL)
    mixing = [_POOL + 3 * src + np.minimum(j - (j > src), 2) for src in range(_POOL)]
    extra = [k + j for k in range(_POOL * _POOL, len(a) - 1, _POOL)]
    b = np.array(_powers(_INIT_B, _MULT_B, 2 * _POOL), np.uint32)
    steps = [(a[i], a[i + 1]) for i in [j, *mixing, *extra]]
    steps.append((b[:-1].reshape(2, _POOL), b[1:].reshape(2, _POOL)))
    _read_only(*[c for pair in steps for c in pair])
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
    a (T, 4) pool; below 5 trials ``make_rng`` seeds each, which is faster
    there.  Raises ValueError on a negative seed, attempt or trial, and on a
    trial index of 2^32 or more (it would take a second word).
    """
    trials = [int(t) for t in trials]
    if trials and not 0 <= min(trials) <= max(trials) <= _MASK32:
        raise ValueError(f"trial indices must lie in [0, 2^32), got {min(trials)}..{max(trials)}")
    if len(trials) < 5:
        return [make_rng(seed, t, attempt) for t in trials]
    head, tail = _seed_words(int(seed)), _seed_words(int(attempt))
    pad = [0] * (_POOL - 1 - len(head) - len(tail))  # a short pool's missing words hash as 0
    entropy = np.array([[*head, 0, *tail, *pad]], dtype=np.uint32).repeat(len(trials), axis=0)
    entropy[:, len(head)] = trials
    first, *mixing = _hash_plan(entropy.shape[1])
    extra, out = mixing[_POOL:-1], mixing[-1]
    pool = _hashmix(entropy[:, :_POOL], *first)  # uint32 arrays wrap silently
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
    raw = np.array(g, dtype=float)
    q = qr_reduced(raw, qr_r_raw(raw))  # qr_r_raw overwrites raw with the raw factor
    return q * np.sign(np.diagonal(raw, axis1=-2, axis2=-1))[..., None, :]


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


def validate_spectrum(d, q: int) -> np.ndarray:
    """Check a requested spectrum of q values: :func:`check_spectrum`, the request gap, then
    the count."""
    d = check_spectrum(d)
    if d.size >= 2 and np.min(d[:-1] - d[1:]) < REQUEST_GAP * d[0]:
        raise BadSpectrum(f"relative spectrum gaps must be >= {REQUEST_GAP}: {d.tolist()}")
    if d.size != q:
        raise BadSpectrum(f"spectrum has {d.size} values but q={q}")
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
