"""Test oracles and fixture builders that the library itself does not need."""

import math

import numpy as np

from mpjl import suites
from mpjl.chart import BlockDecomposition, _delta_blocks, _unpermute, pinv_from_blocks
from mpjl.errors import ShapeMismatch
from mpjl.matcore import (
    RankInfo, as_matrix, as_stack, common_rank, draw_rank_q, orthonormal_frames, pinv,
    rank_profile, rank_q_from_draw, sorted_spectra, validate_spectrum,
)
from mpjl.measures import symmetric_part


def check(suite: str, draws: tuple, **config):
    """The reports of ``suite``'s check on stacked draws, the parts its draw returns, each
    with a leading trial axis, under ``RunConfig(**config)``: what ``run_suite`` does with
    one stack, minus drawing and stamping."""
    return suites._SUITES[suite][1](suites.RunConfig(**config), draws)


def random_stiefel(n: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-style random n x q frame with orthonormal columns (see ``orthonormal_frames``)."""
    if not 1 <= q <= n:
        raise ValueError(f"need 1 <= q <= n, got q={q}, n={n}")
    return orthonormal_frames(rng.standard_normal((n, q)))


def qr_frames(g) -> np.ndarray:
    """``matcore.orthonormal_frames`` as ``np.linalg.qr`` gives it: the reference of the QR
    kernels that the library calls."""
    qmat, r = np.linalg.qr(g)
    return qmat * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def qr_gram(a) -> tuple[np.ndarray, np.ndarray]:
    """``matcore.gram_qr`` as ``np.linalg.qr`` gives it (see :func:`qr_frames`)."""
    a = as_stack(a)
    r = np.linalg.qr(a if a.shape[-1] <= a.shape[-2] else a.swapaxes(-1, -2), mode="r")
    return r, 2.0 * np.log(np.abs(np.diagonal(r, 0, -2, -1))).sum(axis=-1)


def random_rank_q(n: int, m: int, q: int, rng: np.random.Generator, spectrum=None) -> np.ndarray:
    """Random n x m matrix with exact numerical rank q (see ``matcore.draw_rank_q``).

    ``spectrum``, when given, must pass ``validate_spectrum``; a drawn one is sorted
    by ``sorted_spectra``, which raises DegenerateSpectrum when two of its values tie.
    """
    if not 1 <= q <= min(n, m):
        raise ValueError(f"need 1 <= q <= min(n, m), got q={q}, n={n}, m={m}")
    if spectrum is not None:
        spectrum = validate_spectrum(spectrum, q)
    d, g_left, g_right = draw_rank_q(n, m, q, [rng], spectrum)
    return rank_q_from_draw(sorted_spectra(d), g_left, g_right)[0]


def vec(a) -> np.ndarray:
    """Column-stacking vectorization: entry (i, j) lands at position j*n + i."""
    return as_matrix(a).reshape(-1, order="F")


def commutation_matrix(m: int, n: int) -> np.ndarray:
    """Permutation K with K @ vec(A) = vec(A.T) for every n x m matrix A.

    The argument order follows the subscript convention K_mn acting on the
    vectorization of an n x m matrix.  The oracle of the commutation that
    :func:`jacobian_operator` builds entrywise.
    """
    k = np.zeros((m * n, m * n))
    for i in range(n):
        for j in range(m):
            k[i * m + j, j * n + i] = 1.0
    return k


def jacobian_operator(x) -> np.ndarray:
    """The symmetric nm x nm matrix S with S @ dX.ravel() = pinv_differential(X, dX).T.ravel()."""
    x = as_matrix(x)
    return broadcast_pair_operator(x, pinv(x)).reshape(x.size, x.size)


def operator_spectrum(x: np.ndarray, info: RankInfo) -> np.ndarray:
    """Nonzero singular values of the Jacobian operator, in decreasing order.

    ``info`` is ``rank_profile(x)``; no further factorization is made (see
    ``differential``'s spectrum theorem): 1/(d_i d_j) for all q^2 pairs of
    retained singular values and d_i^-2 with multiplicity n+m-2q, so
    nq+mq-q^2 values in all.  The slices of a stack must share one rank.
    """
    n, m = x.shape[-2:]
    q = common_rank(info)
    inv = 1.0 / info.singular_values[..., :q]
    pairs = (inv[..., :, None] * inv[..., None, :]).reshape(inv.shape[:-1] + (q * q,))
    values = np.concatenate([pairs, (inv**2).repeat(n + m - 2 * q, axis=-1)], axis=-1)
    values.sort(axis=-1)
    return np.ascontiguousarray(values[..., ::-1])  # see matcore's bit rule


def pair_factors(x, y) -> tuple[np.ndarray, ...]:
    """P_L = I - XY, P_R = I - YX, Y Y' and Y'Y of a pair (X, Y) or a stack of pairs, each
    averaged with its transpose, so that the operator built from them is exactly symmetric."""
    n, m = x.shape[-2:]
    yt = y.swapaxes(-1, -2)
    return tuple(0.5 * (a + a.swapaxes(-1, -2))
                 for a in (np.eye(n) - x @ y, np.eye(m) - y @ x, y @ yt, yt @ y))


def broadcast_pair_operator(x, y) -> np.ndarray:
    """The dense S of a pair (X, Y = pinv(X)), or of a stack, as an (..., n, m, n, m) array:
    S[l, k, i, j] = P_L[l, i] (Y Y')[k, j] + (Y'Y)[l, i] P_R[k, j] - Y'[l, j] Y[k, i], the entry
    that maps dX[i, j] to dY'[l, k], by three whole-operator broadcast products: each entry
    is fl(fl(fl(L A) + fl(B R)) - fl(Y' Y)), its factors those of :func:`pair_factors`.
    """
    left, right, yyt, yty = pair_factors(x, y)
    yt = y.swapaxes(-1, -2)
    s = left[..., :, None, :, None] * yyt[..., None, :, None, :]
    s += yty[..., :, None, :, None] * right[..., None, :, None, :]
    s -= yt[..., :, None, None, :] * y[..., None, :, :, None]
    return s


def dense_pair_reads(x, y, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What ``pair_block_profile`` reads, read from the dense operator of a stack.

    The 1x1 and 2x2 pair blocks' values, each entry (l, k) paired with
    (k, l) when l, k < q, sorted decreasing, then ||S||_F, the norm of S's
    rows l, k >= q, and ||E||_F, E being S with the pair pattern zeroed.
    """
    t, n, m = x.shape
    s = broadcast_pair_operator(x, y)
    l, k = np.divmod(np.arange(n * m), m)
    paired = (l < q) & (k < q)  # (l, k) with (k, l); at l = k, sign(k - l) = 0 keeps diag
    pl, pk = np.where(paired, k, l), np.where(paired, l, k)
    diag, other = s[:, l, k, l, k], s[:, pl, pk, pl, pk]
    off = np.where(paired, s[:, l, k, pl, pk], 0.0)
    values = np.abs(0.5 * (diag + other) + np.sign(k - l) * np.hypot(0.5 * (diag - other), off))
    norm, normal = (np.sqrt((a**2).reshape(t, -1).sum(-1)) for a in (s, s[:, q:, q:]))
    s[:, l, k, l, k] = s[:, l, k, pl, pk] = 0.0
    return np.sort(values, axis=-1)[:, ::-1], norm, normal, np.sqrt((s**2).reshape(t, -1).sum(-1))


def moved_blocks(b: BlockDecomposition, deltas: np.ndarray) -> tuple:
    """X11, X12, X21 moved by ``deltas``, in the dtype the blocks and the deltas promote to.

    ``deltas`` follows the order of ``b.coordinates``: (k,) or (p, k), of a
    stacked decomposition (T, k) or (p, T, k), split by ``chart._delta_blocks``.
    """
    blocks = (np.moveaxis(a, -2, 0) for a in _delta_blocks(b, deltas))
    moved = tuple(a + d for a, d in zip((b.x11, b.x12, b.x21), blocks))
    return tuple(a[0] for a in moved) if deltas.ndim == b.x11.ndim - 1 else moved


def pinv_complex_step(in_chart: BlockDecomposition, deltas) -> np.ndarray:
    """Derivatives of pinv along chart directions by complex step (Squire & Trapp 1998):
    the reference that ``chart.pinv_chart_derivative``'s tangent is held to.

    ``deltas`` is (p, [T,] k) or ([T,] k) in ``in_chart.coordinates`` order.
    Each slice steps by its own h = 1e-20 max|X11|, which is max|X| on a
    chart of ``decompose``: complete pivoting takes the largest entry first.
    The points b + i h delta are charts with ``in_chart``'s permutations
    and complex moved blocks, whose W and Z are solved for at those blocks,
    and ``chart.pinv_from_blocks`` of them is analytic in the free blocks
    and keeps the rank at q; Im pinv / h, of shape (p, [T,] m, n) or ([T,]
    m, n), is the derivative to rounding error, with no subtraction.
    """
    b = in_chart
    h = 1e-20 * np.max(np.abs(b.x11), axis=(-2, -1))
    moved = moved_blocks(b, 1j * h[..., None] * np.asarray(deltas))
    # Built without __post_init__: the pivot test is in_chart's.
    point, lead = object.__new__(BlockDecomposition), moved[0].shape[:-2]
    point.__dict__.update(zip(("x11", "x12", "x21"), moved),
                          row_perm=np.broadcast_to(b.row_perm, lead + (b.n,)),
                          col_perm=np.broadcast_to(b.col_perm, lead + (b.m,)))
    return pinv_from_blocks(point).imag / h[..., None, None]


def vech(s: np.ndarray) -> np.ndarray:
    """Half-vectorization: the m(m+1)/2 upper-triangle entries, row-major.

    A stack of shape (..., m, m) gives shape (..., m(m+1)/2).
    """
    rows, cols = np.triu_indices(s.shape[-1])
    return s[..., rows, cols]


def symmetric_inverse_complex_step(s):
    """log|det| of S -> inv(S) on half-vectorized coordinates by complex step (Squire &
    Trapp 1998): the reference that ``measures.symmetric_inverse_fd_det``'s tangent is held to.

    ``s`` is one symmetric matrix or a stack, taken through ``symmetric_part``.
    Coordinate (i, j) with i < j moves both mirrored entries; diagonal
    coordinates move one entry.  The m(m+1)/2 points S + i h E, h = 1e-20
    max|S| per slice, form one stack and one stacked inversion: inv is
    analytic, so vech(Im inv / h) is each column of the Jacobian to rounding
    error (plain transposes, no conjugation).
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


def perturbed_assemble(b: BlockDecomposition, deltas) -> np.ndarray:
    """The matrix whose free coordinates moved by ``deltas``, in ``b.coordinates`` order.

    The blocks move by :func:`moved_blocks`, as the complex step moves
    them, and X22 is taken again from the moved blocks, so every point has
    rank q.  Shape (k,) gives one n x m matrix, (p, k) the (p, n, m) stack of
    p points; of a stacked decomposition, (T, k) and (p, T, k) likewise.  No
    pivot test: the steps of :func:`fd_chart_jacobian` are small.
    """
    x11, x12, x21 = moved_blocks(b, np.asarray(deltas))
    return _unpermute(b, x11, x12, x21, x21 @ np.linalg.solve(x11, x12))


class Sandwich:
    """X -> H X Q for any H (n x n) and Q (m x m), or stacks of them: the map whose chart
    Jacobian ``chart.sandwich_chart_jacobian`` takes, as :func:`fd_chart_jacobian` maps it."""

    def __init__(self, h, qmat):
        self.h, self.qmat = h, qmat

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.h @ x @ self.qmat


def fd_step(x, step: float = 1e-5) -> np.ndarray:
    """The central-difference step of :func:`fd_chart_jacobian`: ``step`` max|X|, per slice."""
    return step * np.maximum(np.max(np.abs(x), axis=(-2, -1)), 1e-12)


def fd_chart_jacobian(f, x, in_chart: BlockDecomposition, out_chart: BlockDecomposition,
                      step: float = 1e-5) -> np.ndarray:
    """Central differences of out-chart coordinates of ``f`` in in-chart coordinates.

    The step-based oracle of the library's chart Jacobians
    (``pinv_chart_jacobian``, ``sandwich_chart_jacobian``), with a
    truncation error of order h^2.  The 2k points, +h along each in-chart
    coordinate then -h, form one (2k, [T,] n, m) stack that ``f.apply``
    maps; of a stack (T, n, m) and its charts, each slice takes its own h.
    """
    h = fd_step(x, step)
    k = len(in_chart)
    # Off-diagonal steps are +0.0: a -0.0 would keep the sign of a -0.0
    # entry of X that +0.0 clears.
    steps = np.zeros((2 * k,) + np.shape(x)[:-2] + (k,))
    steps[np.arange(k), ..., np.arange(k)] = h
    steps[np.arange(k, 2 * k), ..., np.arange(k)] = -h
    values = out_chart.coordinates(f.apply(perturbed_assemble(in_chart, steps)))
    return np.moveaxis(values[:k] - values[k:], 0, -1) / (2.0 * h)[..., None, None]


def pinv_chart_log_det(x, q: int) -> tuple[float, float]:
    """Closed form of log|det| of the chart Jacobian of X -> pinv(X), and its scale.

    By the area formula, -2(n+m-q) sum log d_i over the q retained singular
    values: ``chart.pinv_chart_jacobian`` reads pinv(X)' in X's own chart,
    which has X's W and Z, so the two charts' volumes cancel.  The scale is
    the sum of the magnitudes of the terms, the size of the rounding the
    value carries.
    """
    x = as_matrix(x)
    n, m = x.shape
    spectral = -2 * (n + m - q) * np.log(rank_profile(x).singular_values[:q])
    return spectral.sum(), np.abs(spectral).sum()


def log_stiefel_volume(k: int, n: int) -> float:
    """log Vol(V_{k,n}) = log(2^k pi^(kn/2) / Gamma_k(n/2)) (Muirhead Thm 2.1.15), where
    Gamma_k(a) = pi^(k(k-1)/4) prod_{i<k} Gamma(a - i/2); 0 at k = 0."""
    return (k * math.log(2.0) + k * n / 2 * math.log(math.pi) - k * (k - 1) / 4 * math.log(math.pi)
            - sum(math.lgamma(n / 2 - i / 2) for i in range(k)))


def log_gaussian_mass(n: int, m: int, q: int, density, nodes: int = 40, top: float = 12.0):
    """log of the Gaussian mass of all n x m matrices, int exp(-|Z|^2/2) dZ = (2 pi)^(nm/2),
    in SVD coordinates through the rank-q density ``density(n, m, d)``.

    With p = min(n, m), the ordered spectrum s_1 > ... > s_p > 0 of Z splits into its top
    q values d (its rank-q truncation, Eckart-Young) and the rest c.  The full-rank density
    of s is density(n, m, d) density(n-q, m-q, c) prod_{i,j}(d_i^2 - c_j^2) / prod
    d_i^(2(p-q)), and the frames' volumes split as Vol(V_{q,n}) Vol(V_{p-q,n-q}), the same
    for m; at q = p, c is empty.  The integral over s is a tensor Gauss-Legendre rule of
    ``nodes`` per axis over its increments s_i - s_{i+1} (s_{p+1} = 0) on [0, top]."""
    p = min(n, m)
    x, w = np.polynomial.legendre.leggauss(nodes)
    grid = np.stack(np.meshgrid(*[np.arange(nodes)] * p, indexing="ij"), axis=-1).reshape(-1, p)
    s = np.cumsum(((x + 1.0) * top / 2)[grid][:, ::-1], axis=-1)[:, ::-1]
    d, c = s[:, :q], s[:, q:]
    log_f = np.log(w * top / 2)[grid].sum(axis=-1) + density(n, m, d) - (s * s).sum(axis=-1) / 2
    if q < p:
        cross = np.log(d[:, :, None] - c[:, None, :]) + np.log(d[:, :, None] + c[:, None, :])
        log_f += (density(n - q, m - q, c) + cross.sum(axis=(1, 2))
                  - 2 * (p - q) * np.log(d).sum(axis=-1))
    peak = log_f.max()
    return (peak + math.log(np.exp(log_f - peak).sum()) + log_stiefel_volume(q, n)
            + log_stiefel_volume(p - q, n - q) + log_stiefel_volume(q, m)
            + log_stiefel_volume(p - q, m - q))


def penrose_residuals(x, y) -> tuple[float, float, float, float]:
    """Relative residuals of the four Penrose conditions for the pair (X, Y).

    Returns residuals of XYX=X, YXY=Y, (XY)'=XY and (YX)'=YX, each scaled
    by the norm of the quantity the condition constrains.
    """
    x = as_matrix(x)
    y = as_matrix(y)
    n, m = x.shape
    if y.shape != (m, n):
        raise ShapeMismatch(f"Y must be {m}x{n} when X is {n}x{m}, got {y.shape}")

    def rel(num: float, den: float) -> float:
        return num / den if den > 0 else num

    xy = x @ y
    yx = y @ x
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    return (
        rel(np.linalg.norm(xy @ x - x), nx),
        rel(np.linalg.norm(yx @ y - y), ny),
        rel(np.linalg.norm(xy - xy.T), max(np.linalg.norm(xy), 1.0)),
        rel(np.linalg.norm(yx - yx.T), max(np.linalg.norm(yx), 1.0)),
    )


def make_blocks(x11, x12, x21, row_perm=None, col_perm=None) -> BlockDecomposition:
    """BlockDecomposition from raw free blocks; identity permutations by default."""
    x11, x12, x21 = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (x11, x12, x21))
    q = x11.shape[0]
    return BlockDecomposition(
        x11, x12, x21,
        range(q + x21.shape[0]) if row_perm is None else row_perm,
        range(q + x12.shape[1]) if col_perm is None else col_perm,
    )


def chart_positions(b: BlockDecomposition) -> np.ndarray:
    """Original (row, col) of each free coordinate of ``b``, in chart order: (..., k, 2).

    The chart's coordinates of the grid of flat indices, one row per slice
    of a stacked chart.
    """
    grid = np.arange(b.n * b.m).reshape(b.n, b.m)
    flat = b.coordinates(np.broadcast_to(grid, b.x11.shape[:-2] + grid.shape))
    return np.stack(np.divmod(flat, b.m), axis=-1)
