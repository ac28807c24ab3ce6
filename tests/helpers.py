"""Test oracles and fixture builders that the library itself does not need."""

import numpy as np

from mpjl import suites
from mpjl.chart import BlockDecomposition, _moved_blocks, _unpermute, decompose, log_chart_volume
from mpjl.errors import ShapeMismatch
from mpjl.matcore import as_matrix, pinv, rank_profile


def check(suite: str, draws: list[tuple], **config):
    """The reports of ``suite``'s check on a list of trials' draws, under ``RunConfig(**config)``:
    what ``run_suite`` does with one stack, minus drawing and stamping."""
    return suites._SUITES[suite][1](suites.RunConfig(**config), draws)


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


def perturbed_assemble(b: BlockDecomposition, deltas) -> np.ndarray:
    """The matrix whose free coordinates moved by ``deltas``, in ``b.coordinates`` order.

    The blocks move by ``chart._moved_blocks``, as the complex step moves
    them, and X22 is taken again from the moved blocks, so every point has
    rank q.  Shape (k,) gives one n x m matrix, (p, k) the (p, n, m) stack of
    p points; of a stacked decomposition, (T, k) and (p, T, k) likewise.  No
    pivot test: the steps of :func:`fd_chart_jacobian` are small.
    """
    x11, x12, x21 = _moved_blocks(b, np.asarray(deltas))
    return _unpermute(b, x11, x12, x21, x21 @ np.linalg.solve(x11, x12))


def fd_step(x, step: float = 1e-5) -> np.ndarray:
    """The central-difference step of :func:`fd_chart_jacobian`: ``step`` max|X|, per slice."""
    return step * np.maximum(np.max(np.abs(x), axis=(-2, -1)), 1e-12)


def fd_chart_jacobian(f, x, in_chart: BlockDecomposition, out_chart: BlockDecomposition,
                      step: float = 1e-5) -> np.ndarray:
    """Central differences of out-chart coordinates of ``f`` in in-chart coordinates.

    The step-based oracle of the library's exact chart Jacobians
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
    values, plus V(X's chart) - V(Y's chart) (see ``chart.log_chart_volume``),
    the charts being those of ``decompose``; at full rank both volumes are
    0.  The scale is the sum of the magnitudes of those terms, the size of
    the rounding the value carries.
    """
    x = as_matrix(x)
    n, m = x.shape
    spectral = -2 * (n + m - q) * np.log(rank_profile(x).singular_values[:q])
    volumes = log_chart_volume(decompose(x, q)), -log_chart_volume(decompose(pinv(x), q))
    return spectral.sum() + sum(volumes), np.abs(spectral).sum() + np.abs(volumes).sum()


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
