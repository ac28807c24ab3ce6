"""Test oracles and fixture builders that the library itself does not need."""

import numpy as np

from mpjl.chart import BlockDecomposition, decompose
from mpjl.differential import pair_operator
from mpjl.errors import ShapeMismatch
from mpjl.matcore import as_matrix, pinv, rank_profile


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
    return pair_operator(x, pinv(x)).reshape(x.size, x.size)


def broadcast_pair_operator(x, y) -> np.ndarray:
    """``pair_operator`` as three whole-operator broadcast products: its bit-for-bit oracle.

    Each entry is fl(fl(fl(L A) + fl(B R)) - fl(Y' Y)); the second and third
    products each take a temporary the size of the whole operator.
    """
    n, m = x.shape[-2:]
    yt = y.swapaxes(-1, -2)
    left, right, yyt, yty = (0.5 * (a + a.swapaxes(-1, -2)) for a in (
        np.eye(n) - x @ y, np.eye(m) - y @ x, y @ yt, yt @ y))
    s = left[..., :, None, :, None] * yyt[..., None, :, None, :]
    s += yty[..., :, None, :, None] * right[..., None, :, None, :]
    s -= yt[..., :, None, None, :] * y[..., None, :, :, None]
    return s


def log_chart_volume(b: BlockDecomposition) -> float:
    """V(b) = (n-q)/2 log det(I + W'W) + (m-q)/2 log det(I + Z Z'), W = X11^-1 X12, Z = X21 X11^-1.

    The log volume element of the chart: the map from b's free coordinates
    to the n x m matrix has det(T'T) = det(I + W'W)^(n-q) det(I + Z Z')^(m-q).
    """
    q, n, m = b.q, b.n, b.m
    w = np.linalg.solve(b.x11, b.x12)
    z = np.linalg.solve(b.x11.T, b.x21.T).T
    return (0.5 * (n - q) * np.linalg.slogdet(np.eye(m - q) + w.T @ w)[1]
            + 0.5 * (m - q) * np.linalg.slogdet(np.eye(n - q) + z @ z.T)[1])


def pinv_chart_log_det(x, q: int) -> tuple[float, float]:
    """Closed form of log|det| of the chart Jacobian of X -> pinv(X), and its scale.

    By the area formula, -2(n+m-q) sum log d_i over the q retained singular
    values, plus V(X's chart) - V(Y's chart) (see :func:`log_chart_volume`),
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
