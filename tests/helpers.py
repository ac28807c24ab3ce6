"""Test oracles and fixture builders that the library itself does not need."""

import numpy as np

from mpjl.chart import BlockDecomposition
from mpjl.errors import ShapeMismatch
from mpjl.matcore import as_matrix


def commutation_matrix(m: int, n: int) -> np.ndarray:
    """Permutation K with K @ vec(A) = vec(A.T) for every n x m matrix A.

    The argument order follows the subscript convention K_mn acting on the
    vectorization of an n x m matrix.  The oracle of the column gather in
    ``differential.jacobian_operator``.
    """
    k = np.zeros((m * n, m * n))
    for i in range(n):
        for j in range(m):
            k[i * m + j, j * n + i] = 1.0
    return k


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
