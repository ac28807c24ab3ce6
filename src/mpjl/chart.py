"""Block parameterization of rank-q matrices.

An n x m matrix of rank q is determined by an invertible q x q leading
block plus its row and column neighbors: after row/column permutations
moving a well-conditioned q x q block to the top-left,

    Xp = [[X11, X12],
          [X21, X22]]      with X22 = X21 @ inv(X11) @ X12,

so the nq + mq - q^2 entries of X11, X12, X21 are free coordinates and X22
is dependent.  Permutations are stored, never applied destructively: every
result maps back to the original index space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ChartInvalid,
    IllConditionedPivot,
    RankMismatch,
    ShapeMismatch,
    SingularGram,
    SingularX11,
)
from .matcore import (
    as_matrix,
    ill_conditioned,
    matrix_from_json,
    matrix_to_json,
    rank_profile,
)

# Condition-number cap on the pivot block; beyond it the rank hypothesis is
# too close to violated for chart arithmetic to mean anything.
PIVOT_COND_CAP = 1e8


@dataclass(frozen=True)
class BlockDecomposition:
    q: int
    x11: np.ndarray
    x12: np.ndarray
    x21: np.ndarray
    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]
    n: int
    m: int


@dataclass(frozen=True)
class CoordinateChart:
    """Ordered free-coordinate positions (row, col) in original indices.

    Order is X11 column-major, then X12 column-major, then X21
    column-major.  ``block`` keeps the decomposition the chart was built
    from, which finite-difference drivers need to reassemble perturbed
    matrices.
    """

    positions: tuple[tuple[int, int], ...]
    n: int
    m: int
    q: int
    block: BlockDecomposition | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.positions)


def _block_matrix(a, rows: int, cols: int, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        a = np.atleast_2d(a)
    if a.shape != (rows, cols):
        raise ShapeMismatch(f"{name} must be {rows}x{cols}, got {a.shape}")
    return a


def make_blocks(x11, x12, x21, n: int | None = None, m: int | None = None,
                row_perm=None, col_perm=None) -> BlockDecomposition:
    """Assemble a BlockDecomposition from raw blocks (identity perms default)."""
    x11 = np.atleast_2d(np.asarray(x11, dtype=float))
    q = x11.shape[0]
    if x11.shape != (q, q):
        raise ShapeMismatch(f"X11 must be square, got {x11.shape}")
    x12 = np.asarray(x12, dtype=float).reshape(q, -1) if np.size(x12) else np.zeros((q, 0))
    x21 = np.asarray(x21, dtype=float).reshape(-1, q) if np.size(x21) else np.zeros((0, q))
    n = q + x21.shape[0] if n is None else n
    m = q + x12.shape[1] if m is None else m
    _block_matrix(x12, q, m - q, "X12")
    _block_matrix(x21, n - q, q, "X21")
    row_perm = tuple(range(n)) if row_perm is None else tuple(int(i) for i in row_perm)
    col_perm = tuple(range(m)) if col_perm is None else tuple(int(j) for j in col_perm)
    if sorted(row_perm) != list(range(n)) or sorted(col_perm) != list(range(m)):
        raise ShapeMismatch("row_perm/col_perm must be permutations of range(n)/range(m)")
    return BlockDecomposition(q=q, x11=x11, x12=x12, x21=x21,
                              row_perm=row_perm, col_perm=col_perm, n=n, m=m)


def _check_x11(b: BlockDecomposition) -> None:
    s = ill_conditioned(b.x11, max_cond=1 / np.finfo(float).eps)
    if s is not None:
        raise SingularX11(f"X11 is numerically singular (singular values {s.tolist()})")


def decompose(x, q: int, tol: float | None = None) -> BlockDecomposition:
    """Select permutations making the leading q x q block well conditioned.

    Greedy complete pivoting: at each step the largest remaining entry (in
    magnitude) of the eliminated working copy becomes the next pivot.
    """
    x = as_matrix(x)
    n, m = x.shape
    info = rank_profile(x, tol)
    if info.rank != q:
        raise RankMismatch(f"numerical rank {info.rank} != requested q={q}")

    work = x.copy()
    rows = list(range(n))
    cols = list(range(m))
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    for _ in range(q):
        sub = np.abs(work[np.ix_(rows, cols)])
        flat = int(np.argmax(sub))
        i, j = divmod(flat, len(cols))
        if sub[i, j] == 0.0:
            raise IllConditionedPivot("ran out of nonzero pivots before reaching q")
        pr, pc = rows[i], cols[j]
        pivot_rows.append(pr)
        pivot_cols.append(pc)
        rows.remove(pr)
        cols.remove(pc)
        if rows and cols:
            factors = work[np.ix_(rows, [pc])] / work[pr, pc]
            work[np.ix_(rows, cols)] -= factors @ work[np.ix_([pr], cols)]

    row_perm = tuple(pivot_rows + rows)
    col_perm = tuple(pivot_cols + cols)
    x11 = x[np.ix_(row_perm[:q], col_perm[:q])]
    s = ill_conditioned(x11, max_cond=PIVOT_COND_CAP)
    if s is not None:
        raise IllConditionedPivot(
            f"best pivot block has condition {s[0] / max(s[-1], 1e-300):.3e} > {PIVOT_COND_CAP:.0e}"
        )
    return BlockDecomposition(
        q=q,
        x11=x11,
        x12=x[np.ix_(row_perm[:q], col_perm[q:])],
        x21=x[np.ix_(row_perm[q:], col_perm[:q])],
        row_perm=row_perm,
        col_perm=col_perm,
        n=n,
        m=m,
    )


def _x22(x11: np.ndarray, x12: np.ndarray, x21: np.ndarray) -> np.ndarray:
    # X21 @ inv(X11) @ X12 without the X11 test, for callers that made it;
    # blocks of one matrix or stacks of them.
    if x12.shape[-1] == 0 or x21.shape[-2] == 0:
        return np.zeros(x11.shape[:-2] + (x21.shape[-2], x12.shape[-1]))
    return x21 @ np.linalg.solve(x11, x12)


def x22_from_blocks(b: BlockDecomposition) -> np.ndarray:
    """Dependent trailing block X21 @ inv(X11) @ X12; empty when q = n or q = m."""
    if b.n > b.q and b.m > b.q:
        _check_x11(b)
    return _x22(b.x11, b.x12, b.x21)


def _unpermute(b: BlockDecomposition, a11, a12, a21, a22) -> np.ndarray:
    # Place permuted-coordinate blocks, or stacks of them, back at their
    # original indices.
    rows, cols = np.array(b.row_perm), np.array(b.col_perm)
    top, bottom = rows[: b.q, None], rows[b.q :, None]
    left, right = cols[: b.q], cols[b.q :]
    a = np.empty(a11.shape[:-2] + (b.n, b.m))
    a[..., top, left] = a11
    a[..., top, right] = a12
    a[..., bottom, left] = a21
    a[..., bottom, right] = a22
    return a


def assemble(b: BlockDecomposition) -> np.ndarray:
    """Rebuild the full matrix, trailing block filled from the dependence rule."""
    return _unpermute(b, b.x11, b.x12, b.x21, x22_from_blocks(b))


def pinv_from_blocks(b: BlockDecomposition) -> np.ndarray:
    """Closed-form pseudoinverse from the free blocks alone.

    In permuted coordinates,

        Xp+ = [X11'; X12'] (X11 X11' + X12 X12')^-1 X11
                           (X11' X11 + X21' X21)^-1 (X11', X21'),

    then the stored permutations carry the result back to original indices.
    """
    gram_left = b.x11 @ b.x11.T + b.x12 @ b.x12.T
    gram_right = b.x11.T @ b.x11 + b.x21.T @ b.x21
    for name, g in (("left", gram_left), ("right", gram_right)):
        if ill_conditioned(g, rtol=np.finfo(float).eps * b.q) is not None:
            raise SingularGram(f"{name} Gram combination is numerically singular")
    core = np.linalg.solve(gram_left, b.x11)
    core = np.linalg.solve(gram_right.T, core.T).T
    yp = np.vstack([b.x11.T, b.x12.T]) @ core @ np.hstack([b.x11.T, b.x21.T])
    inv_rows = np.argsort(b.row_perm)
    inv_cols = np.argsort(b.col_perm)
    return yp[np.ix_(inv_cols, inv_rows)]


def tangent_perturbation(b: BlockDecomposition, dx11, dx12, dx21) -> np.ndarray:
    """Rank-preserving perturbation from free-block directions.

    The trailing block follows the product rule applied to the dependence
    X22 = X21 X11^-1 X12:

        dX22 = dX21 X11^-1 X12 - X21 X11^-1 dX11 X11^-1 X12 + X21 X11^-1 dX12
    """
    q = b.q
    dx11 = _block_matrix(np.atleast_2d(np.asarray(dx11, dtype=float)), q, q, "dX11")
    dx12 = np.asarray(dx12, dtype=float).reshape(q, b.m - q)
    dx21 = np.asarray(dx21, dtype=float).reshape(b.n - q, q)
    _check_x11(b)
    inv_x12 = np.linalg.solve(b.x11, b.x12)     # X11^-1 X12
    inv_dx11 = np.linalg.solve(b.x11, dx11)     # X11^-1 dX11
    inv_dx12 = np.linalg.solve(b.x11, dx12)     # X11^-1 dX12
    dx22 = dx21 @ inv_x12 - b.x21 @ inv_dx11 @ inv_x12 + b.x21 @ inv_dx12
    return _unpermute(b, dx11, dx12, dx21, dx22)


def chart_positions(n: int, m: int, q: int, b: BlockDecomposition) -> CoordinateChart:
    """Free-coordinate positions of the X11, X12 and X21 blocks.

    Exactly nq + mq - q^2 positions, expressed in original indices through
    the stored permutations.
    """
    if (n, m, q) != (b.n, b.m, b.q):
        raise ShapeMismatch(
            f"chart shape ({n},{m},q={q}) disagrees with decomposition "
            f"({b.n},{b.m},q={b.q})"
        )
    rp, cp = b.row_perm, b.col_perm
    positions: list[tuple[int, int]] = []
    for j in range(q):                      # X11, column-major
        positions.extend((rp[i], cp[j]) for i in range(q))
    for j in range(q, m):                   # X12, column-major
        positions.extend((rp[i], cp[j]) for i in range(q))
    for j in range(q):                      # X21, column-major
        positions.extend((rp[i], cp[j]) for i in range(q, n))
    return CoordinateChart(positions=tuple(positions), n=n, m=m, q=q, block=b)


def perturbed_assemble(chart: CoordinateChart, deltas: np.ndarray) -> np.ndarray:
    """Assemble the matrix whose free coordinates moved by ``deltas``.

    ``deltas`` is ordered like ``chart.positions``; the dependent block is
    recomputed from the perturbed free blocks, so the result has exact rank
    q by construction.  Shape (k,) gives one n x m matrix; shape (p, k)
    gives the (p, n, m) stack of the p points, each row moved on its own,
    with one stacked pivot test and one stacked solve for X22.  Raises
    ChartInvalid when any point leaves the pivot block's validity region.
    """
    b = chart.block
    if b is None:
        raise ShapeMismatch("chart carries no block decomposition")
    if deltas.ndim not in (1, 2) or deltas.shape[-1] != len(chart):
        raise ShapeMismatch(f"expected {len(chart)} deltas, got {deltas.shape}")
    q, n, m = b.q, b.n, b.m
    lead = deltas.shape[:-1]
    # Chart order is X11, X12, X21, each column-major: a row-major reshape
    # to the transposed block shape, transposed back.
    k12, k21 = q * q, q * m
    x11 = b.x11 + deltas[..., :k12].reshape(lead + (q, q)).swapaxes(-1, -2)
    x12 = b.x12 + deltas[..., k12:k21].reshape(lead + (m - q, q)).swapaxes(-1, -2)
    x21 = b.x21 + deltas[..., k21:].reshape(lead + (q, n - q)).swapaxes(-1, -2)
    # The pivot cap is stricter than the 1/eps cap of _check_x11, so X22
    # needs no second test.
    if ill_conditioned(x11, max_cond=PIVOT_COND_CAP) is not None:
        raise ChartInvalid("perturbation left the pivot block's validity region")
    return _unpermute(b, x11, x12, x21, _x22(x11, x12, x21))


def blocks_to_json(b: BlockDecomposition) -> dict:
    return {
        "q": b.q,
        "X11": matrix_to_json(b.x11) if b.x11.size else _empty_json(b.q, b.q),
        "X12": matrix_to_json(b.x12) if b.x12.size else _empty_json(b.q, b.m - b.q),
        "X21": matrix_to_json(b.x21) if b.x21.size else _empty_json(b.n - b.q, b.q),
        "row_perm": list(b.row_perm),
        "col_perm": list(b.col_perm),
        "n": b.n,
        "m": b.m,
    }


def _empty_json(rows: int, cols: int) -> dict:
    return {"rows": rows, "cols": cols, "data": []}


def _matrix_or_empty(obj: dict) -> np.ndarray:
    if not obj["data"]:
        return np.zeros((int(obj["rows"]), int(obj["cols"])))
    return matrix_from_json(obj)


def blocks_from_json(obj: dict) -> BlockDecomposition:
    return make_blocks(
        _matrix_or_empty(obj["X11"]),
        _matrix_or_empty(obj["X12"]),
        _matrix_or_empty(obj["X21"]),
        n=int(obj["n"]),
        m=int(obj["m"]),
        row_perm=obj["row_perm"],
        col_perm=obj["col_perm"],
    )
