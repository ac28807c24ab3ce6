"""Block parameterization of rank-q matrices: the free-coordinate chart.

An n x m matrix of rank q is determined by an invertible q x q leading
block plus its row and column neighbors: after row/column permutations
moving a well-conditioned q x q block to the top-left,

    Xp = [[X11, X12],
          [X21, X22]]      with X22 = X21 @ inv(X11) @ X12,

so the nq + mq - q^2 entries of X11, X12, X21 are free coordinates and X22
is dependent.  ``BlockDecomposition`` is that chart: its blocks, its
permutations and the original-index positions of its free coordinates.
X11 is tested once, when the decomposition is built, so every later use
may invert it.  Permutations are stored, never applied destructively:
every result maps back to the original index space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ChartInvalid, IllConditionedPivot, RankMismatch, ShapeMismatch, SingularGram
from .matcore import as_matrix, ill_conditioned, rank_profile

# Condition-number cap on the pivot block; beyond it the rank hypothesis is
# too close to violated for chart arithmetic to mean anything.
PIVOT_COND_CAP = 1e8


@dataclass(frozen=True)
class BlockDecomposition:
    """Free blocks X11, X12, X21 of a rank-q matrix in pivoted coordinates.

    Building one tests X11 against ``PIVOT_COND_CAP`` and raises
    IllConditionedPivot when it fails.  ``len(b)`` is the chart dimension
    nq + mq - q^2.
    """

    q: int
    x11: np.ndarray
    x12: np.ndarray
    x21: np.ndarray
    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]
    n: int
    m: int

    def __post_init__(self):
        s = ill_conditioned(self.x11, max_cond=PIVOT_COND_CAP)
        if s is not None:
            raise IllConditionedPivot(
                f"pivot block has condition {s[0] / max(s[-1], 1e-300):.3e} > {PIVOT_COND_CAP:.0e}"
            )

    @cached_property
    def positions(self) -> tuple[tuple[int, int], ...]:
        """Free-coordinate positions (row, col) in original indices.

        Order is X11 column-major, then X12 column-major, then X21
        column-major.
        """
        n, m, q = self.n, self.m, self.q
        rp, cp = self.row_perm, self.col_perm
        positions: list[tuple[int, int]] = []
        for j in range(q):                      # X11, column-major
            positions.extend((rp[i], cp[j]) for i in range(q))
        for j in range(q, m):                   # X12, column-major
            positions.extend((rp[i], cp[j]) for i in range(q))
        for j in range(q):                      # X21, column-major
            positions.extend((rp[i], cp[j]) for i in range(q, n))
        return tuple(positions)

    def __len__(self) -> int:
        return len(self.positions)


def _block_matrix(a, rows: int, cols: int, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        a = np.atleast_2d(a)
    if a.shape != (rows, cols):
        raise ShapeMismatch(f"{name} must be {rows}x{cols}, got {a.shape}")
    return a


def decompose(x, q: int) -> BlockDecomposition:
    """Select permutations making the leading q x q block well conditioned.

    Greedy complete pivoting (the rule of LAPACK xGETC2): at each step the
    largest remaining entry (in magnitude, the first in row-major order on
    ties) of the eliminated working copy becomes the next pivot.
    Elimination zeroes the pivot's row and column, so the first maximum of
    the whole copy is the first maximum among the remaining entries.
    """
    x = as_matrix(x)
    n, m = x.shape
    info = rank_profile(x)
    if info.rank != q:
        raise RankMismatch(f"numerical rank {info.rank} != requested q={q}")

    work = x.copy()
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    for _ in range(q):
        i, j = divmod(int(np.argmax(np.abs(work))), m)
        if work[i, j] == 0.0:
            raise IllConditionedPivot("ran out of nonzero pivots before reaching q")
        pivot_rows.append(i)
        pivot_cols.append(j)
        work -= np.outer(work[:, j] / work[i, j], work[i])
        work[i] = 0.0
        work[:, j] = 0.0

    row_perm = tuple(pivot_rows + [r for r in range(n) if r not in pivot_rows])
    col_perm = tuple(pivot_cols + [c for c in range(m) if c not in pivot_cols])
    xp = x[list(row_perm)][:, list(col_perm)]
    return BlockDecomposition(
        q=q,
        x11=xp[:q, :q].copy(),
        x12=xp[:q, q:].copy(),
        x21=xp[q:, :q].copy(),
        row_perm=row_perm,
        col_perm=col_perm,
        n=n,
        m=m,
    )


def _x22(x11: np.ndarray, x12: np.ndarray, x21: np.ndarray) -> np.ndarray:
    # X21 @ inv(X11) @ X12 for blocks of one matrix or stacks of them; the
    # caller has tested X11.
    if x12.shape[-1] == 0 or x21.shape[-2] == 0:
        return np.zeros(x11.shape[:-2] + (x21.shape[-2], x12.shape[-1]))
    return x21 @ np.linalg.solve(x11, x12)


def x22_from_blocks(b: BlockDecomposition) -> np.ndarray:
    """Dependent trailing block X21 @ inv(X11) @ X12; empty when q = n or q = m."""
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
    dx11 = _block_matrix(dx11, q, q, "dX11")
    dx12 = np.asarray(dx12, dtype=float).reshape(q, b.m - q)
    dx21 = np.asarray(dx21, dtype=float).reshape(b.n - q, q)
    inv_x12 = np.linalg.solve(b.x11, b.x12)     # X11^-1 X12
    inv_dx11 = np.linalg.solve(b.x11, dx11)     # X11^-1 dX11
    inv_dx12 = np.linalg.solve(b.x11, dx12)     # X11^-1 dX12
    dx22 = dx21 @ inv_x12 - b.x21 @ inv_dx11 @ inv_x12 + b.x21 @ inv_dx12
    return _unpermute(b, dx11, dx12, dx21, dx22)


def perturbed_assemble(b: BlockDecomposition, deltas: np.ndarray) -> np.ndarray:
    """Assemble the matrix whose free coordinates moved by ``deltas``.

    ``deltas`` is ordered like ``b.positions``; the dependent block is
    recomputed from the perturbed free blocks, so the result has exact rank
    q by construction.  Shape (k,) gives one n x m matrix; shape (p, k)
    gives the (p, n, m) stack of the p points, each row moved on its own,
    with one stacked pivot test and one stacked solve for X22.  Raises
    ChartInvalid when any point leaves the pivot block's validity region.
    """
    if deltas.ndim not in (1, 2) or deltas.shape[-1] != len(b):
        raise ShapeMismatch(f"expected {len(b)} deltas, got {deltas.shape}")
    q, n, m = b.q, b.n, b.m
    lead = deltas.shape[:-1]
    # Chart order is X11, X12, X21, each column-major: a row-major reshape
    # to the transposed block shape, transposed back.
    k12, k21 = q * q, q * m
    x11 = b.x11 + deltas[..., :k12].reshape(lead + (q, q)).swapaxes(-1, -2)
    x12 = b.x12 + deltas[..., k12:k21].reshape(lead + (m - q, q)).swapaxes(-1, -2)
    x21 = b.x21 + deltas[..., k21:].reshape(lead + (q, n - q)).swapaxes(-1, -2)
    # The moved X11 must pass the same pivot test as a built decomposition.
    if ill_conditioned(x11, max_cond=PIVOT_COND_CAP) is not None:
        raise ChartInvalid("perturbation left the pivot block's validity region")
    return _unpermute(b, x11, x12, x21, _x22(x11, x12, x21))
