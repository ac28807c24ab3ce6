"""Block parameterization of rank-q matrices: the free-coordinate chart.

An n x m matrix of rank q is determined by an invertible q x q leading
block plus its row and column neighbors: after row/column permutations
moving a well-conditioned q x q block to the top-left,

    Xp = [[X11, X12],
          [X21, X22]]      with X22 = X21 @ inv(X11) @ X12,

so the nq + mq - q^2 entries of X11, X12, X21 are free coordinates and X22
is dependent.  ``BlockDecomposition`` is that chart: the free blocks and
the two permutations, which fix q, n, m and the original-index positions
of the free coordinates.  X11 is tested once, when the decomposition is
built, so every later use may invert it.  Permutations are stored, never
applied destructively: every result maps back to the original index space.

``decompose`` also takes a stack (T, n, m), pivoted slice by slice, and
gives one decomposition of stacked blocks that every function here
follows, each slice with the bits of its 2-D call.  A stack raises
whenever one of its slices would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ChartInvalid, IllConditionedPivot, RankMismatch, ShapeMismatch
from .matcore import as_stack, common_rank, ill_conditioned, rank_profile

# Condition-number cap on the pivot block; beyond it the rank hypothesis is
# too close to violated for chart arithmetic to mean anything.
PIVOT_COND_CAP = 1e8


@cache
def _free_index(n: int, m: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    # Permuted-coordinate rows and columns of the free coordinates: X11
    # column-major, then X12 column-major, then X21 column-major.  Shared
    # by every caller, so read-only.
    flat = np.arange(n * m).reshape(n, m)
    index = np.divmod(np.concatenate([flat[:q, :q].T, flat[:q, q:].T, flat[q:, :q].T], None), m)
    for a in index:
        a.flags.writeable = False
    return index


@dataclass(frozen=True)
class BlockDecomposition:
    """Free blocks X11, X12, X21 of a rank-q matrix in pivoted coordinates.

    ``row_perm[i]`` and ``col_perm[j]`` are the original indices of pivoted
    row i and column j, kept as read-only integer arrays: a sequence that
    is not an integer permutation of 0..n-1 (0..m-1) raises ShapeMismatch.
    Building one tests X11 against ``PIVOT_COND_CAP`` and raises
    IllConditionedPivot when it fails.  ``len(b)`` is the chart dimension
    nq + mq - q^2.  Of a stack, the blocks have a leading axis T and the
    permutations one row per slice.
    """

    x11: np.ndarray
    x12: np.ndarray
    x21: np.ndarray
    row_perm: np.ndarray
    col_perm: np.ndarray

    def __post_init__(self):
        lead = self.x11.shape[:-2]
        for name, size in (("row_perm", self.n), ("col_perm", self.m)):
            perm = np.array(getattr(self, name))
            if perm.shape != lead + (size,):
                raise ShapeMismatch(f"{name} must have shape {lead + (size,)}, got {perm.shape}")
            if perm.dtype.kind not in "iu" or np.any(np.sort(perm, axis=-1) != np.arange(size)):
                raise ShapeMismatch(f"{name} must be an integer permutation of 0..{size - 1}")
            perm = perm.astype(np.intp)
            perm.flags.writeable = False
            object.__setattr__(self, name, perm)
        s = ill_conditioned(self.x11, rtol=1 / PIVOT_COND_CAP)
        if s is not None:  # reports the worst slice of a stack
            cond = np.max(s[..., 0] / np.maximum(s[..., -1], 1e-300))
            raise IllConditionedPivot(f"pivot block has condition {cond:.3e} > {PIVOT_COND_CAP:.0e}")

    q = property(lambda self: self.x11.shape[-1])
    n = property(lambda self: self.q + self.x21.shape[-2])
    m = property(lambda self: self.q + self.x12.shape[-1])

    @cached_property
    def _stack(self) -> tuple:
        # Slice indices of a stack (none for one matrix), shaped (..., 1, 1).
        return np.indices(self.x11.shape[:-2] + (1, 1), sparse=True)[: self.x11.ndim - 2]

    def __len__(self) -> int:
        return len(_free_index(self.n, self.m, self.q)[0])

    def coordinates(self, a: np.ndarray) -> np.ndarray:
        """Free coordinates of ``a`` (..., [T,] n, m), in chart order: shape (..., [T,] k)."""
        rows, cols = _free_index(self.n, self.m, self.q)
        stack = (s[..., 0] for s in self._stack)
        return a[(..., *stack, self.row_perm[..., rows], self.col_perm[..., cols])]


def decompose(x, q: int) -> BlockDecomposition:
    """Select permutations making the leading q x q block well conditioned.

    Greedy complete pivoting (the rule of LAPACK xGETC2): at each step the
    largest remaining entry (in magnitude, the first in row-major order on
    ties) of the eliminated working copy becomes the next pivot.
    Elimination zeroes the pivot's row and column, so the first maximum of
    the whole copy is the first maximum among the remaining entries.
    Raises RankMismatch unless the numerical rank of ``x`` is q.
    """
    x = as_stack(x)
    rank = common_rank(rank_profile(x))
    if rank != q:
        raise RankMismatch(f"numerical rank {rank} != requested q={q}")
    return _pivot(x, q)


def _pivot(x: np.ndarray, q: int) -> BlockDecomposition:
    # decompose without its rank test, for a matrix or stack whose rank is q
    # by construction; the pivot block is still tested.
    n, m = x.shape[-2:]
    # All slices at once: slice t of a stack is pivoted as a matrix alone.
    xs = x.reshape(-1, n, m)
    work = xs.copy()
    t = np.arange(len(xs))
    pivots = []
    for _ in range(q):
        i, j = np.divmod(np.abs(work).reshape(len(xs), -1).argmax(axis=1), m)
        pivot = work[t, i, j]
        if not pivot.all():
            raise IllConditionedPivot("ran out of nonzero pivots before reaching q")
        pivots.append((i, j))
        work -= (work[t, :, j] / pivot[:, None])[:, :, None] * work[t, i][:, None, :]
        work[t, i] = 0.0
        work[t, :, j] = 0.0

    # Pivots first in pivot order, then the other indices in original order.
    perms = []
    for chosen, size in zip(np.array(pivots).transpose(1, 2, 0), (n, m)):  # (T, q) each
        key = np.tile(np.arange(q, q + size), (len(xs), 1))
        key[t[:, None], chosen] = np.arange(q)
        perms.append(key.argsort(axis=1))
    rp, cp = perms
    xp = xs[t[:, None, None], rp[:, :, None], cp[:, None, :]].reshape(x.shape)
    lead = x.shape[:-2]
    return BlockDecomposition(xp[..., :q, :q].copy(), xp[..., :q, q:].copy(),
                              xp[..., q:, :q].copy(), rp.reshape(lead + (n,)),
                              cp.reshape(lead + (m,)))


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
    # original indices.  The blocks' leading axes end with the stack axes
    # of ``b``, whose slices each carry their own permutations.
    stack, rp, cp = b._stack, b.row_perm, b.col_perm
    top, bottom = rp[..., : b.q, None], rp[..., b.q :, None]
    left, right = cp[..., None, : b.q], cp[..., None, b.q :]
    a = np.empty(a11.shape[:-2] + (b.n, b.m), np.result_type(a11, a12, a21, a22))
    a[(..., *stack, top, left)] = a11
    a[(..., *stack, top, right)] = a12
    a[(..., *stack, bottom, left)] = a21
    a[(..., *stack, bottom, right)] = a22
    return a


def assemble(b: BlockDecomposition) -> np.ndarray:
    """Rebuild the full matrix, trailing block filled from the dependence rule."""
    return _unpermute(b, b.x11, b.x12, b.x21, x22_from_blocks(b))


def _pinv_blocks(b: BlockDecomposition, x11, x12, x21) -> np.ndarray:
    # pinv_from_blocks of blocks whose leading axes end with b's stack axes;
    # plain transposes and solves only, so complex blocks pass through.
    eye = np.eye(b.q)
    zt = np.linalg.solve(x11.swapaxes(-1, -2), x21.swapaxes(-1, -2))     # Z'
    rows = np.concatenate([np.broadcast_to(eye, zt.shape[:-1] + (b.q,)), zt], -1)
    rows = np.linalg.solve(eye + zt @ zt.swapaxes(-1, -2), rows)       # (I + Z'Z)^-1 [I, Z']
    w, core = np.split(np.linalg.solve(x11, np.concatenate([x12, rows], -1)), [b.m - b.q], -1)
    wt = w.swapaxes(-1, -2)
    core = np.linalg.solve(eye + w @ wt, core)
    yp = np.concatenate([core, wt @ core], -2)
    y = np.empty(yp.shape, yp.dtype)
    y[(..., *b._stack, b.col_perm[..., :, None], b.row_perm[..., None, :])] = yp
    return y


def pinv_from_blocks(b: BlockDecomposition) -> np.ndarray:
    """Closed-form pseudoinverse from the free blocks alone, of a stack slice by slice.

    With W = X11^-1 X12 and Z = X21 X11^-1 the permuted matrix factors as
    Xp = [I; Z] X11 [I, W], so in permuted coordinates

        Xp+ = [I; W'] (I + W W')^-1 X11^-1 (I + Z'Z)^-1 [I, Z'],

    then the stored permutations carry the result back to original indices.
    X11 enters once, never squared, and I + W W' and I + Z'Z have every
    eigenvalue >= 1, so once X11 has passed its pivot test nothing else
    can be singular.
    """
    return _pinv_blocks(b, b.x11, b.x12, b.x21)


def tangent_perturbation(b: BlockDecomposition, dx11, dx12, dx21) -> np.ndarray:
    """Rank-preserving perturbation from free-block directions.

    The trailing block follows the product rule applied to the dependence
    X22 = X21 X11^-1 X12:

        dX22 = dX21 X11^-1 X12 - X21 X11^-1 dX11 X11^-1 X12 + X21 X11^-1 dX12

    Each direction must have exactly its block's shape, with the stack axis
    first for a stacked ``b`` (one direction per slice), else ShapeMismatch.
    """
    dx11, dx12, dx21 = (np.asarray(a, dtype=float) for a in (dx11, dx12, dx21))
    for name, a, block in (("dX11", dx11, b.x11), ("dX12", dx12, b.x12), ("dX21", dx21, b.x21)):
        if a.shape != block.shape:
            raise ShapeMismatch(f"{name} must be {'x'.join(map(str, block.shape))}, got {a.shape}")
    inv_x12 = np.linalg.solve(b.x11, b.x12)     # X11^-1 X12
    inv_dx11 = np.linalg.solve(b.x11, dx11)     # X11^-1 dX11
    inv_dx12 = np.linalg.solve(b.x11, dx12)     # X11^-1 dX12
    dx22 = dx21 @ inv_x12 - b.x21 @ inv_dx11 @ inv_x12 + b.x21 @ inv_dx12
    return _unpermute(b, dx11, dx12, dx21, dx22)


def _moved_blocks(b: BlockDecomposition, deltas: np.ndarray) -> tuple:
    # X11, X12, X21 moved by ``deltas`` (see perturbed_assemble), in the
    # dtype the blocks and the deltas promote to.
    lead_b = b.x11.shape[:-2]
    stack = deltas.shape[deltas.ndim - 1 - len(lead_b):-1]
    if deltas.ndim - len(lead_b) not in (1, 2) or stack != lead_b or deltas.shape[-1] != len(b):
        raise ShapeMismatch(f"expected {len(b)} deltas, got {deltas.shape}")
    q, n, m = b.q, b.n, b.m
    lead = deltas.shape[:-1]
    # Chart order is X11, X12, X21, each column-major: a row-major reshape
    # to the transposed block shape, transposed back.
    k12, k21 = q * q, q * m
    return (b.x11 + deltas[..., :k12].reshape(lead + (q, q)).swapaxes(-1, -2),
            b.x12 + deltas[..., k12:k21].reshape(lead + (m - q, q)).swapaxes(-1, -2),
            b.x21 + deltas[..., k21:].reshape(lead + (q, n - q)).swapaxes(-1, -2))


def perturbed_assemble(b: BlockDecomposition, deltas: np.ndarray) -> np.ndarray:
    """Assemble the matrix whose free coordinates moved by ``deltas``.

    ``deltas`` follows the order of ``b.coordinates``; the dependent block is
    recomputed from the perturbed free blocks, so the result has exact rank
    q by construction.  Shape (k,) gives one n x m matrix; shape (p, k) gives
    the (p, n, m) stack of the p points, each row moved on its own; of a
    stacked decomposition, (T, k) and (p, T, k) likewise.  One stacked pivot
    test of the points whose X11 moved and one stacked solve for X22 serve
    all points.  Raises ChartInvalid when any point leaves the pivot
    block's validity region.
    """
    deltas = np.asarray(deltas)
    x11, x12, x21 = _moved_blocks(b, deltas)
    # A moved X11 must pass the same pivot test as a built decomposition;
    # an unmoved one is b's, which passed it.
    moved = np.any(deltas[..., : b.q * b.q] != 0, axis=-1)
    if ill_conditioned(x11[moved], rtol=1 / PIVOT_COND_CAP) is not None:
        raise ChartInvalid("perturbation left the pivot block's validity region")
    return _unpermute(b, x11, x12, x21, _x22(x11, x12, x21))
