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
built, so every later use may invert it, and W = X11^-1 X12 and
Z = X21 X11^-1 are solved for once.  Permutations are stored, never applied
destructively: every result maps back to the original index space.  The factored
pseudoinverse and its forward-mode tangent (``differential``'s oracle) live here.

``decompose`` also takes a stack (T, n, m), pivoted slice by slice, and
gives one decomposition of stacked blocks that every function here
follows, under ``matcore``'s bit rule.  A stack raises whenever one of
its slices would, and ``b[i]`` of a stack gives slices ``i`` with their
cached W and Z and no second pivot test, so a check can pivot all its
charts as one stack; X and Y = pinv(X) share one as X and Y', and
``_transposed`` reads Y's chart from the chart of Y'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import IllConditionedPivot, RankMismatch, ShapeMismatch
from .matcore import RankInfo, as_stack, common_rank, ill_conditioned, rank_profile

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
    permutations one row per slice, and ``b[i]`` is the sub-stack (or the
    single chart) of the slices that ``i`` indexes along that axis.
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
        self._test_pivot()

    def _test_pivot(self) -> None:
        s = ill_conditioned(self.x11, rtol=1 / PIVOT_COND_CAP)
        if s is not None:  # reports the worst slice of a stack
            cond = np.max(s[..., 0] / np.maximum(s[..., -1], 1e-300))
            raise IllConditionedPivot(f"pivot block has condition {cond:.3e} > {PIVOT_COND_CAP:.0e}")

    q = property(lambda self: self.x11.shape[-1])
    n = property(lambda self: self.q + self.x21.shape[-2])
    m = property(lambda self: self.q + self.x12.shape[-1])

    @cached_property
    def w(self) -> np.ndarray:
        """W = X11^-1 X12, (..., q, m-q); Xp = [I; Z] X11 [I, W].  Taken once per chart."""
        return np.linalg.solve(self.x11, self.x12)

    @cached_property
    def z(self) -> np.ndarray:
        """Z = X21 X11^-1, (..., n-q, q).  Taken once per chart."""
        x11t, x21t = self.x11.swapaxes(-1, -2), self.x21.swapaxes(-1, -2)
        return np.linalg.solve(x11t, x21t).swapaxes(-1, -2)

    @cached_property
    def _stack(self) -> tuple:
        # Slice indices of a stack (none for one matrix), shaped (..., 1, 1).
        return np.indices(self.x11.shape[:-2] + (1, 1), sparse=True)[: self.x11.ndim - 2]

    def __len__(self) -> int:
        return len(_free_index(self.n, self.m, self.q)[0])

    def __getitem__(self, i) -> BlockDecomposition:
        # Blocks, permutations and any cached W and Z of the indexed slices,
        # without __post_init__: the stack has passed its tests already.
        if self.x11.ndim == 2:
            raise TypeError("a single chart has no slices to index")
        sub = object.__new__(BlockDecomposition)
        sub.__dict__.update((k, v[i]) for k, v in vars(self).items() if k != "_stack")
        return sub

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
    _require_rank(rank_profile(x), q)
    return _pivot(x, q)


def _require_rank(info: RankInfo, q: int) -> None:
    # decompose's rank test, of a rank profile the caller has taken already.
    rank = common_rank(info)
    if rank != q:
        raise RankMismatch(f"numerical rank {rank} != requested q={q}")


def _pivot(x: np.ndarray, q: int) -> BlockDecomposition:
    # decompose without its rank test, for a matrix or stack whose rank is q
    # by construction; the pivot block is still tested.
    n, m = x.shape[-2:]
    # All slices at once: slice t of a stack is pivoted as a matrix alone.  Each update
    # writes a new working copy, so x is never written.
    work = xs = x.reshape(-1, n, m)
    t = np.arange(len(xs))
    # Sort keys: pivots first in pivot order, then the other indices in
    # original order.
    row_key, col_key = (np.arange(q, q + size)[None].repeat(len(xs), 0) for size in (n, m))
    for step in range(q):
        i, j = np.divmod(np.abs(work).reshape(len(xs), -1).argmax(axis=1), m)
        pivot = work[t, i, j]
        if not pivot.all():
            raise IllConditionedPivot("ran out of nonzero pivots before reaching q")
        row_key[t, i], col_key[t, j] = step, step
        # The update zeroes the pivot row exactly (its multiplier is pivot /
        # pivot = 1), not the pivot column; only the keys are read after the last.
        if step < q - 1:
            work = work - (work[t, :, j] / pivot[:, None])[:, :, None] * work[t, i][:, None, :]
            work[t, :, j] = 0.0

    rp, cp = row_key.argsort(axis=1), col_key.argsort(axis=1)
    rp.flags.writeable = cp.flags.writeable = False
    xp = xs[t[:, None, None], rp[:, :, None], cp[:, None, :]].reshape(x.shape)
    # Built without __post_init__: argsort made the permutations; X11 is still tested.
    b, lead = object.__new__(BlockDecomposition), x.shape[:-2]
    b.__dict__.update(x11=xp[..., :q, :q].copy(), x12=xp[..., :q, q:].copy(),
                      x21=xp[..., q:, :q].copy(), row_perm=rp.reshape(lead + (n,)),
                      col_perm=cp.reshape(lead + (m,)))
    b._test_pivot()
    return b


def _transposed(b: BlockDecomposition) -> BlockDecomposition:
    # The chart of each slice's transpose, as views of b's: pivoting X' moves X'11 = X11'
    # to the top left with the permutations swapped, so X' has blocks X11', X21', X12' and
    # W = Z', Z = W' (the same solves, taken if b's are not).  Nothing is tested again.
    swap = {"x11": "x11", "x12": "x21", "x21": "x12", "w": "z", "z": "w"}
    t = object.__new__(BlockDecomposition)
    t.__dict__.update((swap[k], v.swapaxes(-1, -2)) for k, v in vars(b).items() if k in swap)
    t.__dict__.update(row_perm=b.col_perm, col_perm=b.row_perm)
    return t


def x22_from_blocks(b: BlockDecomposition) -> np.ndarray:
    """Dependent trailing block X21 @ inv(X11) @ X12 = X21 W; empty when q = n or q = m."""
    return b.x21 @ b.w


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
    # On a chart that keeps every row (n = q) I + Z'Z is I, and every
    # column (m = q) I + WW'; a solve against I is exact, so it is skipped.
    eye = np.eye(b.q)
    zt = np.linalg.solve(x11.swapaxes(-1, -2), x21.swapaxes(-1, -2))     # Z'
    rows = np.concatenate([np.broadcast_to(eye, zt.shape[:-1] + (b.q,)), zt], -1)
    if b.n > b.q:
        rows = np.linalg.solve(eye + zt @ zt.swapaxes(-1, -2), rows)   # (I + Z'Z)^-1 [I, Z']
    solved = np.linalg.solve(x11, np.concatenate([x12, rows], -1))
    w, core = np.split(solved, [x12.shape[-1]], -1)
    wt = w.swapaxes(-1, -2)
    if b.m > b.q:
        core = np.linalg.solve(eye + w @ wt, core)
    return _unpermute_pinv(b, np.concatenate([core, wt @ core], -2))


def _unpermute_pinv(b: BlockDecomposition, yp: np.ndarray) -> np.ndarray:
    # An m x n matrix (stack) in b's pivoted coordinates, transposed, at its original indices.
    y = np.empty(yp.shape, yp.dtype)
    y[(..., *b._stack, b.col_perm[..., :, None], b.row_perm[..., None, :])] = yp
    return y


def _pinv_tangent(b: BlockDecomposition, dx11, dx12, dx21) -> np.ndarray:
    # The forward-mode tangent of _pinv_blocks at b's blocks, d Xp+ (..., m, p, n), along p
    # directions laid out (..., rows, p, cols).  Each solve of _pinv_blocks, in its branches,
    # is d(M^-1 V) = M^-1 (dV - dM M^-1 V): W, Z from the chart, X11, I + Z'Z and I + WW'
    # inverted once per slice in one call, all p directions in one real matmul per factor.
    q, p, lead, eye, w, z = b.q, dx11.shape[-2], b.x11.shape[:-2], np.eye(b.q), b.w, b.z
    wt, zt = w.swapaxes(-1, -2), z.swapaxes(-1, -2)

    def flip(d):  # each direction transposed
        return d.swapaxes(-3, -1)

    def left(f, d):  # f times each direction
        r, c = f.shape[-2], d.shape[-1]
        return (f @ d.reshape(d.shape[:-3] + (d.shape[-3], -1))).reshape(lead + (r, p, c))

    def right(d, f):  # each direction times f
        r, c = d.shape[-3], f.shape[-1]
        return (d.reshape(d.shape[:-3] + (-1, d.shape[-1])) @ f).reshape(lead + (r, p, c))

    factors = [b.x11] + [eye + zt @ z] * (b.n > q) + [eye + w @ wt] * (b.m > q)
    x11_inv, *gram_inv = np.linalg.inv(np.stack(factors))
    dzt = left(x11_inv.swapaxes(-1, -2), flip(dx21) - right(flip(dx11), zt))
    dw = left(x11_inv, dx12 - right(dx11, w))
    rows = np.concatenate([np.broadcast_to(eye, zt.shape[:-1] + (q,)), zt], -1)
    drows = np.concatenate([np.zeros(lead + (q, p, q)), dzt], -1)
    if b.n > q:  # d(I + Z'Z) = dZ' Z + Z' dZ
        a_inv, da = gram_inv.pop(0), right(dzt, z)
        rows = a_inv @ rows
        drows = left(a_inv, drows - right(da + flip(da), rows))
    core = x11_inv @ rows
    dcore = left(x11_inv, drows - right(dx11, core))
    if b.m > q:  # d(I + WW') = dW W' + W dW'
        b_inv, db = gram_inv.pop(0), right(dw, wt)
        core = b_inv @ core
        dcore = left(b_inv, dcore - right(db + flip(db), core))
    return np.concatenate([dcore, right(flip(dw), core) + left(wt, dcore)], -3)


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


def _tangent_x22(b: BlockDecomposition, dx11, dx12, dx21) -> np.ndarray:
    # dX22 of free-block directions whose leading axes end with b's stack axes.
    return (dx21 - b.z @ dx11) @ b.w + b.z @ dx12


def tangent_perturbation(b: BlockDecomposition, dx11, dx12, dx21) -> np.ndarray:
    """Rank-preserving perturbation from free-block directions.

    The trailing block follows the product rule applied to the dependence
    X22 = X21 X11^-1 X12 = Z X11 W:

        dX22 = dX21 W - Z dX11 W + Z dX12 = (dX21 - Z dX11) W + Z dX12,

    with the chart's W and Z.  Each direction ends in exactly its block's
    shape, of a stacked ``b`` with its stack axis, else ShapeMismatch; the
    same leading axes on all three give a stack (k, [T,] n, m).
    """
    dx11, dx12, dx21 = (np.asarray(a, dtype=float) for a in (dx11, dx12, dx21))
    lead = dx11.shape[: max(dx11.ndim - b.x11.ndim, 0)]
    for name, a, block in (("dX11", dx11, b.x11), ("dX12", dx12, b.x12), ("dX21", dx21, b.x21)):
        if a.shape != lead + block.shape:
            raise ShapeMismatch(f"{name} must be {'x'.join(map(str, block.shape))}, got {a.shape}")
    return _unpermute(b, dx11, dx12, dx21, _tangent_x22(b, dx11, dx12, dx21))


def log_chart_volume(b: BlockDecomposition):
    """V(b) = (n-q)/2 log det(I + W'W) + (m-q)/2 log det(I + Z Z'), one per slice of a stack.

    The log volume element of the chart: the map from b's free coordinates
    to the n x m matrix has det(T'T) = det(I + W'W)^(n-q) det(I + Z Z')^(m-q),
    so by the area formula a map f between rank-q matrices that keeps the
    Frobenius metric (an orthogonal sandwich) has chart Jacobian
    |det| = exp(V(in chart) - V(out chart)).  0 on a full chart.
    """
    q, n, m, w, z = b.q, b.n, b.m, b.w, b.z
    return (0.5 * (n - q) * np.linalg.slogdet(np.eye(m - q) + w.swapaxes(-1, -2) @ w)[1]
            + 0.5 * (m - q) * np.linalg.slogdet(np.eye(n - q) + z @ z.swapaxes(-1, -2))[1])


def _delta_blocks(b: BlockDecomposition, deltas: np.ndarray) -> tuple:
    # dX11, dX12, dX21 of ``deltas`` ([p,] [T,] k) in ``b.coordinates`` order (each block
    # column-major), laid out ([T,] rows, p, cols), p = 1 without it, and C-contiguous.
    lead_b = b.x11.shape[:-2]
    stack = deltas.shape[deltas.ndim - 1 - len(lead_b):-1]
    if deltas.ndim - len(lead_b) not in (1, 2) or stack != lead_b or deltas.shape[-1] != len(b):
        raise ShapeMismatch(f"expected {len(b)} deltas, got {deltas.shape}")
    d = deltas[..., None, :] if deltas.ndim == len(lead_b) + 1 else np.moveaxis(deltas, 0, -2)
    q, n, m, p = b.q, b.n, b.m, d.shape[-2]
    return tuple(np.ascontiguousarray(d[..., start:stop].reshape(lead_b + (p, cols, rows))
                                      .swapaxes(-3, -2).swapaxes(-3, -1))
                 for start, stop, rows, cols in ((0, q * q, q, q), (q * q, q * m, q, m - q),
                                                 (q * m, None, n - q, q)))
