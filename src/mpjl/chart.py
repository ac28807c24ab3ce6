"""Block parameterization of rank-q matrices: the free-coordinate chart.

After row and column permutations that move a well-conditioned q x q block
to the top left, an n x m matrix of rank q is

    Xp = [[X11, X12],
          [X21, X22]]      with X22 = X21 @ inv(X11) @ X12,

so the nq + mq - q^2 entries of X11, X12, X21 are free coordinates.
``BlockDecomposition`` is that chart: the free blocks and the two permutations,
stored and never applied.  ``coordinates`` gathers through them, and one
scatter, ``_place``, writes every pivoted result back to the original indices:
pinv(X) as pinv(X)', by X's permutations (see below).  X11 is tested once, when
the chart is built, and W = X11^-1 X12 and Z = X21 X11^-1 are solved for once.

Conditioning policy: X11 is the one block whose invertibility is tested.
It fails when ``s[-1] <= s[0] / PIVOT_COND_CAP`` (its singular values), and
a stack fails when any one of its slices would fail alone.

One function evaluates the factored pseudoinverse (``pinv_from_blocks``) or
its forward-mode tangent along chart directions, laid out as column blocks
([T,] rows, p, cols) so that each factor takes them all in one matmul
(``pinv_chart_derivative``).  The two chart-to-chart Jacobians map the k unit
directions, built once per shape with no stack axis: of pinv
(``pinv_chart_jacobian``) and of the linear sandwich X -> H X Q
(``sandwich_chart_jacobian``), each the derivative to rounding error, with no
step.  The sandwich's is read in a second chart, of H X Q, and the area
formula (``log_chart_volume``) is its closed form.  Pinv's is read in X's own
chart: with X = U D V', pinv(X)' = U D^-1 V' has X's column and row spaces, so
on X's pivots it has X's W and Z, its pivot block is invertible exactly when
X11 is, the two charts' volumes cancel, and |det| is the factor
prod d_i^-2(n+m-q) alone.  A chart without Z (n = q) or W (m = q) takes no
solve and does no work on it.  The tests hold them to a complex step and to
central differences.  Every function takes a stack (T, n, m) under
``matcore``'s bit rule; ``b[i]`` gives slices of a stacked chart with its
cached W and Z and no second pivot test."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import IllConditionedPivot, ShapeMismatch
from .matcore import _read_only, as_stack, rank_profile, require_rank

# Condition-number cap on the pivot block; beyond it the rank hypothesis is
# too close to violated for chart arithmetic to mean anything.
PIVOT_COND_CAP = 1e8


@cache
def _free_index(n: int, m: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    # Permuted-coordinate rows and columns of the free coordinates: X11
    # column-major, then X12 column-major, then X21 column-major.
    flat = np.arange(n * m).reshape(n, m)
    index = np.concatenate([flat[:q, :q].T, flat[:q, q:].T, flat[q:, :q].T], None)
    return _read_only(*np.divmod(index, m))


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
        s = np.linalg.svd(self.x11, compute_uv=False)
        if s.size and np.any(s[..., -1] <= 1 / PIVOT_COND_CAP * s[..., 0]):  # names the worst slice
            cond = np.max(s[..., 0] / np.maximum(s[..., -1], 1e-300))
            raise IllConditionedPivot(f"pivot block has condition {cond:.3e} > {PIVOT_COND_CAP:.0e}")

    q = property(lambda self: self.x11.shape[-1])
    n = property(lambda self: self.q + self.x21.shape[-2])
    m = property(lambda self: self.q + self.x12.shape[-1])

    @cached_property
    def w(self) -> np.ndarray:
        """W = X11^-1 X12, (..., q, m-q); Xp = [I; Z] X11 [I, W].  Taken once per chart,
        and with no solve when m = q: then W is the empty X12."""
        return np.linalg.solve(self.x11, self.x12) if self.x12.size else self.x12

    @cached_property
    def z(self) -> np.ndarray:
        """Z = X21 X11^-1, (..., n-q, q).  Taken once per chart, with no solve when n = q."""
        x11t, x21t = self.x11.swapaxes(-1, -2), self.x21.swapaxes(-1, -2)
        return np.linalg.solve(x11t, x21t).swapaxes(-1, -2) if self.x21.size else self.x21

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
    require_rank(rank_profile(x), q)
    return _pivot(x, q)


def _pivot(x: np.ndarray, q: int) -> BlockDecomposition:
    # decompose without its rank test, for a matrix or stack whose rank is q
    # by construction; the pivot block is still tested.
    n, m = x.shape[-2:]
    # All slices at once: slice t of a stack is pivoted as a matrix alone.  Each update
    # writes a new working copy, so x is never written.
    work = xs = x.reshape(-1, n, m)
    t = np.arange(len(xs))
    pivots = np.empty((2, q, len(xs)), np.intp)  # the pivots' rows and columns, step by step
    for step in range(q):
        i, j = pivots[:, step] = np.divmod(np.abs(work).reshape(len(xs), -1).argmax(axis=1), m)
        pivot = work[t, i, j]
        if not pivot.all():
            raise IllConditionedPivot("ran out of nonzero pivots before reaching q")
        # The update zeroes the pivot row exactly (its multiplier is pivot /
        # pivot = 1), not the pivot column; only the pivots are read after the last.
        if step < q - 1:
            work = work - work[t, :, j, None] / pivot[:, None, None] * work[t, None, i]
            work[t, :, j] = 0.0
    # Sort keys: pivots first in pivot order, then the other indices in original order.
    row_key, col_key = (np.arange(q, q + size)[None].repeat(len(xs), 0) for size in (n, m))
    row_key[t, pivots[0]] = col_key[t, pivots[1]] = np.arange(q)[:, None]
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


def x22_from_blocks(b: BlockDecomposition) -> np.ndarray:
    """Dependent trailing block X21 @ inv(X11) @ X12 = X21 W; empty when q = n or q = m."""
    return b.x21 @ b.w


def _place(b: BlockDecomposition, ap: np.ndarray) -> np.ndarray:
    # Matrices (..., n, m) in b's pivoted coordinates, their leading axes ending with b's
    # stack axes (or without them), at their original indices and in the layout of ``ap``.
    a = np.empty_like(ap)
    a[(..., *b._stack, b.row_perm[..., :, None], b.col_perm[..., None, :])] = ap
    return a


def _unpermute(b: BlockDecomposition, a11, a12, a21, a22) -> np.ndarray:
    return _place(b, np.concatenate([np.concatenate([a11, a12], -1),
                                     np.concatenate([a21, a22], -1)], -2))


def assemble(b: BlockDecomposition) -> np.ndarray:
    """Rebuild the full matrix, trailing block filled from the dependence rule."""
    return _unpermute(b, b.x11, b.x12, b.x21, x22_from_blocks(b))


def _blocks(d: np.ndarray, n: int, m: int, q: int) -> tuple:
    # dX11, dX12, dX21 of chart directions d (..., p, k) in coordinates order (each block
    # column-major), laid out (..., rows, p, cols) and C-contiguous.
    lead, p = d.shape[:-2], d.shape[-2]
    return tuple(np.ascontiguousarray(d[..., start:stop].reshape(lead + (p, cols, rows))
                                      .swapaxes(-3, -2).swapaxes(-3, -1))
                 for start, stop, rows, cols in ((0, q * q, q, q), (q * q, q * m, q, m - q),
                                                 (q * m, None, n - q, q)))


@cache
def _unit_blocks(n: int, m: int, q: int) -> tuple:
    # _blocks of the k unit chart directions, with no stack axis: a matmul broadcasts them
    # over a stack.
    return _read_only(*_blocks(np.eye(n * q + m * q - q * q), n, m, q))


def _delta_blocks(b: BlockDecomposition, deltas: np.ndarray) -> tuple:
    # _blocks of ``deltas`` ([p,] [T,] k), laid out ([T,] rows, p, cols), p = 1 without it.
    lead = b.x11.shape[:-2]
    if deltas.ndim - len(lead) not in (1, 2) or deltas.shape[-1 - len(lead):] != lead + (len(b),):
        raise ShapeMismatch(f"expected {len(b)} deltas, got {deltas.shape}")
    d = deltas[..., None, :] if deltas.ndim == len(lead) + 1 else np.moveaxis(deltas, 0, -2)
    return _blocks(d, b.n, b.m, b.q)


def _left(f: np.ndarray, d: np.ndarray) -> np.ndarray:
    # f times each direction of d (..., rows, p, cols): one matmul per slice.
    r, p, c = d.shape[-3:]
    a = f @ d.reshape(d.shape[:-3] + (r, p * c))
    return a.reshape(a.shape[:-1] + (p, c))


def _right(d: np.ndarray, f: np.ndarray) -> np.ndarray:
    # Each direction of d (..., rows, p, cols) times f: one matmul per slice.
    r, p, c = d.shape[-3:]
    a = d.reshape(d.shape[:-3] + (r * p, c)) @ f
    return a.reshape(a.shape[:-2] + (r, p, f.shape[-1]))


def _pinv_tangent(b: BlockDecomposition, *d) -> np.ndarray:
    # The factored pseudoinverse at b's blocks, Xp+ (..., m, n) in b's pivoted coordinates,
    # or with directions d = (dX11, dX12, dX21) laid out ([T,] rows, p, cols), the stack
    # axis optional, its forward-mode tangent d Xp+ (..., m, p, n).  X11, I + Z'Z and
    # I + WW' are inverted once per slice in one call; a chart that keeps every row (n = q)
    # has Z empty and I + Z'Z = I, one that keeps every column W empty and I + WW' = I:
    # neither is formed, and no work is done on the empty blocks.  Each inverse M^-1 V has
    # the tangent d(M^-1 V) = M^-1 (dV - dM M^-1 V).  Plain transposes, inverses and
    # products only, so complex blocks pass through.
    q, eye, w, z = b.q, np.eye(b.q), b.w, b.z
    wt, zt = w.swapaxes(-1, -2), z.swapaxes(-1, -2)
    has_z, has_w = b.n > q, b.m > q

    def flip(a):  # each direction transposed
        return a.swapaxes(-3, -1)

    factors = [b.x11] + [eye + zt @ z] * has_z + [eye + w @ wt] * has_w
    x11_inv, *grams = np.linalg.inv(np.stack(factors))
    a_inv, b_inv = grams[0] if has_z else None, grams[-1] if has_w else None
    rows = np.concatenate([np.broadcast_to(eye, zt.shape[:-1] + (q,)), zt], -1) if has_z else eye
    rows_a = a_inv @ rows if has_z else rows
    core_x = x11_inv @ rows_a
    core = b_inv @ core_x if has_w else core_x
    if not d:
        return np.concatenate([core, wt @ core], -2) if has_w else core
    dx11, dx12, dx21 = d
    drows = 0.0  # the tangent of rows = I at n = q
    if has_z:
        dzt = _left(x11_inv.swapaxes(-1, -2), flip(dx21) - _right(flip(dx11), zt))
        drows = np.concatenate([np.zeros(dzt.shape[:-1] + (q,)), dzt], -1)
        da = _right(dzt, z)  # d(I + Z'Z) = dZ' Z + Z' dZ
        drows = _left(a_inv, drows - _right(da + flip(da), rows_a))
    dcore = _left(x11_inv, drows - _right(dx11, core_x))
    if not has_w:
        return dcore
    dw = _left(x11_inv, dx12 - _right(dx11, w))
    db = _right(dw, wt)  # d(I + WW') = dW W' + W dW'
    dcore = _left(b_inv, dcore - _right(db + flip(db), core))
    return np.concatenate([dcore, _right(flip(dw), core) + _left(wt, dcore)], -3)


def pinv_from_blocks(b: BlockDecomposition) -> np.ndarray:
    """Closed-form pseudoinverse from the free blocks alone, of a stack slice by slice.

    Xp = [I; Z] X11 [I, W] gives Xp+ = [I; W'] (I + W W')^-1 X11^-1 (I + Z'Z)^-1 [I, Z']
    in permuted coordinates, carried back to the original indices.  X11 enters once,
    never squared, and I + W W' and I + Z'Z have every eigenvalue >= 1, so nothing else
    can be singular.  :func:`pinv_chart_derivative` differentiates this value.
    """
    return _place(b, _pinv_tangent(b).swapaxes(-1, -2)).swapaxes(-1, -2)


def pinv_chart_derivative(in_chart: BlockDecomposition, deltas) -> np.ndarray:
    """Derivatives of pinv along chart directions at the chart's point: the forward-mode
    tangent of the factored block pseudoinverse (:func:`pinv_from_blocks`), which keeps
    the rank at q.

    ``deltas`` is (p, [T,] k) or ([T,] k) in ``in_chart.coordinates`` order, one direction
    per row, with the stack axis of a stacked chart; the result, (p, [T,] m, n) or ([T,] m,
    n), is the derivative to rounding error, with no SVD and no pivot test.
    """
    deltas = np.asarray(deltas, dtype=float)
    dyp = _pinv_tangent(in_chart, *_delta_blocks(in_chart, deltas))
    dy = _place(in_chart, np.moveaxis(dyp, -2, 0).swapaxes(-1, -2)).swapaxes(-1, -2)
    return dy if deltas.ndim > in_chart.x11.ndim - 1 else dy[0]


def pinv_chart_jacobian(b: BlockDecomposition) -> np.ndarray:
    """Partial derivatives of b's coordinates of pinv(X)' with respect to b's coordinates of
    X, at b's point: :func:`pinv_chart_derivative` along the k unit directions, a ([T,] k, k)
    stack.  Its absolute determinant is the chart-to-chart Jacobian of X -> pinv(X).

    Y' = pinv(X)' has X's column and row spaces, so b is a chart of Y' as well (see the
    module docstring): its pivot block Y'11 is invertible exactly when X11 is.
    """
    dyp = _pinv_tangent(b, *_unit_blocks(b.n, b.m, b.q))
    rows, cols = _free_index(b.n, b.m, b.q)  # Y' at (rows, cols) is Yp at (cols, rows)
    return dyp.swapaxes(-1, -2)[..., cols, rows, :]


def _tangent_x22(b: BlockDecomposition, dx11, dx12, dx21) -> np.ndarray:
    # dX22 of free-block directions laid out (..., rows, p, cols), the leading axes ending
    # with b's stack axes (or without them).
    return _right(dx21 - _left(b.z, dx11), b.w) + _left(b.z, dx12)


def sandwich_chart_jacobian(h: np.ndarray, qmat: np.ndarray, in_chart: BlockDecomposition,
                            out_chart: BlockDecomposition) -> np.ndarray:
    """Partial derivatives of out-chart coordinates of X -> H X Q, for any H and Q of the
    in-chart's stack shape, ([T,] n, n) and ([T,] m, m), else ShapeMismatch, with respect to
    in-chart coordinates, exact to rounding: the map is linear, so column c is the out-chart
    coordinates of H T_c Q, T_c the tangent along in-chart coordinate c.  For equal-size
    charts the absolute determinant of the returned ([T,] k, k) matrix is the chart-to-chart
    Jacobian of the map.

    The k unit tangents of every slice are column blocks ([T,] n, k, m) in the in-chart's
    pivoted coordinates, where H X Q = H[:, row_perm] Xp Q[col_perm, :], so each factor
    takes all k in one matmul per slice.  No point is assembled and no pivot is tested.
    """
    b, units = in_chart, _unit_blocks(in_chart.n, in_chart.m, in_chart.q)
    q, n, m, k, lead = b.q, b.n, b.m, len(b), b.x11.shape[:-2]
    h, qmat = np.asarray(h, dtype=float), np.asarray(qmat, dtype=float)
    if h.shape != lead + (n, n) or qmat.shape != lead + (m, m):
        raise ShapeMismatch(f"expected H {lead + (n, n)} and Q {lead + (m, m)}, "
                            f"got {h.shape} and {qmat.shape}")
    tangents = np.zeros(lead + (n, k, m))
    tangents[..., :q, :, :q], tangents[..., :q, :, q:], tangents[..., q:, :, :q] = units
    tangents[..., q:, :, q:] = _tangent_x22(b, *units)
    left = np.take_along_axis(h, b.row_perm[..., None, :], -1)
    right = np.take_along_axis(qmat, b.col_perm[..., :, None], -2)
    out, images = out_chart, _right(_left(left, tangents), right)  # at original indices
    rows, cols = _free_index(n, m, out.q)
    stack = (s[..., 0] for s in out._stack)
    return images[(*stack, out.row_perm[..., rows], slice(None), out.col_perm[..., cols])]


def tangent_perturbation(b: BlockDecomposition, dx11, dx12, dx21) -> np.ndarray:
    """Rank-preserving perturbation from free-block directions: the trailing block follows
    the product rule applied to X22 = X21 X11^-1 X12 = Z X11 W, with the chart's W and Z,

        dX22 = dX21 W - Z dX11 W + Z dX12 = (dX21 - Z dX11) W + Z dX12.

    Each direction ends in exactly its block's shape, of a stacked ``b`` with its stack
    axis, else ShapeMismatch; the same leading axes on all three give a stack (k, [T,] n, m).
    """
    dx11, dx12, dx21 = (np.asarray(a, dtype=float) for a in (dx11, dx12, dx21))
    lead = dx11.shape[: max(dx11.ndim - b.x11.ndim, 0)]
    for name, a, block in (("dX11", dx11, b.x11), ("dX12", dx12, b.x12), ("dX21", dx21, b.x21)):
        if a.shape != lead + block.shape:
            raise ShapeMismatch(f"{name} must be {'x'.join(map(str, block.shape))}, got {a.shape}")
    dx22 = _tangent_x22(b, dx11[..., None, :], dx12[..., None, :], dx21[..., None, :])
    return _unpermute(b, dx11, dx12, dx21, dx22[..., 0, :])


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
