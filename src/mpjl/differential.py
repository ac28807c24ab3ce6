"""Differential of the Moore-Penrose inverse and its Jacobian operator.

For Y = pinv(X) the matrix of differentials is

    dY = -Y dX Y + Y Y' dX' (I_n - X Y) + (I_m - Y X) dX' Y' Y,

valid where the rank is locally constant.  With P_L = I_n - X Y and
P_R = I_m - Y X, its transpose reads

    dY' = -Y' dX' Y' + P_L dX Y Y' + Y' Y dX P_R,

and the bilinear form tr(E' dY'(F)) is symmetric in E and F, because P_L,
P_R, Y Y' and Y' Y are symmetric.  So the nm x nm matrix S of dX -> dY'
in row-major coordinates, S @ dX.ravel() = dY'.ravel() (that is,
S vec(dX') = vec(dY)), is symmetric, and its singular values are the
absolute values of its eigenvalues.  With vec(A B C) = (C' kron A) vec(B)
and the commutation matrix K, K vec(dX') = vec(dX), S is

    -(Y' kron Y) K + (I_n - X Y) kron (Y Y') + (Y' Y) kron (I_m - Y X).

Spectrum theorem.  Split the full SVD X = U diag(D, 0) V' after the q
retained singular values D: U = [U1 U2], V = [V1 V2].  S maps each of
col(X) kron row(X), null(X') kron row(X), col(X) kron null(X) and
null(X') kron null(X) (U1 kron V1, U2 kron V1, U1 kron V2, U2 kron V2)
into itself: P_L vanishes on col(X), Y on null(X'), and Y Y', Y' Y map
into row(X), col(X).  In that basis S is a signed, scaled permutation:
dY'[l, k] = -dX[k, l] / (d_l d_k) when l, k < q (the commutation matrix K
on col(X) kron row(X)), dX[l, k] / d_min(l,k)^2 when one of l, k is < q,
and 0 when neither is.  Each entry pairs with its transpose when l, k < q
and with itself otherwise, so the nonzero singular values are 1/(d_i d_j)
over all q^2 pairs and d_i^-2, each with multiplicity n+m-2q: nq+mq-q^2
values in all.  Their product is prod d_i^-2(n+m-q), the rank-deficient
change-of-variables factor; at full rank it is |X'X|^-n (tall) or
|XX'|^-m (wide).  It grows like d^(nm), so it is only taken as a log.
``operator_spectrum`` and ``operator_log_pdet`` use this from the
caller's rank profile of X, that of the one SVD of X the caller takes
(which may also give Y: ``matcore.pinv_rank``, ``svd_full``;
``pinv_differential`` takes the Y of such an SVD through its core).

The oracle reads S(U'XV, V'YU) = (U kron V)' S (U kron V) from its factors
(``pair_block_profile``; only the tests build S densely): with
L = P_L, A = Y Y', B = Y'Y, R = P_R and C(P, Q)[l, k, i, j] = P[j, l] Q[k,
i], S = L kron A + B kron R - C(Y, Y).  The 1x1 and 2x2 pair blocks are read
in closed form, and the rest E is measured: by Weyl's inequality every
eigenvalue of S lies within ||E||_F of their spectrum.  <P kron Q, P' kron
Q'> = <C(P, Q), C(P', Q')> = <P, P'><Q, Q'> and <F kron G, C(P, Q)> = <F Q',
(G P)'> give the norms in O(nm(n+m)).  S0 = Ld kron Ad + Bd kron Rd - C(Yd,
Yd) (d: the diagonals, of Y its first q) lies on the pair pattern, and S - S0
= Lo kron A + Ld kron Ao + Bo kron R + Bd kron Ro - C(Yo, Y) - C(Yd, Yo) (o:
the rest) is small, so ||E||^2, its norm less its pattern entries, cancels
against no large term; ||S||^2 adds the pattern's squares.

The derivative oracles of pinv are a complex step (Squire & Trapp 1998;
Al-Mohy & Higham 2010): ``chart.pinv_from_blocks`` is analytic in the free
blocks, which keep the rank of the base point, so Im f(b + i h e) / h,
h = 1e-20 max|X|, is the derivative along the chart direction e to
rounding error, with no subtraction (``pinv_complex_step``, and
``pinv_chart_jacobian`` along the unit directions).  An orthogonal
sandwich X -> H X Q is linear, so its chart Jacobian needs no step at all:
``sandwich_chart_jacobian`` maps the chart's exact tangents
(``chart.tangent_perturbation``), and the area formula
(``chart.log_chart_volume``) is its closed form.  Its two charts may be
sub-stacks ``b[0]``, ``b[1]`` of one pivoted stack, which keep its W and Z.

Every function here also takes a stack (T, n, m) (``pair_block_profile``
only a stack), one result per slice under ``matcore``'s bit rule.
"""

from __future__ import annotations

import numpy as np

from .chart import (
    BlockDecomposition, _free_index, _moved_blocks, _pinv_blocks, _tangent_x22, assemble,
)
from .errors import NotFullRank, ShapeMismatch
from .matcore import RankInfo, _rank_info, as_stack, common_rank, gram_qr, pinv


def pinv_differential(x, dx) -> np.ndarray:
    """Analytic differential of the pseudoinverse at X along dX, one per slice of a stack."""
    x = as_stack(x)
    dx = as_stack(dx)
    if dx.shape != x.shape:
        raise ShapeMismatch(f"dX shape {dx.shape} != X shape {x.shape}")
    return _pinv_differential(x, pinv(x), dx)


def _pinv_differential(x: np.ndarray, y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    # pinv_differential at X along dX of the same shape, with Y = pinv(X) given.
    n, m = x.shape[-2:]
    yt, dxt = y.swapaxes(-1, -2), dx.swapaxes(-1, -2)
    left_proj = np.eye(n) - x @ y
    right_proj = np.eye(m) - y @ x
    return -y @ dx @ y + y @ yt @ dxt @ left_proj + right_proj @ dxt @ yt @ y


def _pair_factors(x, y) -> tuple[np.ndarray, np.ndarray]:
    # (P_L, Y'Y) and (Y Y', P_R) on axis -3, symmetric in exact arithmetic and taken so in
    # floating point: S is then exactly symmetric, one triangle of S holding all of it.
    n, m = x.shape[-2:]
    yt = y.swapaxes(-1, -2)
    lb, ar = np.stack([np.eye(n) - x @ y, yt @ y], -3), np.stack([y @ yt, np.eye(m) - y @ x], -3)
    return 0.5 * (lb + lb.swapaxes(-1, -2)), 0.5 * (ar + ar.swapaxes(-1, -2))


def _sums(a: np.ndarray) -> np.ndarray:
    # The sum of each slice of a stack (T, ...), along its C order (matcore's bit rule).
    return a.reshape(len(a), -1).sum(axis=-1)


def _norm2(p, r, cp, cq) -> np.ndarray:
    # ||sum_a p_a kron r_a - sum_c C(cp_c, cq_c)||^2 per slice of (T, a, n', n), (T, a, m', m),
    # (T, c, m, n'), (T, c, m', n) stacks, by the identities above; for each c, one matmul
    # per slice gives every p_a cq_c' (the a stacked by rows), one every r_a cp_c.
    (t, a, n0, n), (m0, m) = p.shape, r.shape[2:]
    gp, gr, gcp, gcq = ((v := f.reshape(t, f.shape[1], -1)) @ v.swapaxes(-1, -2)
                        for f in (p, r, cp, cq))
    cross = 0.0
    for pc, qc in zip(cp.swapaxes(0, 1), cq.swapaxes(0, 1)):
        f = (p.reshape(t, a * n0, n) @ qc.swapaxes(-1, -2)).reshape(t, a, n0, m0)
        f *= (r.reshape(t, a * m0, m) @ pc).reshape(t, a, m0, n0).swapaxes(-1, -2)
        cross = cross + _sums(f)
    return _sums(gp * gr) + _sums(gcp * gcq) - 2.0 * cross


def pair_block_profile(x: np.ndarray, y: np.ndarray, q: int):
    """The RankInfo of S's pair blocks, cut as an nm x nm operator's, and the norms (||S||,
    ||S on the normal space||, ||E||) of a stack (T, n, m), (T, m, n) of rotated pairs (U'XV,
    V'YU) of rank q, read from S's factors (see above), S[l, k, i, j] the entry that maps
    dX[i, j] to dY'[l, k]."""
    t, n, m = x.shape
    lb, ar = _pair_factors(x, y)
    yq = np.diagonal(y, axis1=-2, axis2=-1)[:, :q]
    diag = (np.diagonal(lb, 0, -2, -1)[..., :, None] * np.diagonal(ar, 0, -2, -1)[..., None, :]
            ).sum(axis=1) - y.swapaxes(-1, -2) ** 2  # S[l, k, l, k]
    kron = (lb[..., :q, :q] * ar[..., :q, :q]).sum(axis=1)  # (LA + BR)[l, k, k, l], l, k < q
    swap = kron - yq[:, :, None] * yq[:, None, :]  # S[l, k, k, l]
    block, sign = diag[:, :q, :q], np.sign(np.arange(q) - np.arange(q)[:, None])  # sign(k - l)
    values, other = np.abs(diag), block.swapaxes(-1, -2)  # at l = k, sign 0 keeps diag
    values[:, :q, :q] = np.abs(0.5 * (block + other) + sign * np.hypot(0.5 * (block - other), swap))
    info = _rank_info(np.sort(values.reshape(t, -1), axis=-1)[:, ::-1].copy(), (n * m, n * m))
    eye, yd = np.eye(max(n, m), dtype=bool), np.eye(m, n, dtype=bool) & (np.arange(n) < q)
    p = np.where(np.stack([eye[:n, :n], ~eye[:n, :n]])[:, None], 0.0, lb[:, None])  # Lo Bo Ld Bd
    r = np.where(np.stack([eye[:m, :m] & False, eye[:m, :m]])[:, None], 0.0, ar[:, None])  # A R Ao Ro
    c = np.where(np.stack([yd & False, yd, ~yd]), 0.0, y[:, None])  # Y Yo Yd: C(Yo, Y), C(Yd, Yo)
    leak = (_norm2(p.reshape(t, 4, n, n), r.reshape(t, 4, m, m), c[:, 1:], c[:, :2])
            - _sums(np.square(c[:, 1]) ** 2) - _sums((sign * kron) ** 2))
    normal = _norm2(lb[:, :, q:], ar[:, :, q:], y[:, None, :, q:], y[:, None, q:, :])
    # A norm below the rounding of its Gram sum may read a tiny negative square.
    leak, normal = np.maximum(leak, 0.0), np.maximum(normal, 0.0)
    norm = np.sqrt(_sums(diag**2) + _sums((sign * swap) ** 2) + leak)
    return info, (norm, np.sqrt(normal), np.sqrt(leak))


def operator_spectrum(x: np.ndarray, info: RankInfo) -> np.ndarray:
    """Nonzero singular values of the Jacobian operator, in decreasing order.

    ``info`` is ``rank_profile(x)``; no further factorization is made (see
    the spectrum theorem above): 1/(d_i d_j) for all q^2 pairs of retained
    singular values and d_i^-2 with multiplicity n+m-2q, so nq+mq-q^2
    values in all.  The slices of a stack must share one rank.
    """
    n, m = x.shape[-2:]
    q = common_rank(info)
    inv = 1.0 / info.singular_values[..., :q]
    pairs = (inv[..., :, None] * inv[..., None, :]).reshape(inv.shape[:-1] + (q * q,))
    values = np.concatenate([pairs, (inv**2).repeat(n + m - 2 * q, axis=-1)], axis=-1)
    values.sort(axis=-1)
    return np.ascontiguousarray(values[..., ::-1])  # see matcore's bit rule


def operator_log_pdet(x: np.ndarray, info: RankInfo):
    """Sum of the logs of :func:`operator_spectrum`: the log pseudo-determinant."""
    return np.log(operator_spectrum(x, info)).sum(axis=-1)


def log_jacobian_det_full_rank(x: np.ndarray, info: RankInfo):
    """Closed-form log|det| for full-rank X: -n log|X'X| when m <= n, else -m log|XX'|.

    ``info`` is ``rank_profile(x)``; below full rank it raises NotFullRank.
    The Gram determinant comes from a QR of X (``matcore.gram_qr``), so it is
    independent of the SVD that ``info`` and :func:`operator_log_pdet` read.
    """
    n, m = x.shape[-2:]
    rank = common_rank(info)
    if rank != min(n, m):
        raise NotFullRank(f"rank {rank} < min(n, m) = {min(n, m)}")
    return -max(n, m) * gram_qr(x)[1]


# ---------------------------------------------------------------------------
# Chart-to-chart Jacobians.

class OrthogonalSandwichMap:
    """X -> H X Q with fixed orthogonal H (n x n) and Q (m x m), or stacks of them."""

    def __init__(self, left, right):
        self.left = as_stack(left)
        self.right = as_stack(right)
        for name, f in (("left", self.left), ("right", self.right)):
            if f.shape[-1] != f.shape[-2]:
                raise ShapeMismatch(f"{name} factor must be square, got {f.shape}")
            gap = np.max(np.abs(f.swapaxes(-1, -2) @ f - np.eye(f.shape[-1])))
            if gap > 1e-12:
                raise ValueError(f"{name} factor deviates from orthogonality by {gap:.2e}")

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.left @ x @ self.right


def _check_base(x: np.ndarray, in_chart: BlockDecomposition) -> None:
    scale = np.maximum(np.max(np.abs(x), axis=(-2, -1)), 1e-12)
    if np.any(np.max(np.abs(assemble(in_chart) - x), axis=(-2, -1)) > 1e-8 * scale):
        raise ShapeMismatch("in_chart does not reassemble the given X")


def sandwich_chart_jacobian(f: OrthogonalSandwichMap, in_chart: BlockDecomposition,
                            out_chart: BlockDecomposition) -> np.ndarray:
    """Partial derivatives of out-chart coordinates of f with respect to
    in-chart coordinates, exact to rounding: f is linear, so column c is the
    out-chart coordinates of H T_c Q, T_c the tangent along in-chart
    coordinate c.  For equal-size charts the absolute determinant of the
    returned ([T,] k, k) matrix is the chart-to-chart Jacobian of f.

    The k unit directions, of stacked charts and factors (T slices each)
    those of every slice, form one (k, [T,] n, m) stack of tangents, taken
    in the in-chart's pivoted coordinates, where H X Q = H[:, row_perm] Xp
    Q[col_perm, :]; no point is assembled and no pivot is tested.
    """
    b = in_chart
    q, n, m, k = b.q, b.n, b.m, len(b)
    rows, cols = _free_index(n, m, q)
    tangents = np.zeros((k,) + b.x11.shape[:-2] + (n, m))
    tangents[np.arange(k), ..., rows, cols] = 1.0
    tangents[..., q:, q:] = _tangent_x22(b, tangents[..., :q, :q], tangents[..., :q, q:],
                                         tangents[..., q:, :q])
    left = np.take_along_axis(f.left, b.row_perm[..., None, :], -1)
    right = np.take_along_axis(f.right, b.col_perm[..., :, None], -2)
    return np.moveaxis(out_chart.coordinates(left @ tangents @ right), 0, -1)


def pinv_complex_step(x, in_chart: BlockDecomposition, deltas) -> np.ndarray:
    """Derivatives of pinv(X) along chart directions, by complex step.

    ``deltas`` is (p, [T,] k) or ([T,] k) in ``in_chart.coordinates`` order,
    one direction per row, with the stack axis of a stack (T, n, m) and its
    chart.  The points b + i h delta, each slice stepped by its own
    h = 1e-20 max|X|, have their pseudoinverses taken in the factored block
    form (see ``chart.pinv_from_blocks``), which keeps the rank at q with no
    SVD and no pivot test per point; Im pinv / h, of shape (p, [T,] m, n) or
    ([T,] m, n), is the derivative to rounding error.
    """
    x = as_stack(x)
    _check_base(x, in_chart)
    h = 1e-20 * np.max(np.abs(x), axis=(-2, -1))
    y = _pinv_blocks(in_chart, *_moved_blocks(in_chart, 1j * h[..., None] * deltas))
    return y.imag / h[..., None, None]


def pinv_chart_jacobian(x, in_chart: BlockDecomposition,
                        out_chart: BlockDecomposition) -> np.ndarray:
    """Partial derivatives of out-chart coordinates of pinv(X) with respect to
    in-chart coordinates: :func:`pinv_complex_step` along the k unit
    directions, a (k, [T,] k) stack.  For equal-size charts its absolute
    determinant is the chart-to-chart Jacobian of X -> pinv(X).
    """
    k = len(in_chart)
    units = np.moveaxis(np.broadcast_to(np.eye(k), np.shape(x)[:-2] + (k, k)), -2, 0)
    return np.moveaxis(out_chart.coordinates(pinv_complex_step(x, in_chart, units)), 0, -1)
