"""Differential of the Moore-Penrose inverse and its Jacobian operator.

For Y = pinv(X) the matrix of differentials is

    dY = -Y dX Y + Y Y' dX' (I_n - X Y) + (I_m - Y X) dX' Y' Y,

valid where the rank is locally constant.  Vectorizing with
vec(A B C) = (C' kron A) vec(B) and K vec(dX) = vec(dX') turns this into a
single nm x nm operator acting on vec(dX):

    -(Y' kron Y) + [ (I_n - X Y) kron (Y Y') + (Y' Y) kron (I_m - Y X) ] K.

Both projector terms use symmetric middle factors, so no extra transposes
appear.  K has exactly one 1 per column, so the product with K is applied as
a column permutation of the bracketed term rather than as a dense matmul.

Spectrum theorem.  Write X = U diag(D, 0) V' with the q retained singular
values D, and rotate dX into that basis.  The differential then scales the
leading q x q block entrywise by -1/(d_i d_j), transposes the two
off-diagonal blocks scaling them by d_i^-2, and annihilates the trailing
block.  Each piece is a scaled permutation, so the operator's nonzero
singular values are 1/(d_i d_j) over all q^2 pairs and d_i^-2, each with
multiplicity n+m-2q: nq+mq-q^2 values in all.  Their product is
prod d_i^-2(n+m-q), the rank-deficient change-of-variables factor; at full
rank it is the determinant |X'X|^-n (tall) or |XX'|^-m (wide).
``operator_spectrum`` and ``jacobian_det_operator`` use this from the
caller's ``rank_profile`` of X, so X is factored once.  The dense
``jacobian_operator`` is kept as the oracle the theorem is checked
against.

The finite-difference oracles here are the independent checks for
the analytic forms; they pin the rank of every evaluation point to the rank
of the base point, because the pseudoinverse is discontinuous across rank
changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import BlockDecomposition, assemble, perturbed_assemble
from .errors import NotFullRank, RankDrift, ShapeMismatch
from .matcore import RankInfo, _pinv_from_svd, as_matrix, pinv, pinv_fixed_rank, rank_profile


@dataclass(frozen=True)
class FdConfig:
    """Central finite-difference settings.

    ``step`` is the nominal step; it is multiplied by the max-abs entry of
    the base matrix.
    """

    step: float = 1e-5

    def __post_init__(self):
        if not 1e-9 <= self.step <= 1e-2:
            raise ValueError(f"step must lie in [1e-9, 1e-2], got {self.step}")

    def effective_step(self, x: np.ndarray) -> float:
        return self.step * max(float(np.max(np.abs(x))), 1e-12)


def pinv_differential(x, dx) -> np.ndarray:
    """Analytic differential of the pseudoinverse at X along dX."""
    x = as_matrix(x)
    dx = as_matrix(dx)
    if dx.shape != x.shape:
        raise ShapeMismatch(f"dX shape {dx.shape} != X shape {x.shape}")
    n, m = x.shape
    y = pinv(x)
    left_proj = np.eye(n) - x @ y
    right_proj = np.eye(m) - y @ x
    return -y @ dx @ y + y @ y.T @ dx.T @ left_proj + right_proj @ dx.T @ y.T @ y


def jacobian_operator(x) -> np.ndarray:
    """The nm x nm matrix sending vec(dX) to vec(dY) = vec(pinv_differential(X, dX)).

    O((nm)^2) memory; the closed forms below replace it everywhere except
    as the oracle that checks them.
    """
    x = as_matrix(x)
    n, m = x.shape
    y = pinv(x)
    left_proj = np.eye(n) - x @ y
    right_proj = np.eye(m) - y @ x
    # The commutation matrix K, with K vec(dX) = vec(dX'), holds the single
    # 1 of its column j*n + i in row i*m + j, so right-multiplying by K
    # gathers those columns.
    k_cols = np.arange(n * m).reshape(n, m).T.ravel()
    return -np.kron(y.T, y) + (
        np.kron(left_proj, y @ y.T) + np.kron(y.T @ y, right_proj)
    )[:, k_cols]


def operator_spectrum(x: np.ndarray, info: RankInfo) -> np.ndarray:
    """Nonzero singular values of the Jacobian operator, in decreasing order.

    ``info`` is ``rank_profile(x)``; no further factorization is made (see
    the spectrum theorem above): 1/(d_i d_j) for all q^2 pairs of retained
    singular values and d_i^-2 with multiplicity n+m-2q, so nq+mq-q^2
    values in all.
    """
    n, m = x.shape
    inv = 1.0 / info.singular_values[: info.rank]
    values = np.concatenate([np.outer(inv, inv).ravel(), np.repeat(inv**2, n + m - 2 * inv.size)])
    return np.sort(values)[::-1]


def jacobian_det_operator(x: np.ndarray, info: RankInfo) -> float:
    """Absolute determinant of the vectorized differential operator.

    ``info`` is ``rank_profile(x)``.  The product of
    :func:`operator_spectrum`, summed as logs and exponentiated once so no
    running product underflows; at full rank it is |X'X|^-n (tall) or
    |XX'|^-m (wide).  Exactly 0 when rank(X) < min(n, m): the spectrum then
    has fewer than nm values, because the operator annihilates every
    direction of the form (I - X Y) V (I - Y X).
    """
    values = operator_spectrum(x, info)
    if values.size < x.size:
        return 0.0
    return float(np.exp(np.sum(np.log(values))))


def jacobian_det_full_rank(x: np.ndarray, info: RankInfo) -> float:
    """Closed-form |det| for full-rank X: |X'X|^-n when m <= n, else |XX'|^-m.

    ``info`` is ``rank_profile(x)``; below full rank it raises NotFullRank.
    """
    n, m = x.shape
    if info.rank != min(n, m):
        raise NotFullRank(f"rank {info.rank} < min(n, m) = {min(n, m)}")
    if m <= n:
        return float(abs(np.linalg.det(x.T @ x)) ** (-n))
    return float(abs(np.linalg.det(x @ x.T)) ** (-m))


def fd_pinv_differential(x, dx, cfg: FdConfig = FdConfig()) -> np.ndarray:
    """Central-difference oracle for the pseudoinverse differential.

    Both evaluations keep the base-point rank q.  For deficient-rank X the
    direction must be rank-preserving to first order; a first-order rank
    change shows up as sigma_{q+1} growing like h rather than h^2 and is
    reported as RankDrift.  The two evaluation points form one (2, n, m)
    stack, and one stacked SVD serves the drift test and both rank-q
    pseudoinverses.
    """
    x = as_matrix(x)
    dx = as_matrix(dx)
    if dx.shape != x.shape:
        raise ShapeMismatch(f"dX shape {dx.shape} != X shape {x.shape}")
    info = rank_profile(x)
    q = info.rank
    h = cfg.effective_step(x)
    # Tangent directions leave sigma_{q+1} at O(h^2), first-order rank
    # changes push it to O(h); h^1.5 sits between the two.
    sigma1 = info.singular_values[0] if info.singular_values.size else 1.0
    rel_cut = (h / max(sigma1, 1e-300)) ** 1.5
    u, s, vt = np.linalg.svd(np.stack([x + h * dx, x - h * dx]), full_matrices=False)
    if q < min(x.shape):
        for point in s:
            if point[q] > rel_cut * point[0]:
                raise RankDrift(
                    f"evaluation point has sigma[{q}] = {point[q]:.3e} above the drift cut "
                    f"{rel_cut * point[0]:.3e}; direction is not rank-preserving"
                )
    plus, minus = _pinv_from_svd(u, s, vt, q)
    return (plus - minus) / (2.0 * h)


# ---------------------------------------------------------------------------
# Matrix-map descriptors for chart-to-chart Jacobians.  Closed enumeration,
# no user-supplied code.

@dataclass(frozen=True)
class PinvMap:
    """X -> pinv(X), rank-pinned: every evaluation keeps ``rank`` triplets."""

    rank: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        return pinv_fixed_rank(x, self.rank)


class OrthogonalSandwichMap:
    """X -> H X Q with fixed orthogonal H (n x n) and Q (m x m)."""

    def __init__(self, left, right):
        self.left = as_matrix(left)
        self.right = as_matrix(right)
        for name, f in (("left", self.left), ("right", self.right)):
            if f.shape[0] != f.shape[1]:
                raise ShapeMismatch(f"{name} factor must be square, got {f.shape}")
            gap = np.max(np.abs(f.T @ f - np.eye(f.shape[0])))
            if gap > 1e-12:
                raise ValueError(f"{name} factor deviates from orthogonality by {gap:.2e}")

    def apply(self, x: np.ndarray) -> np.ndarray:
        # Broadcasts over a stack of shape (..., n, m).
        return self.left @ x @ self.right


MatrixMap = PinvMap | OrthogonalSandwichMap


def fd_chart_jacobian(
    f: MatrixMap,
    x,
    in_chart: BlockDecomposition,
    out_chart: BlockDecomposition,
    cfg: FdConfig = FdConfig(),
) -> np.ndarray:
    """Partial derivatives of out-chart coordinates of f with respect to
    in-chart coordinates, by central differences.

    Perturbing a free coordinate moves the dependent trailing block along
    with it, so every evaluation point stays exactly on the rank-q set.
    For equal-size charts the absolute determinant of the returned matrix
    is the chart-to-chart Jacobian of f.

    All 2k evaluation points of the k in-chart coordinates form one
    (2k, n, m) stack: rows of a (2k, k) step matrix (+h on the diagonal of
    the first k, -h on that of the last k) are assembled in one call,
    ``f.apply`` maps the whole stack, and the out-chart coordinates are
    read from it at once.  Raises ChartInvalid when any point leaves the
    in-chart's pivot region.
    """
    x = as_matrix(x)
    base = assemble(in_chart)
    scale = max(float(np.max(np.abs(x))), 1e-12)
    if np.max(np.abs(base - x)) > 1e-8 * scale:
        raise ShapeMismatch("in_chart does not reassemble the given X")
    h = cfg.effective_step(x)
    k = len(in_chart)
    # Off-diagonal steps are +0.0: a -0.0 would keep the sign of a -0.0
    # entry of X that +0.0 clears.
    steps = np.zeros((2 * k, k))
    steps[np.arange(k), np.arange(k)] = h
    steps[np.arange(k, 2 * k), np.arange(k)] = -h
    out_rows, out_cols = np.array(out_chart.positions).T
    values = f.apply(perturbed_assemble(in_chart, steps))[:, out_rows, out_cols]
    return (values[:k] - values[k:]).T / (2.0 * h)
