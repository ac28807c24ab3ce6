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
retained singular values D.  S maps each of col(X) kron row(X), null(X')
kron row(X), col(X) kron null(X) and null(X') kron null(X) into itself,
and in the basis U kron V it is a signed, scaled permutation:
dY'[l, k] = -dX[k, l] / (d_l d_k) when l, k < q (the commutation matrix K
on col(X) kron row(X)), dX[l, k] / d_min(l,k)^2 when one of l, k is < q,
and 0 when neither is.  Each entry pairs with its transpose when l, k < q
and with itself otherwise, so the nonzero singular values are 1/(d_i d_j)
over all q^2 pairs and d_i^-2, each with multiplicity n+m-2q: nq+mq-q^2
values, whose product prod d_i^-2(n+m-q) is the rank-deficient
change-of-variables factor (|X'X|^-n tall, |XX'|^-m wide at full rank).
It grows like d^(nm), so the checks take its log from X's retained
singular values alone, unchecked (``measures._log_factor``).

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

Every function here also takes a stack (T, n, m) (``pair_block_profile``
only a stack), one result per slice under ``matcore``'s bit rule.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .matcore import RankInfo, _rank_info, as_stack, gram_qr, pinv, require_rank


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


def log_jacobian_det_full_rank(x: np.ndarray, info: RankInfo):
    """Closed-form log|det| for full-rank X: -n log|X'X| when m <= n, else -m log|XX'|.

    ``info`` is ``rank_profile(x)``; below full rank it raises RankMismatch.
    The Gram determinant comes from a QR of X (``matcore.gram_qr``), so it is
    independent of the SVD that ``info`` reads.
    """
    n, m = x.shape[-2:]
    require_rank(info, min(n, m))
    return -max(n, m) * gram_qr(x)[1]

