"""Scalar measure-density factors and the experiments that tie them together.

Three families of scalars around the map Y = pinv(X):

* the spectral density ``2^-q (prod D)^(n+m-2q) prod_{i<j} (D_i^2 - D_j^2)``
  that multiplies the frame and spectrum differentials of a rank-q matrix;
* the rank-deficient change-of-variables factor ``prod D_i^(-2(n+m-q))``;
* the symmetric-inverse Jacobian ``|S|^-(m+1)`` for S -> inv(S).

The ratio check confirms the first two are consistent: pushing the density
through the reciprocal-spectrum map reproduces the change-of-variables
factor exactly.  The exterior-chain check does the same for the full-rank
determinant, and the invariance experiment shows why the plain
free-coordinate volume element cannot be Lebesgue or Hausdorff measure:
it is not invariant under orthogonal sandwiches unless the chart covers
every entry.  All three checks return a ``VerificationReport`` whose
tolerances come from ``reports.TOLERANCES``; only a deficient chart's
invariance deviation is evidence, with a ``None`` tolerance.  The two
end-to-end checks and the symmetric-inverse pair (on plain arrays that
``symmetric_part`` makes exactly symmetric) also take stacks.
"""

from __future__ import annotations

import numpy as np

from .chart import decompose
from .differential import FdConfig, OrthogonalSandwichMap, fd_chart_jacobian, jacobian_det_operator
from .errors import BadSpectrum, NotFullColumnRank, ShapeMismatch, SingularInput
from .matcore import (
    as_stack, check_spectrum, frobenius_norms, ill_conditioned, pinv, rank_profile, scalar_powers,
)
from .reports import VerificationReport, stack_reports


def hausdorff_density(n: int, m: int, d) -> float:
    """Spectral density factor 2^-q (prod D)^(n+m-2q) prod_{i<j}(D_i^2 - D_j^2)."""
    d = check_spectrum(d)
    q = d.size
    if q > min(n, m):
        raise BadSpectrum(f"q={q} exceeds min(n, m)={min(n, m)}")
    value = 2.0 ** (-q) * np.prod(d) ** (n + m - 2 * q)
    for i in range(q):
        for j in range(i + 1, q):
            value *= d[i] ** 2 - d[j] ** 2
    return float(value)


def pinv_spectrum(d) -> np.ndarray:
    """Singular values of the pseudoinverse: reciprocals in decreasing order."""
    d = check_spectrum(d)
    return 1.0 / d[::-1]


def nonfullrank_jacobian_factor(n: int, m: int, d) -> float:
    """Change-of-variables factor prod_i D_i^(-2(n+m-q)) for Y = pinv(X)."""
    d = check_spectrum(d)
    q = d.size
    if q > min(n, m):
        raise BadSpectrum(f"q={q} exceeds min(n, m)={min(n, m)}")
    return float(np.prod(d ** (-2.0 * (n + m - q))))


def hausdorff_ratio_check(n: int, m: int, d, tol: float | None = None) -> VerificationReport:
    """Verify the change-of-variables factor through the density chain.

    density(Y spectrum) * |d(reciprocal spectrum)/dD| / density(X spectrum)
    is an exact algebraic identity for prod D_i^(-2(n+m-q)); the residual
    measures only rounding and is held to ``tol``, by default the
    ``hausdorff`` entry of ``reports.TOLERANCES``.
    """
    d = check_spectrum(d)
    density_x = hausdorff_density(n, m, d)
    # Y = pinv(X) is m x n with the same rank; n+m enters symmetrically.
    density_y = hausdorff_density(m, n, pinv_spectrum(d))
    chain = density_y * float(np.prod(d ** -2.0)) / density_x
    factor = nonfullrank_jacobian_factor(n, m, d)
    return VerificationReport(
        check_name="hausdorff",
        inputs={"n": n, "m": m, "q": d.size, "spectrum": d.tolist()},
        values={"density_x": density_x, "density_y": density_y, "jacobian_factor": factor},
        residuals={"identity": float(abs(chain - factor) / factor)},
        tol=tol,
    )


# ---------------------------------------------------------------------------
# Symmetric matrices and the inverse-map Jacobian.

def symmetric_part(s) -> np.ndarray:
    """The exactly symmetric 0.5 * (S + S') of a symmetric matrix or stack (..., m, m).

    Raises ShapeMismatch when S is not square, or when a slice deviates from
    symmetry by more than 1e-12 relative to its largest entry (or to 1).
    """
    s = as_stack(s)
    if s.shape[-1] != s.shape[-2]:
        raise ShapeMismatch(f"expected square matrix, got {s.shape}")
    st = s.swapaxes(-1, -2)
    scale = np.maximum(np.max(np.abs(s), axis=(-2, -1)), 1.0)
    if np.any(np.max(np.abs(s - st), axis=(-2, -1)) > 1e-12 * scale):
        raise ShapeMismatch("matrix is not symmetric")
    return 0.5 * (s + st)


def vech(s: np.ndarray) -> np.ndarray:
    """Half-vectorization: the m(m+1)/2 upper-triangle entries, row-major.

    A stack of shape (..., m, m) gives shape (..., m(m+1)/2).
    """
    rows, cols = np.triu_indices(s.shape[-1])
    return s[..., rows, cols]


def symmetric_inverse_jacobian_formula(s):
    """|det S|^-(m+1): the half-vectorization Jacobian of S -> inv(S).

    ``s`` is one symmetric m x m matrix or a stack of them, taken through
    :func:`symmetric_part`; SingularInput when any slice is numerically singular.
    """
    s = symmetric_part(s)
    m = s.shape[-1]
    if ill_conditioned(s, rtol=np.finfo(float).eps * m) is not None:
        raise SingularInput("matrix is numerically singular")
    return scalar_powers(np.abs(np.linalg.det(s)), -(m + 1))


def symmetric_inverse_fd_det(s):
    """Complex-step oracle: |det| of the inverse map on half-vectorized coordinates.

    ``s`` is one symmetric matrix or a stack, taken through
    :func:`symmetric_part`.  Coordinate (i, j) with i < j moves both
    mirrored entries; diagonal coordinates move one entry.  The m(m+1)/2
    points S + i h E, h = 1e-20 max|S| per slice, form one stack and one
    stacked inversion: inv is analytic, so vech(Im inv / h) is each column
    of the Jacobian to rounding error (plain transposes, no conjugation).
    """
    s = symmetric_part(s)
    m = s.shape[-1]
    h = 1e-20 * np.max(np.abs(s), axis=(-2, -1))[..., None, None, None]
    rows, cols = np.triu_indices(m)
    coords = np.arange(rows.size)
    e = np.zeros((rows.size, m, m))
    e[coords, rows, cols] = 1.0
    e[coords, cols, rows] = 1.0
    jac = vech(np.linalg.inv(s[..., None, :, :] + 1j * h * e).imag / h).swapaxes(-1, -2)
    return np.abs(np.linalg.det(jac))[()]


# ---------------------------------------------------------------------------
# End-to-end checks.

def exterior_chain_check(x):
    """Full-column-rank determinant identity assembled factor by factor.

    With Y = pinv(X), the m x m Gram product of Y against itself collapses
    to inv(X'X); the assembled scalar

        |A|^((n-m-1)/2) * |B|^-(m+1) * |B|^-((n-m-1)/2),   A = Y Y', B = X'X,

    must equal |X'X|^-n by determinant algebra alone, and both must match
    the vectorized-operator determinant, which :func:`jacobian_det_operator`
    takes in closed form from the operator's spectrum (one SVD of X).  A
    stack (T, n, m) is checked in one pass and gives a list of T reports.
    """
    x = as_stack(x)
    n, m = x.shape[-2:]
    info = rank_profile(x)
    if m > n or np.any(info.rank != m):
        raise NotFullColumnRank(f"need rank(X) = cols <= rows, got shape {x.shape}")
    y = pinv(x)
    a = y @ y.swapaxes(-1, -2)
    b = x.swapaxes(-1, -2) @ x
    b_inv = np.linalg.inv(b)

    sign_a, log_a = np.linalg.slogdet(a)
    sign_b, log_b = np.linalg.slogdet(b)
    assembled = np.exp(0.5 * (n - m - 1) * log_a - (m + 1 + 0.5 * (n - m - 1)) * log_b)
    target = np.exp(-n * log_b)
    op_det = jacobian_det_operator(x, info)
    reports = stack_reports(
        "exterior-chain", {"n": n, "m": m},
        {"gram_pinv_det": sign_a * np.exp(log_a), "gram_det": sign_b * np.exp(log_b),
         "assembled": assembled, "closed_form": target, "operator_det": op_det},
        {"inverse_identity": frobenius_norms(a - b_inv) / frobenius_norms(b_inv),
         "determinant_algebra": abs(assembled - target) / target,
         "operator_match": abs(assembled - op_det) / target},
    )
    return reports if x.ndim > 2 else reports[0]


WITNESS_DEVIATION = 0.05


def orthogonal_invariance_check(
    x,
    q: int,
    h,
    qmat,
    cfg: FdConfig = FdConfig(),
):
    """Chart Jacobian of X -> H X Q for orthogonal H, Q.

    On the full chart (q = min(n, m)) the map is linear with unit-modulus
    determinant, so |det| = 1 within FD error and the check enforces that.
    On a deficient chart the deviation from 1 is recorded as evidence: the
    free-coordinate volume element is generically not invariant under
    orthogonal sandwiches, unlike Lebesgue and Hausdorff measure.  Stacks
    (T, n, m), (T, n, n) and (T, m, m) are checked in one pass and give a
    list of T reports.
    """
    x = as_stack(x)
    n, m = x.shape[-2:]
    sandwich = OrthogonalSandwichMap(h, qmat)
    in_chart = decompose(x, q)
    out_chart = decompose(sandwich.apply(x), q)
    jac = fd_chart_jacobian(sandwich, x, in_chart, out_chart, cfg)
    abs_det = np.abs(np.linalg.det(jac))
    deviation = abs(abs_det - 1.0)
    full_chart = q == min(n, m)
    reports = stack_reports(
        "invariance", {"n": n, "m": m, "q": q},
        {"abs_det": abs_det, "deviation": deviation, "full_chart": full_chart,
         "witness": deviation > WITNESS_DEVIATION},
        {"deviation": deviation}, tolerances=None if full_chart else {"deviation": None},
    )
    return reports if x.ndim > 2 else reports[0]
