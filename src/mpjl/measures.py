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
invariance deviation is evidence, with a ``None`` tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import decompose
from .differential import FdConfig, OrthogonalSandwichMap, fd_chart_jacobian, jacobian_det_operator
from .errors import BadSpectrum, NotFullColumnRank, ShapeMismatch, SingularInput
from .matcore import as_matrix, as_stack, check_spectrum, ill_conditioned, pinv, rank_profile
from .reports import VerificationReport


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

@dataclass(frozen=True)
class SymmetricMatrix:
    """Exactly symmetric matrix stored as its upper triangle (row-major)."""

    order: int
    upper: np.ndarray

    @classmethod
    def from_full(cls, s) -> "SymmetricMatrix":
        s = as_matrix(s)
        m = s.shape[0]
        if s.shape != (m, m):
            raise ShapeMismatch(f"expected square matrix, got {s.shape}")
        if np.max(np.abs(s - s.T)) > 1e-12 * max(np.max(np.abs(s)), 1.0):
            raise ShapeMismatch("matrix is not symmetric")
        sym = 0.5 * (s + s.T)
        return cls(order=m, upper=sym[np.triu_indices(m)].copy())

    def full(self) -> np.ndarray:
        a = np.zeros((self.order, self.order))
        iu = np.triu_indices(self.order)
        a[iu] = self.upper
        a.T[iu] = self.upper
        return a


def vech(s: np.ndarray) -> np.ndarray:
    """Half-vectorization: the m(m+1)/2 upper-triangle entries, row-major.

    A stack of shape (..., m, m) gives shape (..., m(m+1)/2).
    """
    rows, cols = np.triu_indices(s.shape[-1])
    return s[..., rows, cols]


def symmetric_inverse_jacobian_formula(s: SymmetricMatrix) -> float:
    """|det S|^-(m+1): the half-vectorization Jacobian of S -> inv(S)."""
    a = s.full()
    if ill_conditioned(a, rtol=np.finfo(float).eps * s.order) is not None:
        raise SingularInput("matrix is numerically singular")
    return float(abs(np.linalg.det(a)) ** (-(s.order + 1)))


def symmetric_inverse_fd_det(s: SymmetricMatrix, cfg: FdConfig = FdConfig()) -> float:
    """FD oracle: |det| of the inverse map on half-vectorized coordinates.

    Coordinate (i, j) with i < j perturbs both mirrored entries; diagonal
    coordinates perturb one entry.  The m(m+1)/2 unit directions form one
    stack, so each side of the difference is one stacked inversion.
    """
    a = s.full()
    h = cfg.effective_step(a)
    rows, cols = np.triu_indices(s.order)
    coords = np.arange(rows.size)
    e = np.zeros((rows.size, s.order, s.order))
    e[coords, rows, cols] = 1.0
    e[coords, cols, rows] = 1.0
    plus = np.linalg.inv(a + h * e)
    minus = np.linalg.inv(a - h * e)
    jac = vech((plus - minus) / (2.0 * h)).T
    return float(abs(np.linalg.det(jac)))


# ---------------------------------------------------------------------------
# End-to-end checks.

def exterior_chain_check(x) -> VerificationReport:
    """Full-column-rank determinant identity assembled factor by factor.

    With Y = pinv(X), the m x m Gram product of Y against itself collapses
    to inv(X'X); the assembled scalar

        |A|^((n-m-1)/2) * |B|^-(m+1) * |B|^-((n-m-1)/2),   A = Y Y', B = X'X,

    must equal |X'X|^-n by determinant algebra alone, and both must match
    the vectorized-operator determinant, which :func:`jacobian_det_operator`
    takes in closed form from the operator's spectrum (one SVD of X).
    """
    x = as_matrix(x)
    n, m = x.shape
    info = rank_profile(x)
    if m > n or info.rank != m:
        raise NotFullColumnRank(f"need rank(X) = cols <= rows, got shape {x.shape}")
    y = pinv(x)
    a = y @ y.T
    b = x.T @ x
    b_inv = np.linalg.inv(b)
    inverse_residual = float(np.linalg.norm(a - b_inv) / np.linalg.norm(b_inv))

    sign_a, log_a = np.linalg.slogdet(a)
    sign_b, log_b = np.linalg.slogdet(b)
    assembled = float(np.exp(0.5 * (n - m - 1) * log_a - (m + 1 + 0.5 * (n - m - 1)) * log_b))
    target = float(np.exp(-n * log_b))
    algebra_residual = float(abs(assembled - target) / target)

    op_det = jacobian_det_operator(x, info)
    operator_residual = float(abs(assembled - op_det) / target)

    return VerificationReport(
        check_name="exterior-chain",
        inputs={"n": n, "m": m},
        values={
            "gram_pinv_det": float(sign_a * np.exp(log_a)),
            "gram_det": float(sign_b * np.exp(log_b)),
            "assembled": assembled,
            "closed_form": target,
            "operator_det": op_det,
        },
        residuals={
            "inverse_identity": inverse_residual,
            "determinant_algebra": algebra_residual,
            "operator_match": operator_residual,
        },
    )


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
    full_chart = q == min(n, m)
    reports = []
    for abs_det in np.abs(np.ravel(np.linalg.det(jac))).tolist():
        deviation = abs(abs_det - 1.0)
        reports.append(VerificationReport(
            check_name="invariance",
            inputs={"n": n, "m": m, "q": q},
            values={"abs_det": abs_det, "deviation": deviation, "full_chart": full_chart,
                    "witness": deviation > WITNESS_DEVIATION},
            residuals={"deviation": deviation},
            tolerances=None if full_chart else {"deviation": None},
        ))
    return reports if x.ndim > 2 else reports[0]
