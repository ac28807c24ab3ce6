"""Scalar measure-density factors and the experiments that tie them together.

Three families of scalars around the map Y = pinv(X):

* the spectral density ``2^-q (prod D)^(n+m-2q) prod_{i<j} (D_i^2 - D_j^2)``
  that multiplies the frame and spectrum differentials of a rank-q matrix;
* the rank-deficient change-of-variables factor ``prod D_i^(-2(n+m-q))``;
* the symmetric-inverse Jacobian ``|S|^-(m+1)`` for S -> inv(S).

The ratio check confirms the first two are consistent: pushing the density
through the reciprocal-spectrum map reproduces the change-of-variables
factor exactly.  It compares them as sums of logs of the spectrum, since
the products leave the float range at moderate sizes; a linear value is
reported only where every factor and partial product of its product is
finite and normal, since one that ran through subnormals can end normal
and still be digits off.  The exterior-chain
check does the same for the full-rank determinant, and the invariance
experiment shows why the plain free-coordinate volume element cannot be
Lebesgue or Hausdorff measure: it is not invariant under orthogonal
sandwiches unless the chart covers every entry.  All three checks return
a ``VerificationReport`` whose tolerances come from ``reports.TOLERANCES``;
only a deficient chart's invariance deviation is evidence, with a ``None``
tolerance.  All three (the ratio check on a (T, q) stack of spectra) and
the symmetric-inverse pair (on plain arrays that ``symmetric_part`` makes
exactly symmetric) also take stacks.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .chart import _pivot, decompose
from .differential import FdConfig, OrthogonalSandwichMap, fd_chart_jacobian, jacobian_det_operator
from .errors import BadSpectrum, NotFullColumnRank, ShapeMismatch, SingularInput
from .matcore import (
    as_stack, check_spectrum, frobenius_norms, ill_conditioned, pinv, rank_profile, scalar_powers,
)
from .reports import stack_reports


def _spectra(n: int, m: int, d) -> np.ndarray:
    # A spectrum, or a stack (..., q) of them, checked; q <= min(n, m).
    d = check_spectrum(d)
    if d.shape[-1] > min(n, m):
        raise BadSpectrum(f"q={d.shape[-1]} exceeds min(n, m)={min(n, m)}")
    return d


@cache
def _pairs(q: int) -> tuple[np.ndarray, np.ndarray]:
    # Indices (i, j) of the pairs i < j of a spectrum of q values, row-major;
    # shared by every caller, so read-only.
    pairs = np.triu_indices(q, 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def hausdorff_density(n: int, m: int, d):
    """Spectral density factor 2^-q (prod D)^(n+m-2q) prod_{i<j}(D_i^2 - D_j^2).

    Of a stack (..., q) of spectra, one value per spectrum.  Each power is a
    scalar power and the factors are multiplied in order, (i, j) row-major.
    A product that leaves the float range gives inf or 0, without a warning.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        # left to right, as a loop would
        return np.multiply.reduce(_density_factors(n, m, _spectra(n, m, d)), axis=-1)[()]


def _density_factors(n: int, m: int, d: np.ndarray) -> np.ndarray:
    # hausdorff_density's factors of checked spectra, in the order it multiplies them.
    q = d.shape[-1]
    i, j = _pairs(q)
    squares = scalar_powers(d, 2)
    lead = 2.0 ** (-q) * scalar_powers(np.prod(d, axis=-1), n + m - 2 * q)
    return np.concatenate([lead[..., None], squares[..., i] - squares[..., j]], axis=-1)


def pinv_spectrum(d) -> np.ndarray:
    """Singular values of the pseudoinverse: reciprocals in decreasing order.

    Of a stack (..., q) of spectra, one row per spectrum.
    """
    d = check_spectrum(d)
    return 1.0 / d[..., ::-1]


def nonfullrank_jacobian_factor(n: int, m: int, d):
    """Change-of-variables factor prod_i D_i^(-2(n+m-q)) for Y = pinv(X).

    Of a stack (..., q) of spectra, one value per spectrum; like
    :func:`hausdorff_density`, inf or 0 where it leaves the float range.
    """
    with np.errstate(over="ignore", under="ignore"):
        return np.prod(_jacobian_factors(n, m, _spectra(n, m, d)), axis=-1)[()]


def _jacobian_factors(n: int, m: int, d: np.ndarray) -> np.ndarray:
    # nonfullrank_jacobian_factor's factors of checked spectra, in order.
    return scalar_powers(d, -2.0 * (n + m - d.shape[-1]))


def _log_density(n: int, m: int, d: np.ndarray) -> np.ndarray:
    # log hausdorff_density: -q log 2 + (n+m-2q) sum log d + sum_{i<j} log(d_i^2 - d_j^2),
    # each d_i^2 - d_j^2 taken as (d_i - d_j)(d_i + d_j), both factors exact to rounding.
    # ``take`` keeps the pairs contiguous, so a stack sums each row as one spectrum would.
    q = d.shape[-1]
    di, dj = (np.take(d, k, axis=-1) for k in _pairs(q))
    pairs = np.log(di - dj) + np.log(di + dj)
    return -q * np.log(2.0) + (n + m - 2 * q) * np.log(d).sum(axis=-1) + pairs.sum(axis=-1)


def _normal_product(factors: np.ndarray) -> np.ndarray:
    # The product of each row of ``factors``, left to right (the bits of the
    # reduce of the two functions above), where every factor and every
    # partial product is finite and normal; None elsewhere.  A chain that
    # passes through subnormals can end normal and still be digits off.
    chain = np.multiply.accumulate(factors, axis=-1)
    links = np.concatenate([factors, chain], axis=-1)
    normal = np.all(np.isfinite(links) & (np.abs(links) >= np.finfo(float).tiny), axis=-1)
    return np.where(normal, chain[..., -1], None)


def hausdorff_ratio_check(n: int, m: int, d, tol: float | None = None):
    """Verify the change-of-variables factor through the density chain, in logs.

    log density(Y spectrum) + log|d(reciprocal spectrum)/dD| - log density(X
    spectrum) is an exact algebraic identity for the log factor
    -2(n+m-q) sum log D_i; the residual ``identity``, the absolute
    difference of the two logs, measures only rounding and is held to
    ``tol``, by default the ``hausdorff`` entry of ``reports.TOLERANCES``.
    The linear density_x, density_y and jacobian_factor are reported
    where every factor and partial product of theirs is finite and normal;
    the log_* values always.  A stack (T, q) of spectra is checked in one
    pass and gives a list of T reports.
    """
    d = _spectra(n, m, d)
    q = d.shape[-1]
    # Y = pinv(X) is m x n with the same rank; n+m enters symmetrically.
    e = pinv_spectrum(d)
    log_d = np.log(d).sum(axis=-1)
    log_x, log_y = _log_density(n, m, d), _log_density(m, n, e)
    log_factor = -2.0 * (n + m - q) * log_d
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        density_x = _normal_product(_density_factors(n, m, d))
        density_y = _normal_product(_density_factors(m, n, e))
        factor = _normal_product(_jacobian_factors(n, m, d))
    reports = stack_reports(
        "hausdorff", {"n": n, "m": m, "q": q},
        {"density_x": density_x, "density_y": density_y, "jacobian_factor": factor,
         "log_density_x": log_x, "log_density_y": log_y, "log_jacobian_factor": log_factor},
        {"identity": abs(log_y - 2.0 * log_d - log_x - log_factor)}, tol=tol,
    )
    for report, spectrum in zip(reports, d.reshape(-1, q).tolist()):
        report.inputs["spectrum"] = spectrum
    return reports if d.ndim > 1 else reports[0]


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
    # H X Q has X's rank by construction; a second rank test of its own
    # rounding could only refuse a valid chart.
    out_chart = _pivot(sandwich.apply(x), q)
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
