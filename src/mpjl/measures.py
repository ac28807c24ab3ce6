"""Scalar measure-density factors and the experiments that tie them together.

Three families of scalars around the map Y = pinv(X), each computed and
reported as its log, since they grow like a power of the size and leave
the float range at moderate sizes:

* the spectral density ``2^-q (prod D)^(n+m-2q) prod_{i<j} (D_i^2 - D_j^2)``
  that multiplies the frame and spectrum differentials of a rank-q matrix;
* the rank-deficient change-of-variables factor ``prod D_i^(-2(n+m-q))``;
* the symmetric-inverse Jacobian ``|S|^-(m+1)`` for S -> inv(S).

The ratio check confirms the first two are consistent: pushing the density
through the reciprocal-spectrum map reproduces the change-of-variables
factor exactly.  The exterior-chain
check does the same for the full-rank determinant, and the invariance
experiment shows why the plain free-coordinate volume element cannot be
Lebesgue or Hausdorff measure: it is not invariant under orthogonal
sandwiches unless the chart covers every entry (its exact Jacobian is
held to the area formula).  All three checks return
a ``VerificationReport`` whose tolerances come from ``reports.TOLERANCES``;
only a deficient chart's invariance deviation is evidence, with a ``None``
tolerance.  All three (the ratio check on a (T, q) stack of spectra) and
the symmetric-inverse pair (on plain arrays that ``symmetric_part`` makes
exactly symmetric) also take stacks.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .chart import _pivot, _require_rank, log_chart_volume
from .differential import OrthogonalSandwichMap, operator_log_pdet, sandwich_chart_jacobian
from .errors import BadSpectrum, NotFullColumnRank, ShapeMismatch, SingularInput
from .matcore import (
    _pinv_from_svd, _rank_info, as_stack, check_spectrum, frobenius_norms, gram_qr,
    ill_conditioned, rank_profile,
)
from .reports import TOLERANCES, stack_reports


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


def pinv_spectrum(d) -> np.ndarray:
    """Singular values of the pseudoinverse: reciprocals in decreasing order.

    Of a stack (..., q) of spectra, one row per spectrum.
    """
    d = check_spectrum(d)
    return 1.0 / d[..., ::-1]


def log_hausdorff_density(n: int, m: int, d):
    """log of the spectral density 2^-q (prod D)^(n+m-2q) prod_{i<j}(D_i^2 - D_j^2), one per
    spectrum of a stack (..., q); each D_i^2 - D_j^2 as (D_i - D_j)(D_i + D_j), both exact to
    rounding."""
    d = _spectra(n, m, d)
    q = d.shape[-1]
    # ``take`` keeps the pairs contiguous, so a stack sums each row as one spectrum would.
    di, dj = (np.take(d, k, axis=-1) for k in _pairs(q))
    pairs = np.log(di - dj) + np.log(di + dj)
    return -q * np.log(2.0) + (n + m - 2 * q) * np.log(d).sum(axis=-1) + pairs.sum(axis=-1)


def log_nonfullrank_jacobian_factor(n: int, m: int, d):
    """log of the change-of-variables factor prod_i D_i^(-2(n+m-q)) of Y = pinv(X), one per
    spectrum of a stack (..., q)."""
    d = _spectra(n, m, d)
    return -2.0 * (n + m - d.shape[-1]) * np.log(d).sum(axis=-1)


def hausdorff_ratio_check(n: int, m: int, d, tol: float | None = None):
    """Verify the change-of-variables factor through the density chain, in logs.

    log density(Y spectrum) + log|d(reciprocal spectrum)/dD| - log density(X
    spectrum) is an exact algebraic identity for the log factor
    -2(n+m-q) sum log D_i; the residual ``identity``, the absolute
    difference of the two logs, measures only rounding and is held to
    ``tol``, by default the ``hausdorff`` entry of ``reports.TOLERANCES``.
    A stack (T, q) of spectra is checked in one pass and gives a list of T
    reports.
    """
    d = _spectra(n, m, d)
    q = d.shape[-1]
    # Y = pinv(X) is m x n with the same rank; n+m enters symmetrically.
    log_x, log_y = log_hausdorff_density(n, m, d), log_hausdorff_density(m, n, pinv_spectrum(d))
    log_factor = log_nonfullrank_jacobian_factor(n, m, d)
    reports = stack_reports(
        "hausdorff", {"n": n, "m": m, "q": q},
        {"log_density_x": log_x, "log_density_y": log_y, "log_jacobian_factor": log_factor},
        {"identity": abs(log_y - 2.0 * np.log(d).sum(axis=-1) - log_x - log_factor)}, tol=tol,
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


def log_symmetric_inverse_jacobian(s):
    """-(m+1) log|det S|: the log half-vectorization Jacobian of S -> inv(S).

    ``s`` is one symmetric m x m matrix or a stack of them, taken through
    :func:`symmetric_part`; SingularInput when any slice is numerically singular.
    """
    s = symmetric_part(s)
    m = s.shape[-1]
    if ill_conditioned(s, rtol=np.finfo(float).eps * m) is not None:
        raise SingularInput("matrix is numerically singular")
    return -(m + 1) * np.linalg.slogdet(s)[1]


def symmetric_inverse_fd_det(s):
    """Complex-step oracle: log|det| of the inverse map on half-vectorized coordinates.

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
    return np.linalg.slogdet(jac)[1]


# ---------------------------------------------------------------------------
# End-to-end checks.

def exterior_chain_check(x):
    """Full-column-rank determinant identity assembled factor by factor, in logs.

    With Y = pinv(X), the m x m Gram product of Y against itself collapses
    to inv(X'X); the assembled scalar

        |A|^((n-m-1)/2) * |B|^-(m+1) * |B|^-((n-m-1)/2),   A = Y Y', B = X'X,

    must equal |X'X|^-n by determinant algebra alone, and both must match
    the vectorized-operator determinant, which ``operator_log_pdet`` takes
    in closed form from the operator's spectrum.  One thin SVD of X gives
    the rank test, Y and that spectrum; QRs of X and Y' give log|B| and
    log|A| (``matcore.gram_qr``), and the R of X gives inv(X'X) = inv(R)
    inv(R)'.  A stack (T, n, m) is checked in one pass and gives a list of
    T reports.
    """
    x = as_stack(x)
    n, m = x.shape[-2:]
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    info = _rank_info(s, x.shape)
    if m > n or np.any(info.rank != m):
        raise NotFullColumnRank(f"need rank(X) = cols <= rows, got shape {x.shape}")
    y = _pinv_from_svd(u, s, vt, m)
    a = y @ y.swapaxes(-1, -2)
    r, log_b = gram_qr(x)
    r_inv = np.linalg.inv(r)
    b_inv = r_inv @ r_inv.swapaxes(-1, -2)
    log_a = gram_qr(y)[1]
    power = 0.5 * (n - m - 1)
    assembled = power * log_a - (m + 1 + power) * log_b
    target = -n * log_b
    op_det = operator_log_pdet(x, info)
    reports = stack_reports(
        "exterior-chain", {"n": n, "m": m},
        {"log_gram_pinv_det": log_a, "log_gram_det": log_b, "log_assembled": assembled,
         "log_closed_form": target, "log_operator_det": op_det},
        {"inverse_identity": frobenius_norms(a - b_inv) / frobenius_norms(b_inv),
         "determinant_algebra": abs(assembled - target),
         "operator_match": abs(assembled - op_det)},
    )
    return reports if x.ndim > 2 else reports[0]


WITNESS_DEVIATION = 0.05


def orthogonal_invariance_check(x, q: int, h, qmat):
    """Exact chart Jacobian of X -> H X Q for orthogonal H, Q, against the area formula.

    H, Q keep the Frobenius metric, so log|det| = V_in - V_out, the charts'
    ``log_chart_volume``; ``volume`` = |log|det| - (V_in - V_out)| / max(1,
    |V_in - V_out|) is asserted at every q.  On the full chart (q = min(n,
    m)) both volumes are 0 and |det| = 1 is enforced too; on a deficient
    chart the deviation from 1 is evidence that the free-coordinate volume
    element, unlike Lebesgue and Hausdorff measure, is not invariant.
    Stacks (T, n, m), (T, n, n) and (T, m, m) give a list of T reports.
    H X Q has X's rank by construction, so only X's rank is tested, and
    both charts are pivoted as one (2, [T,] n, m) stack: one pivot test
    (which reports the worse block when both of a trial fail), one W/Z solve.
    """
    x = as_stack(x)
    n, m = x.shape[-2:]
    sandwich = OrthogonalSandwichMap(h, qmat)
    _require_rank(rank_profile(x), q)
    charts = _pivot(np.stack([x, sandwich.apply(x)]), q)
    in_volume, out_volume = log_chart_volume(charts)
    in_chart, out_chart = charts[0], charts[1]
    abs_det = np.abs(np.linalg.det(sandwich_chart_jacobian(sandwich, in_chart, out_chart)))
    log_volume = in_volume - out_volume
    deviation = abs(abs_det - 1.0)
    full_chart = q == min(n, m)
    reports = stack_reports(
        "invariance", {"n": n, "m": m, "q": q},
        {"abs_det": abs_det, "deviation": deviation, "full_chart": full_chart,
         "witness": deviation > WITNESS_DEVIATION},
        {"deviation": deviation,
         "volume": abs(np.log(abs_det) - log_volume) / np.maximum(1.0, abs(log_volume))},
        tolerances=None if full_chart else {**TOLERANCES["invariance"], "deviation": None},
    )
    return reports if x.ndim > 2 else reports[0]
