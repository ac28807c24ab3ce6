"""mpjl: pseudoinverse Jacobians, measure densities, and their oracles.

The library computes the analytic differential of the Moore-Penrose
inverse, the spectrum of its Jacobian operator read from its factors
(only the tests build the operator), the logs of the closed-form
determinant and density factors for full-rank and rank-deficient
matrices, and independent oracles for every formula: forward-mode chart
derivatives, exact tangent maps and the closed-form chart volumes of the
area formula.  The ``mpjl`` CLI runs the seeded verification suites and
emits reproducible JSON reports.
"""

from .chart import (
    BlockDecomposition, assemble, decompose, log_chart_volume, pinv_chart_derivative,
    pinv_chart_jacobian, pinv_from_blocks, sandwich_chart_jacobian, tangent_perturbation,
    x22_from_blocks,
)
from .differential import log_jacobian_det_full_rank, pinv_differential
from .errors import (
    BadSpectrum, ConfigError, DegeneracyBudgetExceeded, DegenerateSpectrum, IllConditionedPivot,
    MpjlError, ParseError, RankMismatch, ShapeMismatch,
)
from .matcore import RankInfo, make_rng, matrix_to_json, pinv, rank_profile
from .measures import (
    log_hausdorff_density, log_nonfullrank_jacobian_factor, log_symmetric_inverse_jacobian,
    symmetric_inverse_fd_det, symmetric_part,
)
from .reports import SuiteResult, VerificationReport
from .suites import RunConfig, run_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
