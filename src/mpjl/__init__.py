"""mpjl: pseudoinverse Jacobians, measure densities, and their oracles.

The library computes the analytic differential and Jacobian operator of
the Moore-Penrose inverse, closed-form determinant and density factors for
both full-rank and rank-deficient matrices, and independent
finite-difference oracles for every formula.  The ``mpjl`` CLI runs the
seeded verification suites and emits reproducible JSON reports.
"""

from .chart import (
    BlockDecomposition,
    assemble,
    decompose,
    pinv_from_blocks,
    tangent_perturbation,
    x22_from_blocks,
)
from .differential import (
    FdConfig,
    OrthogonalSandwichMap,
    PinvMap,
    fd_chart_jacobian,
    fd_pinv_differential,
    jacobian_det_full_rank,
    jacobian_det_operator,
    jacobian_operator,
    operator_spectrum,
    pinv_differential,
)
from .errors import (
    BadSpectrum,
    ChartInvalid,
    ConfigError,
    DegeneracyBudgetExceeded,
    DegenerateSpectrum,
    IllConditionedPivot,
    MpjlError,
    NotFullColumnRank,
    NotFullRank,
    ParseError,
    RankDrift,
    RankMismatch,
    ShapeMismatch,
    SingularGram,
    SingularInput,
)
from .matcore import (
    RankInfo,
    SvdFactors,
    make_rng,
    matrix_from_json,
    matrix_to_json,
    pinv,
    pinv_fixed_rank,
    random_rank_q,
    random_stiefel,
    rank_profile,
    sample_spectrum,
    svd_thin,
    vec,
)
from .measures import (
    SymmetricMatrix,
    exterior_chain_check,
    hausdorff_density,
    hausdorff_ratio_check,
    nonfullrank_jacobian_factor,
    orthogonal_invariance_check,
    pinv_spectrum,
    symmetric_inverse_fd_det,
    symmetric_inverse_jacobian_formula,
)
from .reports import SuiteResult, VerificationReport
from .suites import RunConfig, run_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
