"""The public surface of the package, pinned name by name."""

import mpjl

PUBLIC = [
    "BadSpectrum", "BlockDecomposition", "ChartInvalid", "ConfigError",
    "DegeneracyBudgetExceeded", "DegenerateSpectrum", "FdConfig", "IllConditionedPivot",
    "MpjlError", "NotFullColumnRank", "NotFullRank", "OrthogonalSandwichMap", "ParseError",
    "PinvMap", "RankDrift", "RankInfo", "RankMismatch", "RunConfig", "ShapeMismatch",
    "SingularGram", "SingularInput", "SuiteResult", "SvdFactors",
    "SymmetricMatrix", "VerificationReport", "assemble", "chart",
    "decompose", "differential", "errors", "exterior_chain_check", "fd_chart_jacobian",
    "fd_pinv_differential", "hausdorff_density", "hausdorff_ratio_check",
    "jacobian_det_full_rank", "jacobian_det_operator", "jacobian_operator", "make_rng",
    "matcore", "matrix_from_json", "matrix_to_json", "measures", "nonfullrank_jacobian_factor",
    "operator_spectrum", "orthogonal_invariance_check", "pinv",
    "pinv_differential", "pinv_fixed_rank", "pinv_from_blocks", "pinv_spectrum",
    "random_rank_q", "random_stiefel", "rank_profile", "reports", "run_suite",
    "sample_spectrum", "suites", "svd_thin", "symmetric_inverse_fd_det",
    "symmetric_inverse_jacobian_formula", "tangent_perturbation", "vec", "x22_from_blocks",
]


def test_public_names_are_pinned():
    # A test-only helper re-exported, or a public name dropped, shows here.
    assert sorted(mpjl.__all__) == PUBLIC
