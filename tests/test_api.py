"""The public surface of the package, pinned name by name."""

import mpjl

PUBLIC = [
    "BadSpectrum", "BlockDecomposition", "ConfigError", "DegeneracyBudgetExceeded",
    "DegenerateSpectrum", "IllConditionedPivot", "MpjlError",
    "ParseError", "RankInfo", "RankMismatch", "RunConfig",
    "ShapeMismatch", "SuiteResult", "VerificationReport",
    "assemble", "chart", "decompose", "differential", "errors", "log_chart_volume",
    "log_hausdorff_density", "log_jacobian_det_full_rank", "log_nonfullrank_jacobian_factor",
    "log_symmetric_inverse_jacobian", "make_rng", "matcore", "matrix_to_json", "measures",
    "pinv", "pinv_chart_derivative", "pinv_chart_jacobian",
    "pinv_differential", "pinv_from_blocks",
    "rank_profile", "reports", "run_suite", "sandwich_chart_jacobian", "suites",
    "symmetric_inverse_fd_det", "symmetric_part", "tangent_perturbation", "x22_from_blocks",
]


def test_public_names_are_pinned():
    # A test-only helper re-exported, or a public name dropped, shows here.
    assert sorted(mpjl.__all__) == PUBLIC
