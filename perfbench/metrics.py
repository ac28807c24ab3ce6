"""Metric catalogue of the benchmark.

``BENCHMARK.json`` fixes each metric's name, unit and better direction;
this module adds what that file's fixed key set cannot hold: which
end-to-end metric, on which workload, each per-layer metric is expected
to move.  ``selftest.py`` checks that the two agree.

Per-layer values are normalised per cycle (one pass over a workload's op
schedule), so counts repeat from run to run whatever the machine speed.
"""

from __future__ import annotations

END_TO_END = {
    "trials_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_tail": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "pass_share": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

_DENSE = "trials_per_s, op_ms_p50 and peak_rss_mb on dense-operator"
_FD = "trials_per_s on fd-chart"
_SWEEP = "trials_per_s and op_ms_tail on cli-sweep"
_RETRY = "trials_per_s on every workload, pass_share on cli-sweep"
_REPORT = "op_ms_p50 on cli-sweep"
_TRACE = "none: cost of the tracing itself"
_ACCURACY = "none: accuracy margin, must not rise when speed does"

# name -> (unit, better, end-to-end metric and workload it should move)
PER_LAYER = {
    "differential.jacobian_operator.calls": ("count/cycle", "lower", _DENSE),
    "differential.jacobian_operator.self_s": ("s/cycle", "lower", _DENSE),
    "differential.jacobian_operator.bytes": ("B/cycle", "lower", _DENSE),
    "matcore.rank_profile.calls": ("count/cycle", "lower", _DENSE),
    "matcore.rank_profile.self_s": ("s/cycle", "lower", _DENSE),
    "matcore.rank_profile.max_order": ("count", "lower", _DENSE),
    "differential.jacobian_det_operator.self_s": ("s/cycle", "lower", _DENSE),
    "differential.fd_chart_jacobian.calls": ("count/cycle", "lower", _FD),
    "differential.fd_chart_jacobian.self_s": ("s/cycle", "lower", _FD),
    "differential.fd_chart_jacobian.points": ("count/cycle", "lower", _FD),
    "chart.perturbed_assemble.calls": ("count/cycle", "lower", _FD),
    "chart.perturbed_assemble.self_s": ("s/cycle", "lower", _FD),
    "chart.assemble.self_s": ("s/cycle", "lower", _FD),
    "matcore.pinv_fixed_rank.calls": ("count/cycle", "lower", _FD),
    "matcore.pinv_fixed_rank.self_s": ("s/cycle", "lower", _FD),
    "chart.decompose.calls": ("count/cycle", "lower", _SWEEP),
    "chart.decompose.self_s": ("s/cycle", "lower", _SWEEP),
    "chart.tangent_perturbation.self_s": ("s/cycle", "lower", _SWEEP),
    "chart.pinv_from_blocks.self_s": ("s/cycle", "lower", _SWEEP),
    "matcore.svd_thin.calls": ("count/cycle", "lower", _SWEEP),
    "matcore.svd_thin.self_s": ("s/cycle", "lower", _SWEEP),
    "matcore.pinv.calls": ("count/cycle", "lower", _SWEEP),
    "matcore.pinv.self_s": ("s/cycle", "lower", _SWEEP),
    "matcore.random_rank_q.calls": ("count/cycle", "lower", _SWEEP),
    "matcore.random_rank_q.self_s": ("s/cycle", "lower", _SWEEP),
    "matcore.make_rng.calls": ("count/cycle", "lower", _SWEEP),
    "matcore.make_rng.self_s": ("s/cycle", "lower", _SWEEP),
    "differential.pinv_differential.self_s": ("s/cycle", "lower", _SWEEP),
    "differential.fd_pinv_differential.self_s": ("s/cycle", "lower", _SWEEP),
    "measures.hausdorff_ratio_check.self_s": ("s/cycle", "lower", _SWEEP),
    "measures.orthogonal_invariance_check.self_s": ("s/cycle", "lower", _SWEEP),
    "measures.exterior_chain_check.self_s": ("s/cycle", "lower", _SWEEP),
    "measures.symmetric_inverse_fd_det.self_s": ("s/cycle", "lower", _SWEEP),
    "suites.run_trial.calls": ("count/cycle", "lower", _RETRY),
    "suites.attempts": ("count/cycle", "lower", _RETRY),
    "suites.retries.degenerate": ("count/cycle", "lower", _RETRY),
    "suites.retries.rank_drift": ("count/cycle", "lower", _RETRY),
    "suites.useful_attempt_ratio": ("ratio", "higher", _RETRY),
    "reports.dumps_canonical.self_s": ("s/cycle", "lower", _REPORT),
    "reports.json_bytes": ("B/cycle", "lower", _REPORT),
    "cli.cmd_report.self_s": ("s/cycle", "lower", _REPORT),
    "worst_tol_ratio": ("ratio", "lower", _ACCURACY),
    "trace.traced_trials_per_s": ("1/s", "higher", _TRACE),
    "trace.overhead_trials_per_s": ("1/s", "higher", _TRACE),
}
