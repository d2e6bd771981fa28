"""Benchmark harnesses regenerating every figure and table of the paper."""

from .calibrate import (
    CI_SCALES,
    PAPER_SCALES,
    ci_cost_constants,
    expected_symptom_scale,
    experiment_constants,
    figure3_scales,
    full_scale,
    scenario_params,
)
from .figures import (
    Figure1Point,
    ShapeCheck,
    check_figure3_shape,
    figure1_timings,
    render_figure3,
)
from .runner import (
    bench_sweep_cache_dir,
    figure3_series,
    make_check,
    run_point,
)
from .tables import (
    ColocationLimits,
    bug_study_summary,
    bug_study_table,
    colocation_limits,
    duration_table,
    finder_table,
    memo_replay_table,
    render_colocation_limits,
    render_duration_table,
    render_memo_replay_table,
)

__all__ = [
    "CI_SCALES",
    "ColocationLimits",
    "Figure1Point",
    "PAPER_SCALES",
    "ShapeCheck",
    "bench_sweep_cache_dir",
    "bug_study_summary",
    "bug_study_table",
    "check_figure3_shape",
    "ci_cost_constants",
    "colocation_limits",
    "duration_table",
    "expected_symptom_scale",
    "experiment_constants",
    "figure1_timings",
    "figure3_scales",
    "figure3_series",
    "finder_table",
    "full_scale",
    "make_check",
    "memo_replay_table",
    "render_colocation_limits",
    "render_duration_table",
    "render_figure3",
    "render_memo_replay_table",
    "run_point",
    "scenario_params",
]
