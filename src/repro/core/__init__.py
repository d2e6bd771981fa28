"""scale-check: the paper's primary contribution.

Single-machine scale checking of distributed systems: the offending-function
finder (program analysis), memoization under basic colocation, the
processing illusion (PIL), deterministic replay, and colocation bottleneck
analysis.
"""

from .colocation import (
    CPU_CONTENTION,
    ColocationAnalyzer,
    ColocationProbe,
    DemandModel,
    EVENT_LATENESS,
    MEMORY_EXHAUSTION,
    NodeFootprint,
    SpaceObliviousFootprint,
    per_process_footprint,
    probe_colocation_sim,
    single_process_footprint,
    space_oblivious_footprint,
)
from .statespace import (
    StateSpaceReduction,
    observed_reduction,
    offline_input_space_log10,
    per_run_upper_bound,
)
from .finder import (
    CallSite,
    FinderReport,
    FunctionAnalysis,
    ScaleLoop,
    SideEffect,
    find_offending,
)
from .memoization import MemoDB, MemoRecord, PilViolationError
from .pil import CALC_FUNC_ID, MemoizingExecutor, PilReplayExecutor
from .probes import ProbeLogEntry, ProbeSet
from .replayer import ReplayHarness, ReplayResult
from .report import (
    render_divergence,
    render_finder_report,
    render_memo_summary,
    render_mode_comparison,
    render_series,
)
from .scalecheck import ScaleCheck, ScaleCheckResult

__all__ = [
    "CALC_FUNC_ID",
    "CPU_CONTENTION",
    "CallSite",
    "ColocationAnalyzer",
    "ColocationProbe",
    "DemandModel",
    "EVENT_LATENESS",
    "FinderReport",
    "FunctionAnalysis",
    "MEMORY_EXHAUSTION",
    "MemoDB",
    "MemoRecord",
    "MemoizingExecutor",
    "NodeFootprint",
    "PilReplayExecutor",
    "PilViolationError",
    "ProbeLogEntry",
    "ProbeSet",
    "ReplayHarness",
    "ReplayResult",
    "ScaleCheck",
    "ScaleCheckResult",
    "ScaleLoop",
    "SideEffect",
    "SpaceObliviousFootprint",
    "StateSpaceReduction",
    "observed_reduction",
    "offline_input_space_log10",
    "per_run_upper_bound",
    "space_oblivious_footprint",
    "find_offending",
    "per_process_footprint",
    "probe_colocation_sim",
    "render_divergence",
    "render_finder_report",
    "render_memo_summary",
    "render_mode_comparison",
    "render_series",
    "single_process_footprint",
]
