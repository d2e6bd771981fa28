"""Continuous scalability CI: trend gates over N-ladders (``repro ci``).

BeeSwarm (PAPERS.md) argues scalability tests belong in CI as first-class
citizens, and ScalAna shows scaling-loss detection works best from fitted
cross-scale curves rather than point measurements.  This package wires
both ideas into one gate:

1. **ladder** (:mod:`repro.ci.gate` via :mod:`repro.sweep`) -- a small
   N-ladder (default 32/64/128) of gossip/workload scenarios runs through
   the sweep engine, reusing the content-addressed sweep cache so warm
   gates are near-zero cost;
2. **fit** (:mod:`repro.core.curves`, shared with ``repro hunt``) -- per
   scenario, the flap-count, virtual-time-throughput, and modeled
   peak-memory series are fitted to log-log scaling slopes;
3. **gate** -- the run fails on *trend* regressions: a confirming flap
   shape, a slope drifting past tolerance versus the committed
   ``SCALING_BASELINE.json``, or a growth class escalating.

The output is a byte-deterministic, schema-versioned
:class:`~repro.ci.report.ScalingReport` (``repro-scaling-report-v1``)
suitable for committing as a baseline.
"""

from .gate import (
    DEFAULT_SCALES,
    DEFAULT_SCENARIOS,
    DEFAULT_TOLERANCE,
    CiConfig,
    CiScenario,
    GateResult,
    evaluate,
    fit_scenario,
    run_gate,
    self_check,
)
from .report import (
    DEFAULT_BASELINE_NAME,
    METRICS,
    SCALING_REPORT_FORMAT,
    MetricTrend,
    ScalingReport,
    ScenarioTrend,
    load_baseline,
    save_baseline,
)

__all__ = [
    "CiConfig",
    "CiScenario",
    "DEFAULT_BASELINE_NAME",
    "DEFAULT_SCALES",
    "DEFAULT_SCENARIOS",
    "DEFAULT_TOLERANCE",
    "GateResult",
    "METRICS",
    "MetricTrend",
    "SCALING_REPORT_FORMAT",
    "ScalingReport",
    "ScenarioTrend",
    "evaluate",
    "fit_scenario",
    "load_baseline",
    "run_gate",
    "save_baseline",
    "self_check",
]
