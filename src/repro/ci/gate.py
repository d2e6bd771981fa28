"""The continuous-scalability gate: N-ladders, slope fits, trend verdicts.

The paper's core claim is that scalability bugs only manifest past the
scales developers routinely test; a single-point ">15% drop fails" perf
gate can therefore pass while superlinear drift quietly grows under it.
``repro ci`` closes that hole: it runs a small N-ladder of
gossip/workload scenarios through the sweep engine
(reusing the content-addressed :class:`~repro.sweep.cache.SweepCache`, so
a warm gate is near-zero cost), fits each metric's log-log scaling slope
with the shared :mod:`repro.core.curves` machinery, and fails on *trend*
regressions -- slope drift past a tolerance versus the committed
``SCALING_BASELINE.json`` -- instead of single-point drops.

Two kinds of check make up a gate verdict:

* **intrinsic** -- a scenario whose flap curve classifies as confirming
  (``threshold``/``superlinear``) fails outright: explosive symptom
  growth is a scalability bug no matter what the baseline says;
* **drift** -- each metric's fitted slope must stay within ``tolerance``
  of the committed baseline's, and its growth class must not escalate
  (a ladder whose throughput slope silently bent from 1.0 to 1.4 fails
  even though every single point might still pass a 15% point gate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bench import calibrate
from ..checks import Checks
from ..core.curves import CONFIRMING, fit_flap_curve, fit_metric_curve
from ..sweep.executor import run_sweep
from ..sweep.spec import SweepSpec
from .report import (
    METRICS,
    MetricTrend,
    ScalingReport,
    ScenarioTrend,
)

#: The default gate ladder: small enough for CI, big enough that a
#: superlinear term has three octaves to bend the curve in.
DEFAULT_SCALES = (32, 64, 128)

#: Allowed drift of a fitted log-log slope versus the committed baseline.
DEFAULT_TOLERANCE = 0.25

#: Flap-noise floor below which a symptom series counts as flat.
DEFAULT_MIN_SYMPTOM = 20.0

#: How growth classes escalate; a metric moving to a strictly higher band
#: than its baseline fails the gate even inside the slope tolerance.
_CLASS_SEVERITY = {"flat": 0, "sublinear": 1, "linear": 2,
                   "superlinear": 3, "threshold": 3}


@dataclass(frozen=True)
class CiScenario:
    """One gate scenario: a named scenario shape the ladder sweeps.

    Scenarios run in ``colo`` mode by default -- single-machine scaled
    colocation is the affordable mode the paper argues CI should run, and
    the only one that models the colocation host's peak memory.
    """

    name: str
    bug_id: str = "c3831-fixed"
    mode: str = "colo"
    workload: Optional[str] = None
    users: Optional[int] = None
    consistency: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """The identity block embedded in the report."""
        return {
            "bug": self.bug_id,
            "mode": self.mode,
            "workload": self.workload,
            "users": self.users,
            "consistency": self.consistency,
        }


#: The default gate: the healthy control plane (fixed-calculator gossip
#: membership) and the data plane (steady Zipf traffic over it).
DEFAULT_SCENARIOS: Tuple[CiScenario, ...] = (
    CiScenario(name="gossip"),
    CiScenario(name="workload", workload="steady"),
)


@dataclass
class CiConfig:
    """Everything one gate run depends on."""

    scales: Sequence[int] = DEFAULT_SCALES
    seed: int = 42
    scenarios: Tuple[CiScenario, ...] = DEFAULT_SCENARIOS
    workers: int = 1
    #: Persistent sweep-cache directory; None sweeps uncached.
    cache_dir: Optional[str] = None
    tolerance: float = DEFAULT_TOLERANCE
    min_symptom: float = DEFAULT_MIN_SYMPTOM
    #: Scenario-timing override (tests shrink the windows; None uses the
    #: current calibration).  Flows into the sweep cache keys like any
    #: other run parameter.
    params: Optional[Any] = None


def _metric_values(reports: Dict[int, Dict[str, Any]],
                   scales: Sequence[int], metric: str) -> List[float]:
    """Extract one metric's deterministic series from per-scale reports."""
    values: List[float] = []
    for nodes in scales:
        report = reports.get(nodes) or {}
        if metric == "flaps":
            values.append(float(report.get("flaps", 0)))
        elif metric == "events_per_vsec":
            duration = float(report.get("duration", 0.0))
            delivered = float(report.get("messages_delivered", 0))
            values.append(delivered / duration if duration > 0 else 0.0)
        elif metric == "peak_mem_bytes":
            values.append(float(report.get("memory_peak_bytes", 0)))
        else:  # pragma: no cover - METRICS is the closed set
            raise ValueError(f"unknown gate metric {metric!r}")
    return values


def _sweep_scenario(scenario: CiScenario,
                    config: CiConfig) -> Dict[int, Dict[str, Any]]:
    """Run (or cache-resolve) one scenario's ladder; reports by scale."""
    spec = SweepSpec(
        bugs=[scenario.bug_id],
        scales=[int(n) for n in config.scales],
        seeds=[config.seed],
        modes=[scenario.mode],
        workloads=[scenario.workload],
        users=[scenario.users],
        consistencies=[scenario.consistency],
        name=f"ci-{scenario.name}",
    )
    summary = run_sweep(spec, workers=config.workers,
                        cache_dir=config.cache_dir, params=config.params)
    return {result.point.nodes: result.report for result in summary.results}


def fit_scenario(scenario: CiScenario, reports: Dict[int, Dict[str, Any]],
                 scales: Sequence[int],
                 min_symptom: float = DEFAULT_MIN_SYMPTOM) -> ScenarioTrend:
    """Fit every gate metric's trend for one swept scenario ladder."""
    ladder = [int(n) for n in scales]
    trend = ScenarioTrend(name=scenario.name, scenario=scenario.to_dict())
    for metric in METRICS:
        values = _metric_values(reports, ladder, metric)
        if metric == "flaps":
            fit = fit_flap_curve(ladder, values, min_symptom=min_symptom)
        else:
            fit = fit_metric_curve(ladder, values)
        trend.metrics[metric] = MetricTrend(metric=metric, fit=fit)
    return trend


def run_gate(config: Optional[CiConfig] = None) -> ScalingReport:
    """Sweep every gate scenario's ladder and fit the trend report."""
    config = config or CiConfig()
    report = ScalingReport(scales=[int(n) for n in config.scales],
                           seed=config.seed)
    for scenario in config.scenarios:
        reports = _sweep_scenario(scenario, config)
        report.scenarios[scenario.name] = fit_scenario(
            scenario, reports, config.scales, min_symptom=config.min_symptom)
    return report


# -- gate evaluation -----------------------------------------------------------


def _drift_checks(result: Checks, name: str, current: ScenarioTrend,
                  baseline: ScenarioTrend, tolerance: float) -> None:
    """Per-metric slope-drift and class-escalation checks."""
    for metric in METRICS:
        cur = current.metrics.get(metric)
        base = baseline.metrics.get(metric)
        if cur is None or base is None:
            result.add(f"{name}/{metric}: present in both reports",
                       cur is not None and base is not None,
                       "metric missing; re-record with --update")
            continue
        cur_class = cur.classification
        base_class = base.classification
        escalated = (_CLASS_SEVERITY.get(cur_class, 3)
                     > _CLASS_SEVERITY.get(base_class, 3))
        result.add(
            f"{name}/{metric}: growth class has not escalated",
            not escalated,
            f"{base_class} -> {cur_class}" if escalated
            else f"stays {cur_class}")
        if cur.slope is None or base.slope is None:
            # No slope on one side: the class check above is the whole
            # story (e.g. flat-vs-flat, or a threshold jump with a single
            # nonzero point).
            continue
        drift = abs(cur.slope - base.slope)
        result.add(
            f"{name}/{metric}: slope within {tolerance:g} of baseline",
            drift <= tolerance,
            f"slope {cur.slope:+.4f} vs baseline {base.slope:+.4f} "
            f"(drift {drift:.4f})")


def evaluate(current: ScalingReport,
             baseline: Optional[ScalingReport] = None,
             tolerance: float = DEFAULT_TOLERANCE) -> Checks:
    """Judge a gate run: intrinsic trend health plus drift vs baseline."""
    result = Checks()
    for name, trend in sorted(current.scenarios.items()):
        flaps = trend.metrics.get("flaps")
        confirming = flaps is not None and flaps.classification in CONFIRMING
        result.add(
            f"{name}/flaps: no confirming growth shape",
            not confirming,
            f"classification {flaps.classification}" if flaps is not None
            else "no flap series")
    if baseline is None:
        return result
    if list(baseline.scales) != list(current.scales) or \
            baseline.seed != current.seed:
        result.add(
            "ladder matches the committed baseline", False,
            f"baseline (scales {baseline.scales}, seed {baseline.seed}) vs "
            f"current (scales {current.scales}, seed {current.seed}); "
            f"re-record with --update")
        return result
    for name in sorted(set(baseline.scenarios) | set(current.scenarios)):
        cur = current.scenarios.get(name)
        base = baseline.scenarios.get(name)
        if cur is None or base is None:
            result.add(f"{name}: scenario present in both reports", False,
                       "scenario missing; re-record with --update")
            continue
        if cur.scenario != base.scenario:
            result.add(
                f"{name}: scenario identity matches the baseline", False,
                f"{base.scenario!r} -> {cur.scenario!r}; "
                f"re-record with --update")
            continue
        _drift_checks(result, name, cur, base, tolerance)
    return result


# -- self-check ----------------------------------------------------------------


#: The planted superlinear bug and its fixed negative control.
SELF_CHECK_BUG = "c3831"
SELF_CHECK_CONTROL = "c3831-fixed"


def self_check(config: Optional[CiConfig] = None) -> Checks:
    """Does the gate trip on a known superlinear bug -- and only on it?

    Plants ``c3831`` (the paper's decommission calculation bug, whose
    flap count explodes past the latent scales) on the gate's own
    machinery and demands three things: the planted ladder fails the
    intrinsic gate, the fixed control passes it, and the drift comparator
    flags the planted ladder against a baseline recorded from the control.
    The ladder defaults to the current calibration's Figure-3 scales --
    the range where the planted bug is latent below the top scale.
    """
    base = config or CiConfig()
    ladder = list(calibrate.figure3_scales())
    checks = Checks()

    def gate_for(bug_id: str) -> ScalingReport:
        scenario = CiScenario(name="selfcheck", bug_id=bug_id)
        cfg = CiConfig(scales=ladder, seed=base.seed,
                       scenarios=(scenario,), workers=base.workers,
                       cache_dir=base.cache_dir, tolerance=base.tolerance,
                       min_symptom=base.min_symptom, params=base.params)
        return run_gate(cfg)

    planted = gate_for(SELF_CHECK_BUG)
    control = gate_for(SELF_CHECK_CONTROL)

    planted_fit = planted.scenarios["selfcheck"].metrics["flaps"]
    checks.add(f"planted {SELF_CHECK_BUG} trips the intrinsic gate",
               not evaluate(planted, tolerance=base.tolerance).ok,
               f"flap curve {planted_fit.classification}, "
               f"slope {planted_fit.slope}, "
               f"values {planted_fit.fit.values}")
    control_fit = control.scenarios["selfcheck"].metrics["flaps"]
    checks.add(f"fixed control {SELF_CHECK_CONTROL} passes the gate",
               evaluate(control, tolerance=base.tolerance).ok,
               f"flap curve {control_fit.classification}, "
               f"values {control_fit.fit.values}")
    # The drift comparator must flag the planted ladder against a baseline
    # recorded from the control -- the scenario identities differ only in
    # the bug id, so compare the metric trends directly.
    drift = Checks()
    _drift_checks(drift, "selfcheck", planted.scenarios["selfcheck"],
                  control.scenarios["selfcheck"], base.tolerance)
    checks.add("drift comparator flags the planted ladder vs the "
               "control baseline", not drift.ok,
               "; ".join(c["evidence"] for c in drift if not c["ok"])
               or "no drift detected (MISSING)")
    return checks
