"""The ``repro sanitize`` pipeline: harvest, instrument, sweep, classify.

Static first: load the target packages, harvest every shared site, and
run the two shared-state lint rules.  Then dynamic: for each rung of the
N-ladder build a real-mode gossip cluster, auto-instrument exactly the
statically-shared sites, attach a :class:`RaceTracker`, run the bug's
standard membership scenario, and record the race-window metrics.  The
ladder is cached through the same content-addressed
:class:`~repro.sweep.cache.SweepCache` store the sweep engine and the
hunt use -- the cache key covers everything the numbers depend on
(scale, seed, bug, scenario, the instrumented site list, and the package
version), so a warm report is byte-identical to a cold one.

The per-scale ``race_pairs`` series is classified by the shared curve
fitter; a superlinear race window is the sanitizer's analogue of the
paper's flap curves -- evidence that unordered shared-state windows widen
with cluster size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import __version__
from ..analysis.findings import sort_findings
from ..analysis.shared import (
    check_dead_annotations,
    check_shared_state,
    harvest_shared_state,
)
from ..canonical import canonical_json, sha256_hex
from ..core.curves import fit_metric_curve
from ..core.finder import Program
from ..sweep.cache import SweepCache
from .instrument import instrument_cluster
from .report import SanitizeReport
from .selfcheck import self_check
from .tracker import RaceTracker

#: Default sanitize ladder (matches the hunt's HDFS probe ladder).
DEFAULT_SCALES = (8, 16, 32, 64)


@dataclass
class SanitizeConfig:
    """Everything one sanitizer run depends on."""

    targets: Tuple[str, ...] = ("repro.cassandra", "repro.hdfs",
                                "repro.workload")
    scales: Sequence[int] = DEFAULT_SCALES
    seed: int = 42
    #: Scenario driving the dynamic ladder (any registered bug id works;
    #: the default exercises the decommission workload's full stage mix).
    bug_id: str = "c3831"
    #: Persistent sweep-cache directory; None sweeps uncached.
    cache_dir: Optional[str] = None
    #: Skip the dynamic ladder entirely (static report only).
    static_only: bool = False
    #: Run the planted-race rediscovery gate and embed its verdicts.
    with_self_check: bool = False


def _scenario_params():
    """Short scenario: decommission + conviction traffic at ladder scale."""
    from ..cassandra.workloads import ScenarioParams

    return ScenarioParams(warmup=2.0, observe=5.0, leaving_duration=2.0,
                          join_duration=2.0, join_stagger=0.5)


def _sanitized_point(config: SanitizeConfig, nodes: int,
                     sites: List[Any]) -> Dict[str, Any]:
    """One instrumented run; returns the cacheable (deterministic) payload."""
    from ..cassandra.cluster import Cluster, ClusterConfig, Mode
    from ..cassandra.workloads import run_workload

    cluster_config = ClusterConfig.for_bug(config.bug_id, nodes=nodes,
                                           mode=Mode.REAL, seed=config.seed)
    tracker = RaceTracker()
    cluster = Cluster(cluster_config, observer=tracker)
    wrapped = instrument_cluster(cluster, sites, tracker)
    run_workload(cluster, cluster_config.bug.workload, _scenario_params())
    return {
        "metrics": dict(sorted(tracker.metrics().items())),
        "wrapped": dict(sorted(wrapped.items())),
        "detail": tracker.to_dict(),
    }


def run_sanitize(config: Optional[SanitizeConfig] = None) -> SanitizeReport:
    """The whole pipeline: harvest -> instrument -> sweep -> classify."""
    config = config if config is not None else SanitizeConfig()
    program = Program.load(list(config.targets))
    static = harvest_shared_state(program)
    findings = sort_findings(check_shared_state(program)
                             + check_dead_annotations(program))
    report = SanitizeReport(
        targets=list(config.targets),
        static=static.to_dict(),
        findings=findings,
    )
    if config.with_self_check:
        report.self_check = self_check(seed=config.seed)
    if config.static_only:
        return report

    sites = static.shared()
    cache = SweepCache(config.cache_dir) if config.cache_dir else None
    scales = [int(n) for n in config.scales]
    for nodes in scales:
        key = sha256_hex(canonical_json({
            "sanitize": {
                "nodes": nodes,
                "seed": config.seed,
                "bug": config.bug_id,
                "scenario": "fast-membership-v1",
                "sites": sorted(f"{s.cls}.{s.attr}" for s in sites),
            },
            "version": __version__,
        }))
        payload = cache.get(key) if cache is not None else None
        if payload is None:
            payload = _sanitized_point(config, nodes, sites)
            if cache is not None:
                cache.put(key, payload)
        report.ladder.append({"nodes": nodes, "metrics": payload["metrics"]})
        # The top rung's detail and wrapped-site map win (deterministic:
        # scales ascend).
        report.wrapped = payload["wrapped"]
        report.detail = payload["detail"]

    for metric in ("race_pairs", "race_forced_releases"):
        series = [float(p["metrics"].get(metric, 0.0))
                  for p in report.ladder]
        report.curves[metric] = fit_metric_curve(scales, series).to_dict()
    return report
