"""Stage 2 + orchestration: sweep every probed candidate, emit the report.

The hunt is a thin composition of subsystems that already exist:

* candidates come from :func:`repro.hunt.candidates.find_candidates`
  (the linter's raw findings);
* probes run through :func:`repro.sweep.executor.run_sweep` -- one
  ``real``-mode grid over the N-ladder plus a top-scale ``colo`` grid --
  so results land in (and re-hunts are served from) the same
  content-addressed cache `repro sweep` uses.  The HDFS probe is the same
  sweep over its own ladder, seed and window, chosen by its bug id;
* verdicts come from :func:`repro.hunt.confirm.confirm_candidate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bench import calibrate
from ..cassandra.workloads import ScenarioParams
from ..checks import Checks
from ..hdfs import HDFS_BUG_ID
from ..sweep.executor import run_sweep
from ..sweep.spec import SweepSpec
from .candidates import find_candidates
from .confirm import NO_PROBE, confirm_candidate
from .probes import EXPECTED_REFUTED, PLANTED_BUG_CHECKS
from .report import HuntedCandidate, HuntReport

#: Default HDFS probe ladder (the block-report symptom needs more
#: datanodes than the Cassandra CI ladder's top scale).
DEFAULT_HDFS_SCALES = (8, 16, 32, 64)

#: The HDFS scenario's canonical repro seed and cold-start window (the
#: HDFS tests pin the same values).
HDFS_SEED = 3
HDFS_OBSERVE = 60.0


@dataclass
class HuntConfig:
    """Everything one hunt run depends on."""

    targets: Tuple[str, ...] = ("repro.cassandra", "repro.hdfs")
    #: Cassandra N-ladder; None uses the current calibration's Figure-3
    #: scales (CI: [8, 16, 24, 32]; REPRO_FULL: the paper's scales).
    scales: Optional[Sequence[int]] = None
    hdfs_scales: Sequence[int] = DEFAULT_HDFS_SCALES
    seed: int = 42
    workers: int = 1
    #: Persistent sweep-cache directory; None sweeps uncached.
    cache_dir: Optional[str] = None
    #: Smallest top-scale symptom that can confirm a candidate.
    min_symptom: float = 20.0

    def resolved_scales(self) -> List[int]:
        """The Cassandra N-ladder: explicit scales, else the calibrated one."""
        if self.scales is not None:
            return [int(n) for n in self.scales]
        return list(calibrate.figure3_scales())


def _symptom(report: Optional[Dict[str, Any]], kind: str) -> float:
    """Extract a probe's symptom value from a report dict."""
    if report is None:
        return 0.0
    if kind == "collateral_flaps":
        return float((report.get("extra") or {}).get("collateral_flaps", 0.0))
    return float(report.get("flaps", 0))


def _sweep(
    bug_ids: Sequence[str], scales: Sequence[int], seed: int,
    config: HuntConfig, params: Optional[ScenarioParams] = None,
) -> Tuple[Dict[str, Dict[int, Dict[str, Any]]], Dict[str, Dict[str, Any]]]:
    """Real-mode ladder + top-scale colo for every bug in ``bug_ids``.

    ``params`` None uses the sweep's calibrated scenario timings.  Returns
    ``(real_reports[bug][scale], colo_top_reports[bug])``, empty when
    there is no bug to sweep.
    """
    if not bug_ids:
        return {}, {}
    top = scales[-1]
    real_spec = SweepSpec(bugs=list(bug_ids), scales=list(scales),
                          seeds=[seed], modes=["real"], name="hunt-real")
    colo_spec = SweepSpec(bugs=list(bug_ids), scales=[top],
                          seeds=[seed], modes=["colo"], name="hunt-colo")
    real_summary = run_sweep(real_spec, workers=config.workers,
                             cache_dir=config.cache_dir, params=params)
    colo_summary = run_sweep(colo_spec, workers=config.workers,
                             cache_dir=config.cache_dir, params=params)
    real_reports: Dict[str, Dict[int, Dict[str, Any]]] = {}
    for result in real_summary.results:
        real_reports.setdefault(result.point.bug_id, {})[
            result.point.nodes] = result.report
    colo_reports = {result.point.bug_id: result.report
                    for result in colo_summary.results}
    return real_reports, colo_reports


def run_hunt(config: Optional[HuntConfig] = None) -> HuntReport:
    """The whole pipeline: detect -> sweep -> confirm -> ranked report."""
    config = config or HuntConfig()
    scales = config.resolved_scales()
    hdfs_scales = [int(n) for n in config.hdfs_scales]
    candidates = find_candidates(config.targets)

    probed = sorted({cand.probe.bug_id for cand in candidates
                     if cand.probe is not None})
    real_reports, colo_reports = _sweep(
        [bug for bug in probed if bug != HDFS_BUG_ID], scales, config.seed,
        config)
    hdfs_real, hdfs_colo = _sweep(
        [bug for bug in probed if bug == HDFS_BUG_ID], hdfs_scales,
        HDFS_SEED, config, ScenarioParams(observe=HDFS_OBSERVE))
    real_reports.update(hdfs_real)
    colo_reports.update(hdfs_colo)

    hunted: List[HuntedCandidate] = []
    for cand in candidates:
        if cand.probe is None:
            hunted.append(HuntedCandidate(candidate=cand, verdict=NO_PROBE))
            continue
        probe = cand.probe
        ladder = hdfs_scales if probe.bug_id == HDFS_BUG_ID else scales
        by_scale = real_reports.get(probe.bug_id, {})
        values = [_symptom(by_scale.get(n), probe.symptom) for n in ladder]
        confirmation = confirm_candidate(
            ladder, values,
            real_top_report=by_scale.get(ladder[-1]),
            colo_top_report=colo_reports.get(probe.bug_id),
            min_symptom=config.min_symptom,
        )
        hunted.append(HuntedCandidate(candidate=cand,
                                      verdict=confirmation.verdict,
                                      confirmation=confirmation))

    return HuntReport(
        targets=list(config.targets),
        scales=scales,
        hdfs_scales=hdfs_scales,
        seed=config.seed,
        candidates=hunted,
    ).finalize()


def self_check(report: HuntReport) -> Checks:
    """Did the hunt rediscover the whole planted corpus?

    One check per planted bug (must be confirmed), one per negative
    control (the fixed code path must be refuted), and one structural
    check that every probed candidate received a verdict.
    """
    checks = Checks()
    confirmed = {
        hc.candidate.probe.bug_id: hc
        for hc in report.by_verdict("confirmed")
        if hc.candidate.probe is not None
    }
    refuted = {
        hc.candidate.probe.bug_id
        for hc in report.by_verdict("refuted")
        if hc.candidate.probe is not None
    }
    for bug_id, label in sorted(PLANTED_BUG_CHECKS.items()):
        hit = confirmed.get(bug_id)
        checks.add(f"confirm {bug_id}: {label}", hit is not None,
                   f"{hit.candidate.location} "
                   f"{hit.confirmation.curve.classification}, "
                   f"symptom {hit.top_symptom:g}" if hit is not None
                   else f"MISSING: {bug_id} not confirmed")
    for bug_id in EXPECTED_REFUTED:
        checks.add(f"refute {bug_id}: fixed code path stays symptom-free",
                   bug_id in refuted,
                   "refuted as expected" if bug_id in refuted
                   else f"MISSING: {bug_id} not refuted")
    undecided = [hc.candidate.location for hc in report.candidates
                 if hc.verdict not in ("confirmed", "refuted", "no-probe")]
    checks.add("every candidate received a verdict", not undecided,
               "all candidates decided" if not undecided
               else f"undecided: {', '.join(undecided)}")
    return checks
