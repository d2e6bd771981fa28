"""The ``repro lint`` engine: run all rules, apply the baseline, report.

A *baseline* file records fingerprints of known findings.  The model
deliberately contains the historical bugs (the coarse-lock calculation,
the O(B) block report, the legacy calculator corpus), so a clean lint run
means "no findings **beyond** the intentional ones" -- the same contract
production linters implement with suppression baselines.  Fingerprints
exclude line numbers, so moving code does not churn the file.

``self_check`` is the analyzer's own regression gate: it asserts the
*raw* (pre-baseline) findings rediscover every historical bug path from
source alone -- C3831, C3881, C5456, C6127, and the HDFS O(B)
block-report path -- and that the baseline suppresses everything, i.e.
zero false positives on the shipped tree.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..checks import Checks, VerbReport, report_json
from ..core.finder import Program
from .drift import check_drift
from .effects import check_complexity, check_determinism, check_pil_safety
from .findings import Finding, sort_findings
from .locks import check_locks
from .sarif import findings_to_sarif_dict
from .shared import check_dead_annotations, check_shared_state

#: Default lint targets: the two modeled systems.
DEFAULT_TARGETS = ("repro.cassandra", "repro.hdfs")

BASELINE_VERSION = 1


@dataclass
class LintReport(VerbReport):
    """Everything one lint run produced."""

    targets: List[str]
    findings: List[Finding]            # unsuppressed findings
    suppressed: int
    drift: List[Dict[str, object]]
    module_count: int
    function_count: int
    raw_findings: List[Finding] = field(default_factory=list)

    def to_json_dict(self) -> Dict[str, object]:
        """Canonical JSON form (stable ordering, no absolute paths)."""
        data: Dict[str, object] = {
            "targets": list(self.targets),
            "summary": {
                "modules": self.module_count,
                "functions": self.function_count,
                "findings": len(self.findings),
                "suppressed": self.suppressed,
                "errors": sum(1 for f in self.findings
                              if f.severity == "error"),
                "warnings": sum(1 for f in self.findings
                                if f.severity == "warning"),
            },
            "findings": [f.to_dict() for f in self.findings],
            "drift": self.drift,
        }
        return self._embed_self_check(data)

    def to_sarif(self) -> str:
        """SARIF 2.1.0 of the unsuppressed findings."""
        return report_json(findings_to_sarif_dict(self.findings))

    def to_text(self) -> str:
        """Human-readable report."""
        lines = [f"repro lint: {', '.join(self.targets)}"]
        lines.append(f"  {self.module_count} modules,"
                     f" {self.function_count} functions analyzed;"
                     f" {len(self.findings)} finding(s),"
                     f" {self.suppressed} baseline-suppressed")
        for finding in self.findings:
            lines.append(f"  {finding.severity.upper():7s}"
                         f" {finding.module}:{finding.lineno}"
                         f" {finding.function} [{finding.rule}]"
                         f" {finding.message}  ({finding.fingerprint})")
        bad_drift = [v for v in self.drift if not v["ok"]]
        lines.append(f"  drift: {len(self.drift) - len(bad_drift)}"
                     f"/{len(self.drift)} cost classes verified")
        return "\n".join(lines + self._self_check_lines()) + "\n"


# -- baseline ----------------------------------------------------------------------


def load_baseline(path: str) -> Dict[str, Dict[str, str]]:
    """Fingerprint -> suppression entry; empty when the file is absent."""
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("version") != BASELINE_VERSION:
        raise ValueError(f"unsupported baseline version in {path}")
    return {entry["fingerprint"]: entry
            for entry in data.get("suppressions", [])}


def write_baseline(path: str, findings: Sequence[Finding]) -> None:
    """Write every finding as a suppression (sorted, deterministic)."""
    entries = [{
        "fingerprint": f.fingerprint,
        "rule": f.rule,
        "module": f.module,
        "function": f.function,
        "note": f.message,
    } for f in sort_findings(findings)]
    payload = {"version": BASELINE_VERSION, "suppressions": entries}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- the run -----------------------------------------------------------------------


def run_rules(program: Program) -> "tuple[List[Finding], List[Dict[str, object]]]":
    """All rules over a loaded program: (sorted findings, drift verdicts)."""
    findings: List[Finding] = []
    findings.extend(check_complexity(program))
    findings.extend(check_pil_safety(program))
    findings.extend(check_determinism(program))
    findings.extend(check_locks(program))
    findings.extend(check_shared_state(program))
    findings.extend(check_dead_annotations(program))
    verdicts, drift_findings = check_drift(program)
    findings.extend(drift_findings)
    return sort_findings(findings), verdicts


def run_lint(targets: Sequence[str] = DEFAULT_TARGETS,
             baseline_path: Optional[str] = None) -> LintReport:
    """Load ``targets``, run every rule, apply the baseline."""
    program = Program.load(list(targets))
    raw, drift_verdicts = run_rules(program)
    baseline = load_baseline(baseline_path) if baseline_path else {}
    unsuppressed = [f for f in raw if f.fingerprint not in baseline]
    return LintReport(
        targets=list(targets),
        findings=unsuppressed,
        suppressed=len(raw) - len(unsuppressed),
        drift=drift_verdicts,
        module_count=len(program.modules),
        function_count=sum(len(unit.report.functions)
                           for unit in program.modules.values()),
        raw_findings=raw,
    )


# -- self-check --------------------------------------------------------------------


def _has_finding(findings: Sequence[Finding], rule: str, module_suffix: str,
                 function: str, contains: str = "") -> Optional[Finding]:
    for finding in findings:
        if (finding.rule == rule and finding.function == function
                and (finding.module == module_suffix
                     or finding.module.endswith(f".{module_suffix}"))
                and contains in finding.message):
            return finding
    return None


def self_check(report: LintReport) -> Checks:
    """Assert the analyzer rediscovered every historical bug path."""
    checks = Checks()
    raw = report.raw_findings

    def record(name: str, finding: Optional[Finding], expect: str) -> None:
        checks.add(name, finding is not None,
                   finding.message if finding is not None
                   else f"MISSING: {expect}")

    record(
        "C3831: cubic physical-ring recalculation",
        _has_finding(raw, "scale-complexity", "cassandra.calc_variants",
                     "calc_v0_c3831", contains="O(M·N^3)"),
        "scale-complexity O(M·N^3) on calc_v0_c3831",
    )
    record(
        "C3881: quadratic vnode-ring recalculation",
        _has_finding(raw, "scale-complexity", "cassandra.calc_variants",
                     "calc_v1_c3881", contains="O(M·T^2)"),
        "scale-complexity O(M·T^2) on calc_v1_c3881",
    )
    record(
        "C5456: calculation under the coarse ring lock",
        _has_finding(raw, "lock-held-scale-work", "cassandra.node",
                     "_calc_stage", contains="ring_lock"),
        "lock-held-scale-work on _calc_stage (ring_lock)",
    )
    record(
        "C6127: branch-guarded fresh-bootstrap construction",
        _has_finding(raw, "scale-complexity", "cassandra.calc_variants",
                     "calc_v3_bootstrap_c6127", contains="fresh_bootstrap"),
        "guarded scale-complexity on calc_v3_bootstrap_c6127",
    )
    record(
        "HDFS: O(B) block report under the namesystem lock",
        _has_finding(raw, "lock-held-scale-work", "hdfs.namenode",
                     "_handle_block_report", contains="fsn_lock"),
        "lock-held-scale-work on _handle_block_report (fsn_lock)",
    )
    bad_drift = [v for v in report.drift if not v["ok"]]
    checks.add(
        "cost-model drift: inferred == declared degrees", not bad_drift,
        "all declared cost classes match inferred terms" if not bad_drift
        else f"drift on {', '.join(str(v['function']) for v in bad_drift)}")
    checks.add(
        "baseline: zero unsuppressed findings on the shipped tree",
        not report.findings,
        "baseline covers every intentional finding" if not report.findings
        else f"{len(report.findings)} finding(s) not in baseline")
    return checks
