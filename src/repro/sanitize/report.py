"""The ``repro sanitize`` report: static harvest + dynamic ladder, one doc.

The report is deterministic by construction -- every embedded record is
already rounded and sorted at its producer (tracker details, curve fits,
finding lists), wall-clock time never enters, and JSON is emitted with
``sort_keys`` -- so a warm (cache-served) report must be byte-identical
to a cold one, and the self-check asserts exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..analysis.findings import Finding
from ..analysis.sarif import findings_to_sarif_dict
from ..checks import VerbReport, report_json

#: Schema tag embedded in every JSON report.
SANITIZE_REPORT_FORMAT = "repro-sanitize-report-v1"


@dataclass
class SanitizeReport(VerbReport):
    """Everything one sanitizer run produced."""

    targets: List[str]
    #: :meth:`repro.analysis.shared.SharedStateReport.to_dict` output.
    static: Dict[str, Any]
    #: Static findings (undeclared-shared-state, dead-lock-annotation).
    findings: List[Finding] = field(default_factory=list)
    #: ``site_key -> classification`` actually wrapped on the top-scale run.
    wrapped: Dict[str, str] = field(default_factory=dict)
    #: One entry per ladder point: ``{"nodes": n, "metrics": {...}}``.
    ladder: List[Dict[str, Any]] = field(default_factory=list)
    #: metric name -> :meth:`repro.core.curves.CurveFit.to_dict` output.
    curves: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Top-scale :meth:`repro.sanitize.tracker.RaceTracker.to_dict` detail.
    detail: Dict[str, Any] = field(default_factory=dict)

    def classification_counts(self) -> Dict[str, int]:
        """Site count per static classification, sorted by name."""
        counts: Dict[str, int] = {}
        for site in self.static.get("sites", []):
            key = site.get("classification", "")
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    def to_json_dict(self) -> Dict[str, Any]:
        """Canonical JSON form (stable ordering, no wall-clock fields)."""
        data: Dict[str, Any] = {
            "format": SANITIZE_REPORT_FORMAT,
            "targets": list(self.targets),
            "summary": {
                "sites": len(self.static.get("sites", [])),
                "roots": len(self.static.get("roots", [])),
                "private": self.static.get("private", 0),
                "classifications": self.classification_counts(),
                "findings": len(self.findings),
                "wrapped": len(self.wrapped),
            },
            "static": self.static,
            "findings": [f.to_dict() for f in self.findings],
            "wrapped": dict(sorted(self.wrapped.items())),
            "ladder": self.ladder,
            "curves": self.curves,
            "detail": self.detail,
        }
        return self._embed_self_check(data)

    def to_sarif(self) -> str:
        """SARIF 2.1.0 of the static findings under the sanitize driver."""
        return report_json(findings_to_sarif_dict(
            self.findings, driver="repro-sanitize",
            fingerprint_key="reproSanitize/v1"))

    def to_text(self) -> str:
        """Human-readable report."""
        lines = [f"repro sanitize: {', '.join(self.targets)}"]
        counts = self.classification_counts()
        sites = len(self.static.get("sites", []))
        lines.append(
            f"  static: {sites} shared site(s) from"
            f" {len(self.static.get('roots', []))} process roots"
            f" ({self.static.get('private', 0)} private)")
        for name, count in counts.items():
            lines.append(f"    {name}: {count}")
        for finding in self.findings:
            lines.append(f"  {finding.severity.upper():7s}"
                         f" {finding.module}:{finding.lineno}"
                         f" {finding.function} [{finding.rule}]"
                         f" {finding.message}  ({finding.fingerprint})")
        if self.ladder:
            lines.append(f"  dynamic: {len(self.wrapped)} site(s)"
                         " instrumented; race window per scale:")
            for point in self.ladder:
                metrics = point.get("metrics", {})
                lines.append(
                    f"    N={point['nodes']:>4}:"
                    f" {int(metrics.get('race_pairs', 0)):>6} pair(s),"
                    f" {int(metrics.get('race_sites', 0)):>3} site(s),"
                    f" {int(metrics.get('race_forced_releases', 0)):>3}"
                    " forced release(s)")
            for metric, curve in sorted(self.curves.items()):
                exponent = curve.get("exponent")
                shown = "n/a" if exponent is None else f"{exponent:.2f}"
                lines.append(f"  curve {metric}:"
                             f" {curve.get('classification')}"
                             f" (exponent {shown})")
        return "\n".join(lines + self._self_check_lines()) + "\n"
