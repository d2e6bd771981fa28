"""The ranked, machine-readable hunt report.

Determinism contract: the report contains only virtual-time results and
static analysis facts -- no wall clocks, no cache provenance, no absolute
paths -- so hunting the same tree twice (cache cold or warm, one worker or
many) serializes to byte-identical JSON.  The benchmark/CI self-check
asserts exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..checks import VerbReport
from .candidates import Candidate
from .confirm import CONFIRMED, NO_PROBE, REFUTED, Confirmation

#: Format tag embedded in serialized reports.
HUNT_REPORT_FORMAT = "repro-hunt-report-v1"

_VERDICT_ORDER = {CONFIRMED: 0, REFUTED: 1, NO_PROBE: 2}


@dataclass
class HuntedCandidate:
    """One candidate with (when probed) its dynamic evidence."""

    candidate: Candidate
    verdict: str
    confirmation: Optional[Confirmation] = None
    rank: int = 0

    @property
    def top_symptom(self) -> float:
        """Symptom magnitude at the largest swept scale (0 if never swept)."""
        if self.confirmation is None:
            return 0.0
        return float(self.confirmation.curve.values[-1])

    def sort_key(self) -> tuple:
        """Most severe first: verdict class, symptom size, then location."""
        return (
            _VERDICT_ORDER.get(self.verdict, 9),
            -self.top_symptom,
            self.candidate.module,
            self.candidate.function,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Candidate record plus its verdict, rank, and evidence block."""
        data: Dict[str, Any] = {"rank": self.rank, "verdict": self.verdict}
        data.update(self.candidate.to_dict())
        if self.confirmation is not None:
            data["evidence"] = self.confirmation.to_dict()
        return data


@dataclass
class HuntReport(VerbReport):
    """Everything one hunt produced."""

    targets: List[str]
    scales: List[int]
    hdfs_scales: List[int]
    seed: int
    candidates: List[HuntedCandidate] = field(default_factory=list)

    def finalize(self) -> "HuntReport":
        """Rank candidates (confirmed first, biggest symptom first)."""
        self.candidates.sort(key=lambda hc: hc.sort_key())
        for index, hunted in enumerate(self.candidates, start=1):
            hunted.rank = index
        return self

    def by_verdict(self, verdict: str) -> List[HuntedCandidate]:
        """All candidates that ended with the given verdict, in rank order."""
        return [hc for hc in self.candidates if hc.verdict == verdict]

    @property
    def confirmed_bug_ids(self) -> List[str]:
        """Bug ids of every confirmed candidate that carried a probe."""
        return [hc.candidate.probe.bug_id for hc in self.by_verdict(CONFIRMED)
                if hc.candidate.probe is not None]

    def to_json_dict(self) -> Dict[str, Any]:
        """The full machine-readable report (see DESIGN.md for the schema)."""
        data: Dict[str, Any] = {
            "format": HUNT_REPORT_FORMAT,
            "targets": list(self.targets),
            "scales": list(self.scales),
            "hdfs_scales": list(self.hdfs_scales),
            "seed": self.seed,
            "summary": {
                "candidates": len(self.candidates),
                "confirmed": len(self.by_verdict(CONFIRMED)),
                "refuted": len(self.by_verdict(REFUTED)),
                "no_probe": len(self.by_verdict(NO_PROBE)),
            },
            "candidates": [hc.to_dict() for hc in self.candidates],
        }
        return self._embed_self_check(data)

    def to_text(self) -> str:
        """Human-readable ranked table."""
        summary = self.to_json_dict()["summary"]
        lines = [
            f"repro hunt: {', '.join(self.targets)} "
            f"(ladder {self.scales}, hdfs {self.hdfs_scales})",
            f"  {summary['candidates']} candidate(s): "
            f"{summary['confirmed']} confirmed, "
            f"{summary['refuted']} refuted, "
            f"{summary['no_probe']} without a probe",
        ]
        for hunted in self.candidates:
            cand = hunted.candidate
            term = ", ".join(sorted(cand.terms.values()))
            line = (f"  #{hunted.rank:<2d} {hunted.verdict.upper():9s} "
                    f"{cand.location}  [{term}]")
            if hunted.confirmation is not None:
                curve = hunted.confirmation.curve
                line += (f"  {cand.probe.bug_id}: "
                         f"{curve.classification}, "
                         f"symptom {hunted.top_symptom:g} "
                         f"@N={curve.scales[-1]}")
                extra = hunted.confirmation.extrapolation
                if extra.get("missed"):
                    line += (f", extrapolation predicted "
                             f"{extra['predicted']:g}")
                stage = hunted.confirmation.divergence.get("stage")
                if stage:
                    line += f", colo diverges at {stage}"
            lines.append(line)
        return "\n".join(lines + self._self_check_lines()) + "\n"
