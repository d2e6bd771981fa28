"""Stage 1: turn raw lint findings into hunt candidates.

Candidates come from the *raw* (pre-baseline) findings -- the baseline
exists to keep `repro lint` quiet about intentional bugs, but the hunt's
entire job is to investigate exactly those -- restricted to the two rules
whose findings assert scale-dependent work:

* ``scale-complexity`` -- a symbolic complexity term of total degree >= 2;
* ``lock-held-scale-work`` -- scale-dependent work under a held lock.

One candidate per flagged *function*: taint propagation flags a caller for
every flagged callee it reaches, so a single location can carry several
findings (C5456's ``Node._calc_stage`` has both rules); the candidate keeps
every term but one verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..analysis.findings import SEVERITY_ORDER, Finding
from ..analysis.lint import run_lint
from .probes import Probe, probe_for

#: Lint rules whose findings are hunt candidates.  Undeclared-shared-state
#: sites are first-class candidates since the sanitizer (PR 9): their
#: dynamic evidence is the race-window curve rather than a flap curve.
CANDIDATE_RULES = ("scale-complexity", "lock-held-scale-work",
                   "undeclared-shared-state")


@dataclass
class Candidate:
    """One statically flagged location the hunt will try to confirm."""

    module: str
    function: str
    #: Most severe severity across the location's findings.
    severity: str
    #: rule -> stable detail term (e.g. ``scale-complexity -> O(M·T^2)``).
    terms: Dict[str, str]
    fingerprints: List[str]
    probe: Optional[Probe] = None
    lineno: int = 0

    @property
    def location(self) -> str:
        """``module:function`` key used to match probes and dedupe."""
        return f"{self.module}:{self.function}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready static half of the candidate record."""
        return {
            "module": self.module,
            "function": self.function,
            "severity": self.severity,
            "terms": dict(sorted(self.terms.items())),
            "fingerprints": sorted(self.fingerprints),
            "bug_id": self.probe.bug_id if self.probe else None,
        }


def candidates_from_findings(findings: Sequence[Finding]) -> List[Candidate]:
    """Group rule-relevant findings into per-function candidates."""
    grouped: Dict[tuple, List[Finding]] = {}
    for finding in findings:
        if finding.rule in CANDIDATE_RULES:
            grouped.setdefault((finding.module, finding.function),
                               []).append(finding)
    out: List[Candidate] = []
    for (module, function), group in sorted(grouped.items()):
        severity = min(group,
                       key=lambda f: SEVERITY_ORDER.get(f.severity, 9))
        terms: Dict[str, str] = {}
        for finding in group:
            # Keep the first (sorted) detail per rule; lock findings carry
            # "lock|work|term" details, complexity findings the term alone.
            terms.setdefault(finding.rule, finding.detail)
        out.append(Candidate(
            module=module,
            function=function,
            severity=severity.severity,
            terms=terms,
            fingerprints=[f.fingerprint for f in group],
            probe=probe_for(module, function),
            lineno=min(f.lineno for f in group),
        ))
    return out


def find_candidates(targets: Sequence[str]) -> List[Candidate]:
    """Run the linter over ``targets`` and extract hunt candidates."""
    report = run_lint(targets=tuple(targets))
    return candidates_from_findings(report.raw_findings)
