"""Complexity, PIL-safety, and determinism rules over a linked program.

Three rules:

* **scale-complexity** -- the program-wide effective complexity of a
  function is superlinear in a scale axis.  Total degree >= 3 is an error
  (the C3831/C3881 class: cubic/quadratic nests that wedge a stage at
  scale), degree 2 a warning.  The message carries the full Pareto term
  set and the guards on the path (C6127: the expensive nest only runs
  when ``fresh_bootstrap`` holds).
* **pil-unsafe-offender** -- an offending function that the PIL-safety
  dataflow says cannot be memo-replaced (side effects, generator shape,
  or no return value): it wedges at scale *and* resists the paper's
  remedy, so it needs a manual fix.
* **nondeterminism** -- a function contains a nondeterminism source
  (wall-clock reads, unseeded random, set/dict iteration order): even if
  never PIL-replaced it breaks byte-identical replay of the sweep cache.
"""

from __future__ import annotations

from typing import List

from ..core.finder import VETO_KINDS, Program
from .findings import Finding

#: Determinism-relevant effect kinds reported by the nondeterminism rule.
_NONDET_KINDS = ("nondeterminism", "iteration-order")


def check_complexity(program: Program) -> List[Finding]:
    """Flag functions whose program-wide complexity is superlinear."""
    findings: List[Finding] = []
    for module, analysis in program.functions():
        degree = analysis.effective_depth
        if degree < 2:
            continue
        labels = ", ".join(term.render() for term in analysis.effective_terms)
        guards = analysis.guard_conditions()
        guard_note = f" [guarded by: {'; '.join(guards)}]" if guards else ""
        findings.append(Finding(
            rule="scale-complexity",
            severity="error" if degree >= 3 else "warning",
            module=module,
            function=analysis.qualname,
            lineno=analysis.lineno,
            message=f"effective complexity {labels}{guard_note}",
            detail=labels,
        ))
    return findings


def check_pil_safety(program: Program) -> List[Finding]:
    """Flag offenders the PIL-safety dataflow refuses to memo-replace."""
    findings: List[Finding] = []
    for module, analysis in program.functions():
        if not analysis.offending:
            continue
        vetoes = sorted(kind for kind in analysis.transitive_effect_kinds
                        if kind in VETO_KINDS)
        if analysis.is_generator:
            reason = "generator (lazy protocol object, not memoizable)"
            detail = "generator"
        elif vetoes:
            reason = f"side effects: {', '.join(vetoes)}"
            detail = ",".join(vetoes)
        elif not analysis.returns_value:
            reason = "returns no value (nothing to memoize)"
            detail = "no-return"
        else:
            continue
        findings.append(Finding(
            rule="pil-unsafe-offender",
            severity="warning",
            module=module,
            function=analysis.qualname,
            lineno=analysis.lineno,
            message=f"offending but not PIL-replaceable: {reason}",
            detail=detail,
        ))
    return findings


def check_determinism(program: Program) -> List[Finding]:
    """Flag direct nondeterminism sources (one finding per kind)."""
    findings: List[Finding] = []
    for module, analysis in program.functions():
        for kind in _NONDET_KINDS:
            effects = [e for e in analysis.side_effects if e.kind == kind]
            if not effects:
                continue
            first = min(effects, key=lambda e: e.lineno)
            details = sorted({e.detail for e in effects})
            findings.append(Finding(
                rule="nondeterminism",
                severity="warning",
                module=module,
                function=analysis.qualname,
                lineno=first.lineno,
                message=f"{kind}: {', '.join(details)}",
                detail=f"{kind}|{','.join(details)}",
            ))
    return findings
