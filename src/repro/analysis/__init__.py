"""Whole-program static analysis: the scalability linter.

Layered on the finder's :class:`~repro.core.finder.Program` (multi-module
loading, static annotation harvest, cross-module call linking), this
package provides the paper's "program analysis" workflow as a standalone
tool:

* :mod:`~repro.analysis.effects` -- complexity / PIL-safety /
  determinism rules;
* :mod:`~repro.analysis.locks` -- the lock-discipline checker (the
  generic C5456-pattern detector);
* :mod:`~repro.analysis.drift` -- inferred-vs-declared cost-class drift;
* :mod:`~repro.analysis.lint` -- orchestration, baseline suppression,
  self-check, JSON output;
* :mod:`~repro.analysis.sarif` -- SARIF 2.1.0 serialization.

Exposed through the CLI as ``repro lint``.
"""

from ..core.axes import Term, level_axis, maximal, primary
from ..core.finder import ModuleUnit, Program, harvest_annotations
from .drift import check_drift
from .effects import check_complexity, check_determinism, check_pil_safety
from .findings import Finding, sort_findings
from .lint import (
    DEFAULT_TARGETS,
    LintReport,
    load_baseline,
    run_lint,
    run_rules,
    self_check,
    write_baseline,
)
from .locks import check_locks
from .sarif import to_sarif_dict

__all__ = [
    "DEFAULT_TARGETS",
    "Finding",
    "LintReport",
    "ModuleUnit",
    "Program",
    "Term",
    "check_complexity",
    "check_determinism",
    "check_drift",
    "check_locks",
    "check_pil_safety",
    "harvest_annotations",
    "level_axis",
    "load_baseline",
    "maximal",
    "primary",
    "run_lint",
    "run_rules",
    "self_check",
    "sort_findings",
    "to_sarif_dict",
    "write_baseline",
]
