"""Model-drift checker: inferred complexity vs the modeled cost classes.

The simulator charges pending-range calculations *arithmetically* through
:func:`repro.cassandra.pending_ranges.calc_cost` and block reports through
:class:`repro.hdfs.namenode.HdfsCosts`; the loop-literal corpus in
:mod:`repro.cassandra.calc_variants` and :mod:`repro.cassandra.legacy_calc`
reproduces the same historical implementations as real code.  This checker
closes the loop: the *inferred* polynomial degrees of the corpus functions
must match the *declared* degrees of the cost model (log factors are
charged in virtual time but invisible to loop counting, so they are
dropped from the expectation).  A mismatch means either the corpus or the
cost model was edited without the other -- the exact silent-drift failure
mode a modeled reproduction is prone to.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.axes import Term
from ..core.finder import Program
from .findings import Finding

#: Expected polynomial degrees per corpus function, keyed by module suffix.
#: These mirror the ``calc_cost`` formulas (CalculatorVariant) and the
#: HdfsCosts per-block charges; update both together or the lint gate fails.
EXPECTATIONS: Dict[str, List[Tuple[str, Dict[str, int], str]]] = {
    "cassandra.calc_variants": [
        ("calc_v0_c3831", {"M": 1, "N": 3}, "V0_C3831 cost k·M·N^3·log^3 N"),
        ("calc_v1_c3881", {"M": 1, "T": 2}, "V1_C3881 cost k·M·T^2·log^2 T"),
        ("calc_v2_vnode_fix", {"M": 1, "T": 1},
         "V2_VNODE_FIX cost k·M·T·log^2 T"),
        ("calc_v3_bootstrap_c6127", {"M": 1, "T": 2},
         "V3_BOOTSTRAP_C6127 cost k·M·T^2"),
    ],
    "cassandra.legacy_calc": [
        ("_fresh_ring_construction", {"T": 2},
         "C6127 fresh-bootstrap construction, O(T^2)"),
        ("calculate_pending_ranges_legacy", {"T": 2},
         "legacy top-level calculation, O(T^2) dominant"),
    ],
    "cassandra.node": [
        ("_run_calculation", {"M": 1, "T": 2},
         "declare_cost bridge: worst modeled variant O(M·T^2)"),
    ],
    "hdfs.namenode": [
        ("_report_outcome", {"B": 1}, "block-report processing, O(B)"),
    ],
}


def check_drift(program: Program
                ) -> Tuple[List[Dict[str, object]], List[Finding]]:
    """Compare inferred terms with declared cost classes.

    Returns ``(verdicts, findings)``: one verdict dict per applicable
    expectation (modules absent from the program are skipped), and one
    error finding per mismatch.
    """
    verdicts: List[Dict[str, object]] = []
    findings: List[Finding] = []
    for suffix in sorted(EXPECTATIONS):
        module = _module_for(program, suffix)
        if module is None:
            continue
        unit = program.modules[module]
        for function, degrees, origin in EXPECTATIONS[suffix]:
            expected = Term.from_degrees(degrees)
            analysis = unit.report.functions.get(function)
            if analysis is None:
                inferred: List[str] = []
                ok = False
            else:
                terms = analysis.effective_terms
                inferred = [term.render() for term in terms]
                ok = expected in terms
            verdicts.append({
                "module": module,
                "function": function,
                "expected": expected.render(),
                "inferred": inferred,
                "origin": origin,
                "ok": ok,
            })
            if not ok:
                findings.append(Finding(
                    rule="complexity-drift",
                    severity="error",
                    module=module,
                    function=function,
                    lineno=analysis.lineno if analysis else 0,
                    message=(f"declared cost class {expected.render()}"
                             f" ({origin}) not among inferred terms"
                             f" [{', '.join(inferred) or 'none'}]"),
                    detail=f"{expected.render()}|{origin}",
                ))
    return verdicts, findings


def _module_for(program: Program, suffix: str) -> Optional[str]:
    if suffix in program.modules:
        return suffix
    return program.find_module(suffix.rsplit(".", 1)[-1]) \
        if "." not in suffix else _suffix_match(program, suffix)


def _suffix_match(program: Program, suffix: str) -> Optional[str]:
    matches = [name for name in program.modules
               if name == suffix or name.endswith(f".{suffix}")]
    return matches[0] if len(matches) == 1 else None
