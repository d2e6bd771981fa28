"""Candidate -> runnable-probe mapping.

A *probe* tells the hunt how to test a static candidate dynamically: which
bug id (a registered Cassandra bug, or :data:`~repro.hdfs.HDFS_BUG_ID` for
the HDFS model) exercises the flagged function, and which report field
carries its symptom.  Candidates without a probe -- taint echoes of a
flagged callee, pure helpers, the legacy differential corpus -- are still
listed in the report (verdict ``no-probe``) so the detect stage's full
surface stays visible.

The mapping is deliberately explicit rather than inferred: each entry is
the hunt's ground-truth statement "this finding is exercised by that
scenario", which is exactly what the self-check audits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..cassandra.ported_faults import BUG_OF
from ..hdfs import HDFS_BUG_ID


@dataclass(frozen=True)
class Probe:
    """How to dynamically exercise one static candidate."""

    #: Registered bug id (``repro.cassandra.bugs``) or :data:`HDFS_BUG_ID`;
    #: the id also selects the system that runs it.
    bug_id: str
    #: Report field carrying the symptom: ``flaps`` counts every false
    #: conviction; ``collateral_flaps`` excludes correct detections of
    #: genuinely crashed nodes (failover probes would otherwise count the
    #: intended kill as a symptom).
    symptom: str = "flaps"
    #: False for probes of *fixed* code paths, which the hunt expects to
    #: refute -- the pipeline's negative control.
    expect_buggy: bool = True


def _cassandra_probes() -> Dict[Tuple[str, str], Probe]:
    probes: Dict[Tuple[str, str], Probe] = {
        # The four paper bugs: each calculator variant's corpus function
        # maps to the bug config that executes its cost class.
        ("cassandra.calc_variants", "calc_v0_c3831"): Probe("c3831"),
        ("cassandra.calc_variants", "calc_v1_c3881"): Probe("c3881"),
        ("cassandra.calc_variants", "calc_v3_bootstrap_c6127"):
            Probe("c6127"),
        # The fixed calculator is still O(M·T) -- flagged statically, but
        # dynamically symptom-free: the hunt must refute it.
        ("cassandra.calc_variants", "calc_v2_vnode_fix"):
            Probe("c3881-fixed", expect_buggy=False),
        # C5456 is a locking bug: the candidate is the calc stage holding
        # the ring lock across the calculation.
        ("cassandra.node", "_calc_stage"): Probe("c5456"),
        # HDFS: the block report processed under the namesystem lock.
        ("hdfs.namenode", "_handle_block_report"): Probe(HDFS_BUG_ID),
    }
    for function, bug_id in BUG_OF.items():
        symptom = "collateral_flaps" if bug_id == "retryamp" else "flaps"
        probes[("cassandra.ported_faults", function)] = Probe(
            bug_id, symptom=symptom)
    return probes


#: (module suffix, function) -> probe.
PROBES: Dict[Tuple[str, str], Probe] = _cassandra_probes()


def probe_for(module: str, function: str) -> Optional[Probe]:
    """The probe for a finding location, or None (no runnable scenario)."""
    for (suffix, fn), probe in PROBES.items():
        if fn == function and (module == suffix
                               or module.endswith(f".{suffix}")):
            return probe
    return None


#: The planted corpus a hunt of the shipped tree must rediscover (bug id ->
#: human label); ``repro hunt --self-check`` fails unless every one of
#: these is confirmed and every negative control is refuted.
PLANTED_BUG_CHECKS: Dict[str, str] = {
    "c3831": "CASSANDRA-3831 cubic recalculation",
    "c3881": "CASSANDRA-3881 quadratic vnode recalculation",
    "c5456": "CASSANDRA-5456 calculation under the ring lock",
    "c6127": "CASSANDRA-6127 fresh-bootstrap construction",
    HDFS_BUG_ID: "HDFS O(B) block report under the namesystem lock",
    "zkclose": "ported: O(N^2) session-close broadcast scan",
    "rhandoff": "ported: quadratic ring-handoff partner scan",
    "retryamp": "ported: unbounded retry amplification under partition",
}

#: Negative controls: probes of fixed code the hunt must refute.
EXPECTED_REFUTED = ("c3881-fixed",)
