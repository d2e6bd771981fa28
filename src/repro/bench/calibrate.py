"""Calibration: paper-scale vs CI-scale experiment configurations.

The paper's Figure 3 sweeps N in {32, 64, 128, 256}.  Full-scale simulated
runs at N=256 take minutes of host time, so the default benchmark
configuration runs a *shrunk* sweep in {8, 16, 24, 32} with the calculator
cost constants scaled up so that the top CI scale exhibits the same
per-calculation cost as the paper's top scale -- the flap-vs-scale *shape*
(flat, then explosive) is preserved while each point runs in seconds.

Set the environment variable ``REPRO_FULL=1`` to run everything at paper
scales with unscaled constants.
"""

from __future__ import annotations

import os
from typing import List

from ..cassandra.bugs import get_bug
from ..cassandra.pending_ranges import CalculatorVariant, CostConstants, calc_cost
from ..cassandra.workloads import ScenarioParams
from ..core.target import CASSANDRA, target_for

#: Paper scales (Figure 3 x-axis).
PAPER_SCALES = [32, 64, 128, 256]
#: Shrunk CI scales; the constants map 32 onto the paper's 256.
CI_SCALES = [8, 16, 24, 32]

PAPER_TOP = 256
CI_TOP = 32


def full_scale() -> bool:
    """True when benchmarks should run at the paper's scales."""
    return os.environ.get("REPRO_FULL", "") not in ("", "0", "false")


def figure3_scales() -> List[int]:
    """The sweep scales for the current calibration (CI or full)."""
    return list(PAPER_SCALES) if full_scale() else list(CI_SCALES)


def scenario_params() -> ScenarioParams:
    """Scenario timings: full-length for paper scale, shortened for CI."""
    if full_scale():
        return ScenarioParams()
    return ScenarioParams(warmup=20.0, observe=90.0, leaving_duration=15.0,
                          join_duration=15.0, join_stagger=1.5)


def _variant_ratio(variant: CalculatorVariant, vnodes: int,
                   ci_top: int, paper_top: int) -> float:
    """Cost ratio mapping the CI top scale onto the paper top scale.

    For the fresh-bootstrap variant the in-flight change list M is the
    whole joining cluster (M ~ N), so the shrink ratio must scale M along
    with the token population -- otherwise the CI sweep under-prices the
    C6127 path by paper_top/ci_top and never shows the symptom.  The other
    variants' scenarios set M through the workload itself (one
    decommission, a fixed join fraction).
    """
    base = CostConstants()
    if variant is CalculatorVariant.V3_BOOTSTRAP_C6127:
        changes_ci, changes_paper = ci_top, paper_top
    else:
        changes_ci = changes_paper = 1
    paper_cost = calc_cost(variant, paper_top, paper_top * vnodes,
                           changes_paper, base)
    ci_cost = calc_cost(variant, ci_top, ci_top * vnodes, changes_ci, base)
    return paper_cost / ci_cost if ci_cost > 0 else 1.0


def ci_cost_constants(bug_id: str, ci_top: int = CI_TOP,
                      paper_top: int = PAPER_TOP) -> CostConstants:
    """Constants that make a CI-scale sweep mimic the paper-scale sweep.

    Each variant's coefficient is multiplied by its own paper/CI cost ratio
    at the top scale, so the shrunk sweep's largest point pays the same
    per-calculation cost the paper's 256-node point pays.  Because the
    polynomial shape is unchanged, smaller CI points map onto
    proportionally smaller effective paper scales.
    """
    bug = get_bug(bug_id)
    base = CostConstants()
    # The ported-fault mechanisms are all O(N^2)-per-node totals (close
    # scans, ring rescans, retry backlogs), so one quadratic ratio maps the
    # CI top scale's wedge onto the paper top scale's wedge for all three.
    fault_ratio = (paper_top / ci_top) ** 2
    return CostConstants(
        k0_c3831=base.k0_c3831 * _variant_ratio(
            CalculatorVariant.V0_C3831, bug.vnodes, ci_top, paper_top),
        k1_c3881=base.k1_c3881 * _variant_ratio(
            CalculatorVariant.V1_C3881, bug.vnodes, ci_top, paper_top),
        k2_vnode_fix=base.k2_vnode_fix * _variant_ratio(
            CalculatorVariant.V2_VNODE_FIX, bug.vnodes, ci_top, paper_top),
        k3_bootstrap=base.k3_bootstrap * _variant_ratio(
            CalculatorVariant.V3_BOOTSTRAP_C6127, bug.vnodes, ci_top, paper_top),
        floor=base.floor,
        k_close_scan=base.k_close_scan * fault_ratio,
        k_handoff_scan=base.k_handoff_scan * fault_ratio,
        k_retry=base.k_retry * fault_ratio,
    )


def experiment_constants(bug_id: str) -> CostConstants:
    """The constants a benchmark should use at the current scale setting.

    They price Cassandra's calculators only: another target's bug gets the
    defaults, which it ignores.
    """
    if full_scale() or target_for(bug_id) is not CASSANDRA:
        return CostConstants()
    return ci_cost_constants(bug_id)


def expected_symptom_scale(bug_id: str) -> int:
    """The smallest sweep scale at which the bug's symptom should appear.

    Used by benchmark assertions: flaps must be (near) zero below this
    scale and significant at/above it -- the paper's "symptoms only surface
    in larger deployment scales".
    """
    scales = figure3_scales()
    if bug_id == "c3881":
        # 3881 flaps grow earlier (Figure 3b shows flaps from mid scales).
        return scales[-2]
    return scales[-1]
