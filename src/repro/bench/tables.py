"""Table generators: the numeric claims of sections 2, 3, 5, and 8.

The paper has no numbered tables; its quantitative claims outside the
figures are treated as table-equivalents (see DESIGN.md's experiment
index):

* T-MEMO -- memoization is a one-time cost, replay is cheap and fast;
* T-COLO -- maximum colocation factor and the three bottlenecks;
* T-BUGS / T-CAUSE -- the bug-study population statistics;
* T-FIND -- the offending-function finder's report over the corpus;
* T-DUR -- offending-computation durations span ~0.001-4 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cassandra import legacy_calc
from ..core.colocation import (
    ColocationAnalyzer,
    DemandModel,
    per_process_footprint,
    single_process_footprint,
)
from ..core.finder import FinderReport, find_offending
from ..cassandra.pending_ranges import CalculatorVariant
from ..study import default_study, render_population_table, summarize
from . import calibrate
from .runner import sweep_points


def _indexed_points(bug_ids: List[str], scales: List[int], modes: List[str]):
    """The grid's results from the shared sweep cache, by (bug, nodes, mode)."""
    return {(r.point.bug_id, r.point.nodes, r.point.mode): r
            for r in sweep_points(bug_ids, scales, modes).results}


# -- T-MEMO ---------------------------------------------------------------------------


def memo_replay_table(bug_ids: Optional[List[str]] = None,
                      nodes: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """Memoization vs replay cost for each reproduced bug (section 8).

    Runs through the sweep engine: the real/colo/pil reports per bug come
    from one grid resolution against the shared incremental cache, and the
    colo row's database statistics ride along from the recording job.
    """
    bug_ids = bug_ids or ["c3831", "c3881", "c5456"]
    nodes = nodes if nodes is not None else calibrate.figure3_scales()[-1]
    results = _indexed_points(bug_ids, [nodes], ["real", "colo", "pil"])
    table: Dict[str, Dict[str, float]] = {}
    for bug_id in bug_ids:
        real = results[(bug_id, nodes, "real")]
        colo = results[(bug_id, nodes, "colo")]
        pil = results[(bug_id, nodes, "pil")]
        db_stats = colo.db_stats or {}
        table[bug_id] = {
            "memo_wall_seconds": colo.wall_seconds,
            "replay_wall_seconds": pil.wall_seconds,
            # Host-time ratio; 0.0 when either side was cache-served (no
            # host time was spent, so the ratio is unknowable).
            "speedup": (colo.wall_seconds / pil.wall_seconds
                        if colo.wall_seconds > 0 and pil.wall_seconds > 0
                        else 0.0),
            "protocol_real": real.report["extra"].get("protocol_time", 0.0),
            "real_converged": real.report["extra"].get("converged", 0.0),
            "protocol_memo": colo.report["extra"].get("protocol_time", 0.0),
            "protocol_replay": pil.report["extra"].get("protocol_time", 0.0),
            "memo_converged": colo.report["extra"].get("converged", 0.0),
            "replay_converged": pil.report["extra"].get("converged", 0.0),
            "distinct_inputs": float(db_stats.get("distinct", 0)),
            "samples": float(db_stats.get("samples", 0)),
            "duration_min": db_stats.get("duration_min", 0.0),
            "duration_max": db_stats.get("duration_max", 0.0),
            "replay_hit_rate": (pil.replay or {}).get("hit_rate", 0.0),
        }
    return table


def render_memo_replay_table(table: Dict[str, Dict[str, float]]) -> str:
    """Render the T-MEMO comparison as a text table."""
    lines = [
        "T-MEMO: one-time memoization vs PIL replay",
        "(protocol completion, virtual seconds; '+' = never converged "
        "within the window)",
        f"{'bug':>8} {'real':>8} {'memoize':>9} {'replay':>8} "
        f"{'inputs':>7} {'samples':>8} {'hit rate':>9}",
    ]
    for bug_id, row in table.items():
        memo_mark = "" if row["memo_converged"] else "+"
        replay_mark = "" if row["replay_converged"] else "+"
        lines.append(
            f"{bug_id:>8} {row['protocol_real']:>8.1f} "
            f"{row['protocol_memo']:>8.1f}{memo_mark:1} "
            f"{row['protocol_replay']:>7.1f}{replay_mark:1} "
            f"{int(row['distinct_inputs']):>7d} {int(row['samples']):>8d} "
            f"{row['replay_hit_rate']:>9.0%}"
        )
    return "\n".join(lines)


# -- T-COLO -----------------------------------------------------------------------------


@dataclass
class ColocationLimits:
    """Section 8's colocation-limit result."""

    pil_max_factor: int
    colo_max_factor: int
    probe_600_bottlenecks: List[str]
    probe_600_memory_fraction: float
    probe_600_cpu: float


def colocation_limits() -> ColocationLimits:
    """Max colocation factors for the scale-check redesign vs basic
    colocation, and why 600 nodes fail (the paper: max 512; 600 hits
    CPU > 90%, OOM, or event lateness)."""
    pil_analyzer = ColocationAnalyzer(pil=True,
                                      footprint=single_process_footprint())
    colo_demand = DemandModel(
        calc_variant=CalculatorVariant.V0_C3831, calcs_per_second=1.0
    )
    colo_analyzer = ColocationAnalyzer(pil=False,
                                       footprint=per_process_footprint(),
                                       demand=colo_demand)
    probe_600 = pil_analyzer.probe(600)
    return ColocationLimits(
        pil_max_factor=pil_analyzer.max_colocation_factor(),
        colo_max_factor=colo_analyzer.max_colocation_factor(),
        probe_600_bottlenecks=probe_600.bottlenecks,
        probe_600_memory_fraction=probe_600.memory_fraction,
        probe_600_cpu=probe_600.cpu_utilization,
    )


def render_colocation_limits(limits: ColocationLimits) -> str:
    """Render the T-COLO limits as text."""
    return "\n".join([
        "T-COLO: colocation limits on a 16-core / 32 GB machine",
        f"scale-check (PIL, single-process) max factor: {limits.pil_max_factor}",
        f"basic colocation (live compute) max factor:   {limits.colo_max_factor}",
        f"600-node probe: bottlenecks={limits.probe_600_bottlenecks}, "
        f"memory={limits.probe_600_memory_fraction:.0%} of DRAM, "
        f"cpu={limits.probe_600_cpu:.0%}",
    ])


# -- T-BUGS / T-CAUSE ----------------------------------------------------------------------


def bug_study_table() -> str:
    """Sections 2-4 population statistics, rendered."""
    return render_population_table(default_study())


def bug_study_summary():
    """The study's :class:`PopulationSummary`."""
    return summarize(default_study())


# -- T-FIND -----------------------------------------------------------------------------------


def finder_table() -> FinderReport:
    """The finder's verdicts over the calculation corpus (section 5/7)."""
    return find_offending(legacy_calc)


# -- T-DUR -------------------------------------------------------------------------------------


def duration_table(bug_ids: Optional[List[str]] = None,
                   nodes: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """Observed offending-computation durations per bug (section 3:
    'ranges from 0.001 to 4 seconds in our test').

    Runs the whole (bug x scale) grid through the sweep engine in one
    resolution, so the real-mode reports are shared with T-MEMO (same
    cache) instead of recomputed.
    """
    bug_ids = bug_ids or ["c3831", "c3881", "c5456"]
    scales = [nodes] if nodes is not None else calibrate.figure3_scales()
    results = _indexed_points(bug_ids, scales, ["real"])
    rows: Dict[str, Dict[str, float]] = {}
    for bug_id in bug_ids:
        durations: List[float] = []
        for nodes_at in scales:
            report = results[(bug_id, nodes_at, "real")].report
            durations.extend(r["demand"] for r in report["calc_records"])
        rows[bug_id] = {
            "min": min(durations) if durations else 0.0,
            "max": max(durations) if durations else 0.0,
            "count": float(len(durations)),
        }
    return rows


def render_duration_table(rows: Dict[str, Dict[str, float]]) -> str:
    """Render the T-DUR duration table as text."""
    lines = [
        "T-DUR: offending-computation durations across the sweep",
        f"{'bug':>8} {'min (s)':>9} {'max (s)':>9} {'samples':>8}",
    ]
    for bug_id, row in rows.items():
        lines.append(
            f"{bug_id:>8} {row['min']:>9.4f} {row['max']:>9.4f} "
            f"{int(row['count']):>8d}"
        )
    return "\n".join(lines)
