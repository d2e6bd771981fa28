"""Human-readable reports: finder output and experiment comparisons.

These renderers turn analysis/experiment objects into the kind of report
the paper says the tool should hand developers: offending functions with
complexities and the workload paths that reach them, plus accuracy tables
for mode comparisons.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..cassandra.metrics import RunReport, accuracy_error
from .finder import FinderReport
from .memoization import MemoDB


def render_finder_report(report: FinderReport, max_guards: int = 3) -> str:
    """Offending-function report (paper step (b) deliverable).

    Lists each offender with its effective complexity, PIL-safety verdict,
    and the branch conditions a test workload must satisfy to reach its
    scale-dependent loops.
    """
    lines: List[str] = []
    lines.append(f"scale-check finder report for module {report.module}")
    lines.append("=" * len(lines[0]))
    offenders = report.offenders()
    if not offenders:
        lines.append("no offending functions found")
    for analysis in offenders:
        verdict = ("PIL-safe" if analysis.pil_safe(report.registry)
                   else "NOT PIL-safe")
        lines.append(
            f"- {analysis.qualname} (line {analysis.lineno}): "
            f"{analysis.complexity}, {verdict}"
        )
        if analysis.transitive_effect_kinds:
            lines.append(
                f"    side effects: {', '.join(sorted(analysis.transitive_effect_kinds))}"
            )
        if analysis.param_mutations:
            lines.append(
                "    warning: writes through parameters "
                f"({len(analysis.param_mutations)} sites); safe only if call-local"
            )
        guards = analysis.guard_conditions()[:max_guards]
        if guards:
            lines.append(f"    reached when: {' and '.join(guards)}")
        for loop in analysis.scale_loops:
            lines.append(
                f"    loop @{loop.lineno} depth {loop.depth}: iterates {loop.iterates}"
            )
    linear = report.serialized_linear()
    if linear:
        lines.append("")
        lines.append("serialized O(N) functions (extendable-analysis targets):")
        for analysis in linear:
            lines.append(f"- {analysis.qualname}: {analysis.complexity}")
    counts = report.category_counts()
    lines.append("")
    lines.append(
        "categories: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    return "\n".join(lines)


def render_mode_comparison(reports: Dict[str, RunReport]) -> str:
    """One Figure-3 point as a table row set: Real vs Colo vs SC+PIL."""
    real = reports["real"]
    lines = [
        f"bug {real.bug}, N={real.nodes} nodes (P={real.vnodes} vnodes)",
        f"{'mode':>6} {'flaps':>8} {'calcs':>7} {'util':>6} "
        f"{'stretch':>8} {'err-vs-real':>12}",
    ]
    for mode in ("real", "colo", "pil"):
        report = reports[mode]
        error = accuracy_error(real, report)
        lines.append(
            f"{mode:>6} {report.flaps:>8d} {len(report.calc_records):>7d} "
            f"{report.cpu_utilization:>6.0%} {report.mean_stretch:>8.2f} "
            f"{error:>12.1%}"
        )
    return "\n".join(lines)


def render_memo_summary(db: MemoDB) -> str:
    """Memoization database summary (step (d) diagnostics)."""
    low, high = db.duration_range()
    lines = [
        f"memo DB: {len(db)} distinct inputs, {db.total_samples()} samples",
        f"functions: {', '.join(db.func_ids()) or '(none)'}",
        f"recorded durations: {low:.4f}s .. {high:.4f}s",
        f"message order: {len(db.message_order)} deliveries recorded",
    ]
    conflicts = getattr(db, "conflicts", 0)
    if conflicts:
        lines.append(
            f"WARNING: {conflicts} PIL-safety conflicts (same input, "
            f"different output) -- replay outputs are unreliable"
        )
    for key, value in sorted(db.meta.items()):
        if isinstance(value, (dict, list)):
            # Bulky payloads (e.g. the embedded canonical memo report the
            # sweep engine persists) are summarized, not dumped.
            lines.append(f"meta {key}: <{type(value).__name__}, "
                         f"{len(value)} entries>")
        else:
            lines.append(f"meta {key}: {value}")
    return "\n".join(lines)


def render_divergence(reports: Dict[str, RunReport]) -> str:
    """Mode-divergence attribution: which stage explains colo/PIL error.

    Consumes the ``stage_lateness`` each report carries; for every non-real
    mode the stage with the largest lateness excess over the real run is
    named, alongside the flap error it presumably caused.
    """
    from ..obs.doctor import attribute_divergence

    real = reports["real"]
    attribution = attribute_divergence(reports)
    lines = [f"divergence vs real ({real.flaps} flaps):"]
    for mode in ("colo", "pil"):
        if mode not in reports:
            continue
        report = reports[mode]
        info = attribution.get(mode, {})
        stage = info.get("stage") or "(no excess lateness)"
        lines.append(
            f"  {mode:>4}: {report.flaps} flaps "
            f"(err {accuracy_error(real, report):.0%}) <- {stage} "
            f"(+{info.get('excess_lateness', 0.0):.2f}s lateness vs real)"
        )
    return "\n".join(lines)


def render_sweep_summary(summary, title: str = "") -> str:
    """Sweep result table plus cache/worker provenance footer.

    ``summary`` is duck-typed (anything with ``table()`` and
    ``stats_line()``, i.e. :class:`repro.sweep.executor.SweepSummary`) so
    the core reporting layer does not import the sweep engine.
    """
    lines = []
    if title:
        lines.extend([title, "=" * len(title)])
    lines.append(summary.table())
    lines.append(summary.stats_line())
    return "\n".join(lines)


def render_series(title: str, scales: Iterable[int],
                  series: Dict[str, Dict[int, int]]) -> str:
    """A Figure-3-style series table: one row per scale, one column per mode."""
    modes = list(series)
    lines = [title, f"{'N':>6} " + " ".join(f"{m:>10}" for m in modes)]
    for n in scales:
        row = f"{n:>6d} " + " ".join(
            f"{series[m].get(n, 0):>10d}" for m in modes
        )
        lines.append(row)
    return "\n".join(lines)
