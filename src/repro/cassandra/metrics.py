"""Cluster-wide observability: flap counting and experiment reports.

The paper's headline metric (Figure 3) is the total number of *flaps*
observed in the whole cluster during a protocol test, where a flap is one
node marking a live peer as down (an alive-to-dead transition in some
observer's view).  We count exactly that, plus the supporting statistics
used for accuracy comparisons and colocation-bottleneck detection.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..canonical import canonical_json, sha256_hex
from ..obs.doctor import (
    CALC_STAGE_QUEUE,
    CPU_CONTENTION,
    GOSSIP_STAGE_QUEUE,
    RING_LOCK,
)


@dataclass(frozen=True)
class FlapEvent:
    """Observer ``observer`` marked ``target`` down at virtual ``time``."""

    time: float
    observer: str
    target: str


class FlapCounter:
    """Cluster-global record of up->down transitions (and recoveries)."""

    def __init__(self) -> None:
        self.flaps: List[FlapEvent] = []
        self.recoveries = 0

    def record_conviction(self, time: float, observer: str, target: str) -> None:
        """Count one alive-to-dead transition (a flap)."""
        self.flaps.append(FlapEvent(time=time, observer=observer, target=target))

    def record_recovery(self, time: float, observer: str, target: str) -> None:
        """Count one dead-to-alive recovery."""
        self.recoveries += 1

    @property
    def total(self) -> int:
        """Total flaps recorded."""
        return len(self.flaps)

    def by_observer(self) -> Dict[str, int]:
        """Flap counts grouped by the observing node."""
        return dict(Counter(event.observer for event in self.flaps))

    def by_target(self) -> Dict[str, int]:
        """Flap counts grouped by the convicted node."""
        return dict(Counter(event.target for event in self.flaps))

    def in_window(self, start: float, end: float) -> int:
        """Flaps recorded in the half-open window [start, end)."""
        return sum(1 for event in self.flaps if start <= event.time < end)

    def first_flap_time(self) -> Optional[float]:
        """Time of the first flap, or None."""
        return self.flaps[0].time if self.flaps else None


@dataclass
class CalcRecord:
    """One pending-range calculation: who ran it, how long it took."""

    time: float
    node: str
    variant: str
    input_key: str
    demand: float       # intrinsic CPU seconds
    elapsed: float      # virtual seconds actually taken (contention included)
    changes: int


@dataclass
class RunReport:
    """Everything a scenario run produces, for figures and assertions."""

    mode: str                    # "real" | "colo" | "pil"
    bug: str
    nodes: int
    vnodes: int
    duration: float              # virtual seconds simulated
    flaps: int
    recoveries: int
    flap_events: List[FlapEvent] = field(default_factory=list)
    calc_records: List[CalcRecord] = field(default_factory=list)
    messages_sent: int = 0
    messages_delivered: int = 0
    #: Total drops plus the per-reason split (crashed endpoint, partition
    #: cut, unregistered address, degraded-link loss) -- the observability
    #: a chaos run needs to attribute lost traffic to the fault that ate it.
    messages_dropped: int = 0
    dropped_down: int = 0
    dropped_cut: int = 0
    dropped_unknown_dst: int = 0
    dropped_degraded: int = 0
    cpu_utilization: float = 0.0
    cpu_peak_utilization: float = 0.0
    mean_stretch: float = 1.0
    max_stage_wait: float = 0.0   # worst gossip-stage queueing delay
    mean_stage_wait: float = 0.0
    memory_peak_bytes: int = 0
    oom_count: int = 0
    lock_max_hold: float = 0.0
    lock_max_wait: float = 0.0
    wall_seconds: float = 0.0     # host wall-clock cost of the run
    memo_hits: int = 0
    memo_misses: int = 0
    #: PIL-safety violations: same (func_id, input_key), different output.
    memo_conflicts: int = 0
    #: Per-stage attributed lateness (seconds of waiting), filled by the
    #: scale-doctor (:func:`repro.obs.doctor.stage_lateness`) -- lets
    #: ``compare_modes`` attribute mode divergence to a specific stage.
    stage_lateness: Dict[str, float] = field(default_factory=dict)
    # -- data plane (filled by repro.workload's engine; zero when only the
    # control plane ran).  Request counts are weighted floats: the user
    # shards fold millions of logical users into representative requests,
    # each standing for `weight` real ones.
    requests_attempted: float = 0.0
    requests_ok: float = 0.0
    requests_unavailable: float = 0.0
    requests_timeout: float = 0.0
    hints_stored: int = 0
    hints_delivered: int = 0
    #: Latency percentiles over all completed-or-failed requests, in
    #: seconds.  ``None`` (not 0.0) when no request was recorded: a run
    #: that served nothing must not report a fake perfect latency.
    latency_p50: Optional[float] = None
    latency_p99: Optional[float] = None
    latency_p999: Optional[float] = None
    #: Structured workload summary (spec echo, per-kind percentiles,
    #: shard-demand totals); empty when no workload ran.
    workload: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    def calc_duration_range(self) -> Tuple[float, float]:
        """(min, max) intrinsic calc demand observed; (0, 0) if none ran."""
        if not self.calc_records:
            return (0.0, 0.0)
        demands = [record.demand for record in self.calc_records]
        return (min(demands), max(demands))

    def total_calc_demand(self) -> float:
        """Sum of intrinsic calculation demand (seconds)."""
        return sum(record.demand for record in self.calc_records)

    # -- serialization ------------------------------------------------------------
    #
    # Sweep workers return reports across process boundaries and the result
    # cache persists them, so the dict form must be lossless.  The *canonical*
    # form additionally zeroes ``wall_seconds`` -- the only host-time (hence
    # nondeterministic) field -- so that two runs of the same seeded scenario
    # serialize to byte-identical JSON regardless of which machine or process
    # produced them.

    def to_dict(self, canonical: bool = False) -> Dict[str, Any]:
        """Lossless dict form (nested events/records become dicts)."""
        data = dataclasses.asdict(self)
        if canonical:
            data["wall_seconds"] = 0.0
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunReport":
        """Inverse of :meth:`to_dict`; unknown keys are ignored."""
        payload = dict(data)
        payload["flap_events"] = [
            FlapEvent(**event) for event in payload.get("flap_events", [])]
        payload["calc_records"] = [
            CalcRecord(**record) for record in payload.get("calc_records", [])]
        field_names = {f.name for f in dataclasses.fields(cls)}
        payload = {key: value for key, value in payload.items()
                   if key in field_names}
        return cls(**payload)

    def canonical_json(self) -> str:
        """Deterministic JSON form (sorted keys, no host-time fields)."""
        return canonical_json(self.to_dict(canonical=True))

    def digest(self) -> str:
        """SHA-256 of the canonical JSON form (replay-determinism identity)."""
        return sha256_hex(self.canonical_json())

    def summary(self) -> str:
        """One-line human-readable summary."""
        low, high = self.calc_duration_range()
        line = (
            f"[{self.mode:>4}] {self.bug} N={self.nodes} P={self.vnodes}: "
            f"{self.flaps} flaps, {len(self.calc_records)} calcs "
            f"(demand {low:.3f}-{high:.3f}s), "
            f"util {self.cpu_utilization:.0%}, stretch {self.mean_stretch:.2f}, "
            f"max stage wait {self.max_stage_wait:.2f}s"
        )
        if self.requests_attempted > 0:
            p99 = ("n/a" if self.latency_p99 is None
                   else f"{self.latency_p99 * 1000:.1f}ms")
            line += (f", {self.requests_attempted:,.0f} reqs "
                     f"(p99 {p99})")
        return line


class NodeStats(NamedTuple):
    """One node's scalar statistics: a row of the report's reductions.

    The CPU columns are ``None`` on rows that must not contribute:
    colocated nodes share one machine CPU, which only the first row
    carries, and a DieCast run reports contention but no utilization.
    """

    utilization: Optional[float]
    peak_utilization: float
    stretch: Optional[float]          # None until a job has completed
    cpu_contention: Optional[float]
    inbox_max_wait: float
    inbox_mean_wait: float
    inbox_total_wait: float
    calcq_total_wait: float
    ring_total_wait: float
    ring_max_hold: float
    ring_max_wait: float


@dataclass
class RunParts:
    """The picklable raw material of one :class:`RunReport`.

    A :class:`~repro.cassandra.cluster.Cluster` harvests one; a
    partitioned run merges one per shard in global sorted order.
    """

    duration: float
    steps: int
    #: The :class:`RunReport` fields that merge by addition, by name.
    counts: Dict[str, int]
    flap_events: List[FlapEvent]
    calc_records: List[CalcRecord]
    #: node id -> row, in reduction order (it fixes the float sums).
    node_stats: Dict[str, NodeStats]


def assemble_report(config, parts: RunParts,
                    observe_from: float = 0.0) -> RunReport:
    """Reduce ``parts`` into the :class:`RunReport` of a ``config`` run.

    ``observe_from`` excludes warm-up flaps and calculations (before the
    protocol under test started) from the report.
    """
    rows = list(parts.node_stats.values())
    cpus = [row for row in rows if row.utilization is not None]
    stretches = [row.stretch for row in cpus if row.stretch is not None]
    events = [e for e in parts.flap_events if e.time >= observe_from]
    return RunReport(
        mode=config.mode.value,
        bug=config.bug.bug_id,
        nodes=config.nodes,
        vnodes=config.bug.vnodes,
        duration=parts.duration,
        flaps=len(events),
        flap_events=events,
        calc_records=[r for r in parts.calc_records if r.time >= observe_from],
        messages_dropped=sum(count for name, count in parts.counts.items()
                             if name.startswith("dropped_")),
        cpu_utilization=max((row.utilization for row in cpus), default=0.0),
        cpu_peak_utilization=max((row.peak_utilization for row in cpus),
                                 default=0.0),
        mean_stretch=(sum(stretches) / len(stretches)) if stretches else 1.0,
        max_stage_wait=max((row.inbox_max_wait for row in rows), default=0.0),
        mean_stage_wait=(sum(row.inbox_mean_wait for row in rows) / len(rows))
        if rows else 0.0,
        lock_max_hold=max((row.ring_max_hold for row in rows), default=0.0),
        lock_max_wait=max((row.ring_max_wait for row in rows), default=0.0),
        stage_lateness={
            GOSSIP_STAGE_QUEUE: sum(row.inbox_total_wait for row in rows),
            CALC_STAGE_QUEUE: sum(row.calcq_total_wait for row in rows),
            RING_LOCK: sum(row.ring_total_wait for row in rows),
            CPU_CONTENTION: sum(row.cpu_contention for row in rows
                                if row.cpu_contention is not None),
        },
        **parts.counts,
    )


def accuracy_error(real: RunReport, other: RunReport) -> float:
    """Relative flap-count error of ``other`` against the real-scale run.

    Uses a symmetric denominator so zero-flap small-scale points do not
    blow up: |a - b| / max(a, b, 1).
    """
    return abs(real.flaps - other.flaps) / max(real.flaps, other.flaps, 1)
