"""Replay probes: "add more logs and replay again" (step (f)).

The paper's debugging loop lets developers attach new observation logic to
each PIL-infused replay without re-running memoization.  :class:`ProbeSet`
is that hook surface: callbacks fire on calculations, convictions, and
recoveries, plus assertion probes that fail fast when an invariant breaks
mid-replay.  Probes observe; they never consume virtual time, so attaching
them cannot perturb the replayed behaviour (the property that makes
"replay again with more logs" sound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..cassandra.metrics import CalcRecord, FlapCounter, FlapEvent
from ..cassandra.node import CalcExecutor, CalcRequest


@dataclass
class ProbeLogEntry:
    time: float
    kind: str
    message: str


class ProbeSet:
    """A bundle of observation callbacks attachable to a cluster run."""

    def __init__(self) -> None:
        self.on_calc: List[Callable[[CalcRecord], None]] = []
        self.on_conviction: List[Callable[[FlapEvent], None]] = []
        self.on_recovery: List[Callable[[float, str, str], None]] = []
        self.log: List[ProbeLogEntry] = []
        self.assertion_failures: List[str] = []

    # -- authoring helpers ---------------------------------------------------------

    def log_calcs_over(self, threshold: float) -> "ProbeSet":
        """Log every calculation whose demand exceeds ``threshold``."""

        def probe(record: CalcRecord) -> None:
            """Probe."""
            if record.demand > threshold:
                self.log.append(ProbeLogEntry(
                    record.time, "slow-calc",
                    f"{record.node} ran {record.variant} for "
                    f"{record.demand:.3f}s (changes={record.changes})"))

        self.on_calc.append(probe)
        return self

    def log_convictions(self) -> "ProbeSet":
        """Log every conviction event."""
        def probe(event: FlapEvent) -> None:
            """Probe."""
            self.log.append(ProbeLogEntry(
                event.time, "conviction",
                f"{event.observer} declared {event.target} dead"))

        self.on_conviction.append(probe)
        return self

    def assert_calc(self, predicate: Callable[[CalcRecord], bool],
                    description: str) -> "ProbeSet":
        """Record an assertion failure when ``predicate`` is violated."""

        def probe(record: CalcRecord) -> None:
            """Probe."""
            if not predicate(record):
                self.assertion_failures.append(
                    f"t={record.time:.2f} {record.node}: {description}")

        self.on_calc.append(probe)
        return self

    # -- attachment -------------------------------------------------------------------

    def attach(self, cluster) -> None:
        """Wire the probes into a cluster (before or during its run)."""
        cluster.executor = _ProbedExecutor(cluster.executor, self)
        for node in cluster.nodes.values():
            node.executor = cluster.executor
        _instrument_flaps(cluster.flaps, self)

    # -- results ---------------------------------------------------------------------------

    def entries(self, kind: Optional[str] = None) -> List[ProbeLogEntry]:
        """Probe log entries, optionally filtered by kind."""
        if kind is None:
            return list(self.log)
        return [entry for entry in self.log if entry.kind == kind]

    def render_log(self, limit: int = 40) -> str:
        """Render the probe log as text (truncated at ``limit``)."""
        lines = [f"{e.time:9.3f}s [{e.kind}] {e.message}"
                 for e in self.log[:limit]]
        if len(self.log) > limit:
            lines.append(f"... and {len(self.log) - limit} more entries")
        return "\n".join(lines) if lines else "(probe log empty)"


class _ProbedExecutor(CalcExecutor):
    """Decorates any executor, firing calc probes after each execution."""

    def __init__(self, inner: CalcExecutor, probes: ProbeSet) -> None:
        self.inner = inner
        self.probes = probes

    def execute(self, node, request: CalcRequest):
        """Execute."""
        result = yield from self.inner.execute(node, request)
        output, elapsed = result
        record = CalcRecord(
            time=request.time, node=request.node_id,
            variant=getattr(request.variant, "value", str(request.variant)),
            input_key=request.input_key, demand=request.demand,
            elapsed=elapsed, changes=request.changes,
        )
        for probe in self.probes.on_calc:
            probe(record)
        return output, elapsed

    def __getattr__(self, name: str):
        """The wrapped executor's counters (``hits``, ``conflicts``, ...)."""
        return getattr(self.inner, name)


def _instrument_flaps(flaps: FlapCounter, probes: ProbeSet) -> None:
    original_conviction = flaps.record_conviction
    original_recovery = flaps.record_recovery

    def record_conviction(time: float, observer: str, target: str) -> None:
        """Count one alive-to-dead transition (a flap)."""
        original_conviction(time, observer, target)
        event = flaps.flaps[-1]
        for probe in probes.on_conviction:
            probe(event)

    def record_recovery(time: float, observer: str, target: str) -> None:
        """Count one dead-to-alive recovery."""
        original_recovery(time, observer, target)
        for probe in probes.on_recovery:
            probe(time, observer, target)

    flaps.record_conviction = record_conviction  # type: ignore[method-assign]
    flaps.record_recovery = record_recovery      # type: ignore[method-assign]
