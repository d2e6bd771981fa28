"""Structured virtual-time span tracing for the simulation kernel.

A :class:`Span` is an interval of virtual time attributed to a category
(``queue``, ``lock-wait``, ``lock-hold``, ``compute``, ``net``), a named
resource (a specific channel, lock, or CPU), and optionally a node and tag.
:class:`SpanTracer` is a :class:`~repro.sim.kernel.KernelObserver`: it
builds spans in the kernel seams where lateness is *created* -- an item
leaving a queue, a lock changing hands, a compute job completing, a message
arriving -- so a trace is a complete account of where virtual time was
spent waiting.

Zero-cost-when-disabled is a hard requirement (the paper's whole value
proposition is cheap large-N runs): a disabled tracer never attaches, so
``sim.observer`` stays None and the run pays one ``is None`` test per seam
and allocates nothing.

Export is JSON lines (one span per line), the format the scale-doctor and
external tooling consume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..sim.kernel import KernelObserver

#: Span categories emitted by the built-in instrumentation.
CAT_QUEUE = "queue"
CAT_LOCK_WAIT = "lock-wait"
CAT_LOCK_HOLD = "lock-hold"
CAT_COMPUTE = "compute"
CAT_NET = "net"


@dataclass
class Span:
    """One attributed interval of virtual time."""

    start: float
    end: float
    category: str
    name: str       # the resource: "inbox:node-007", "ring:node-007", "colo-machine"
    node: str = ""  # the process/node on whose behalf time was spent
    tag: str = ""

    @property
    def duration(self) -> float:
        """Virtual seconds covered by the span."""
        return self.end - self.start

    def to_dict(self) -> Dict:
        """JSON-serializable form (one trace line)."""
        return {
            "start": self.start, "end": self.end,
            "category": self.category, "name": self.name,
            "node": self.node, "tag": self.tag,
        }


class SpanTracer(KernelObserver):
    """Collects spans and point-event counts during a run.

    Parameters
    ----------
    enabled:
        When False, every emit method returns immediately and
        :meth:`attach` leaves the simulator unobserved.
    max_spans:
        Hard memory bound; spans past it are counted in ``dropped_spans``
        instead of stored (large-N runs can emit millions of net spans).
    """

    def __init__(self, enabled: bool = True, max_spans: int = 1_000_000) -> None:
        self.enabled = enabled
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped_spans = 0
        #: Point events (e.g. process resumes) are aggregated as counts --
        #: storing one record per kernel event would dwarf the span data.
        self.point_counts: Dict[Tuple[str, str], int] = {}

    # -- kernel seams ---------------------------------------------------------

    def attach(self, sim: Any) -> "SpanTracer":
        """Observe ``sim``; a disabled tracer leaves it unobserved."""
        if self.enabled:
            super().attach(sim)
        return self

    def resume(self, process: Any) -> None:
        """Count the resume."""
        self.point("resume", process.name)

    def channel_pop(self, channel: Any, process: Any, waited: float) -> None:
        """A buffered item waited ``waited`` seconds in its queue."""
        if waited > 0.0:
            now = self.sim.now
            self.span(now - waited, now, CAT_QUEUE, channel.name,
                      node=process.name)

    def lock_grant(self, lock: Any, process: Any, waited: float) -> None:
        """A contended acquire waited ``waited`` seconds."""
        if waited > 0.0:
            now = self.sim.now
            self.span(now - waited, now, CAT_LOCK_WAIT, lock.name,
                      node=process.name)

    def lock_release(self, lock: Any, holder: Any,
                     forced: Optional[bool]) -> None:
        """The hold, however it ended."""
        self.span(lock.acquired_at, self.sim.now, CAT_LOCK_HOLD, lock.name,
                  node=holder.name)

    def compute(self, start: float, end: float, cpu: Any, process: Any,
                tag: str) -> None:
        """A compute job ran from ``start`` to ``end``."""
        self.span(start, end, CAT_COMPUTE, cpu.name, node=process.name,
                  tag=tag)

    def deliver(self, message: Any) -> None:
        """A message was in flight since it was sent."""
        self.span(message.send_time, self.sim.now, CAT_NET,
                  f"{message.src}>{message.dst}", node=message.dst,
                  tag=message.kind)

    # -- emission -----------------------------------------------------------

    def span(self, start: float, end: float, category: str, name: str,
             node: str = "", tag: str = "") -> None:
        """Record one interval (no-op when disabled or over budget)."""
        if not self.enabled:
            return
        if len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            return
        self.spans.append(Span(start=start, end=end, category=category,
                               name=name, node=node, tag=tag))

    def point(self, kind: str, subject: str) -> None:
        """Count one point event (``(kind, subject)`` aggregation)."""
        if not self.enabled:
            return
        key = (kind, subject)
        self.point_counts[key] = self.point_counts.get(key, 0) + 1

    # -- analysis -----------------------------------------------------------

    def by_category(self) -> Dict[str, List[Span]]:
        """Spans grouped by category."""
        out: Dict[str, List[Span]] = {}
        for span in self.spans:
            out.setdefault(span.category, []).append(span)
        return out

    def total_duration(self, category: str) -> float:
        """Summed duration of all spans in ``category``."""
        return sum(s.duration for s in self.spans if s.category == category)

    def durations_by_name(self, category: str) -> Dict[str, float]:
        """Per-resource summed duration within one category."""
        out: Dict[str, float] = {}
        for span in self.spans:
            if span.category == category:
                out[span.name] = out.get(span.name, 0.0) + span.duration
        return out

    def __len__(self) -> int:
        return len(self.spans)

    # -- export -------------------------------------------------------------

    def to_jsonl(self, path) -> int:
        """Write one JSON object per span; returns the number written."""
        with Path(path).open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        return len(self.spans)

    @classmethod
    def from_jsonl(cls, path) -> "SpanTracer":
        """Load a previously exported trace (analysis-only instance)."""
        tracer = cls(enabled=False)
        for line in Path(path).read_text().splitlines():
            if line.strip():
                tracer.spans.append(Span(**json.loads(line)))
        return tracer

    def iter_spans(self) -> Iterable[Span]:
        """Iterate spans in emission order."""
        return iter(self.spans)
