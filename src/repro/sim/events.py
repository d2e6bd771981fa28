"""Event primitives for the discrete-event simulation kernel.

The kernel (:mod:`repro.sim.kernel`) is a classic event-queue simulator:
every state change in a simulated cluster is an :class:`Event` with a virtual
firing time.  Determinism is load-bearing for this project -- the paper's
"order determinism" (section 5) requires that a replayed run observes exactly
the event order of the recorded run -- so ties are broken by an explicit
``(time, priority, seq)`` triple and never by object identity or hash order.

There is one queue, :class:`EventQueue`: a binary heap with lazy
cancellation and compaction.  Because the ``(time, priority, seq)`` keys
are unique and totally ordered, the pop sequence is a function of the
push/cancel sequence alone, not of the data structure.
``tests/fixtures/scheduler_golden.json`` pins that order as an independent
implementation (a two-tier timer wheel, since removed) produced it.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple


#: Default priority for ordinary events.
PRIORITY_NORMAL = 0

#: Priority for bookkeeping events that must run before ordinary events at the
#: same timestamp (e.g. processor-sharing rate updates).
PRIORITY_HIGH = -10

#: Priority for observation events that must run after ordinary events at the
#: same timestamp (e.g. metric sampling).
PRIORITY_LOW = 10

#: Compaction trigger: cancelled entries must outnumber live ones *and*
#: exceed this floor before a queue rebuilds its storage.  The floor keeps
#: tiny queues from compacting on every other cancel.
COMPACT_MIN_CANCELLED = 64


class Event:
    """A scheduled callback in virtual time.

    Events compare by ``(time, priority, seq)``.  ``seq`` is a global
    monotonic counter assigned by the queue, which makes the ordering a
    strict total order and therefore reproducible across runs with
    identical inputs.

    The class is ``__slots__``-based rather than a dataclass: simulations
    allocate one per timeout/delivery/completion, so the per-instance dict
    is measurable overhead on the hot path.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled", "tag",
                 "queue")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        cancelled: bool = False,
        tag: str = "",
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        #: Cancelled events stay in the queue's storage but never fire.
        self.cancelled = cancelled
        #: Optional human-readable tag used by traces and tests.
        self.tag = tag
        #: Back-reference to the owning queue so :meth:`cancel` can keep the
        #: live/cancelled accounting exact without a separate notification.
        self.queue = queue

    def cancel(self) -> None:
        """Mark the event so that the queue drops it instead of firing it."""
        if not self.cancelled:
            self.cancelled = True
            if self.queue is not None:
                self.queue._on_cancel(self)

    def sort_key(self) -> Tuple[float, int, int]:
        """The (time, priority, seq) total-order key."""
        return (self.time, self.priority, self.seq)

    def __repr__(self) -> str:  # diagnostics only, never ordering
        state = " cancelled" if self.cancelled else ""
        return (f"Event(t={self.time!r}, prio={self.priority}, "
                f"seq={self.seq}, tag={self.tag!r}{state})")


class EventQueue:
    """A binary-heap queue of :class:`Event` objects with lazy cancellation.

    Cancellation is O(1): the event is flagged and skipped when it reaches
    the top of the heap.  This is the standard approach for simulators with
    frequent reschedules (the processor-sharing CPU model reschedules its
    next-completion event on every arrival and departure).

    Unlike the traditional formulation, cancelled entries do not linger
    forever: when they outnumber the live ones (past a small floor) the
    heap is compacted in one O(n) rebuild, so peak storage stays O(live
    events) even under pathological schedule/cancel churn.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()
        self._live = 0
        #: Cancelled entries still occupying heap slots.
        self._cancelled = 0
        #: Cumulative number of O(n) compaction rebuilds (diagnostics).
        self.compactions = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def storage_size(self) -> int:
        """Number of entries physically stored (live + not-yet-dropped)."""
        return len(self._heap)

    def push(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
        tag: str = "",
    ) -> Event:
        """Schedule ``callback`` at virtual ``time`` and return its handle."""
        seq = next(self._counter)
        event = Event(time, priority, seq, callback, False, tag, self)
        heapq.heappush(self._heap, ((time, priority, seq), event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            __, event = heapq.heappop(heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._live -= 1
            # Detach: a cancel() arriving after the pop (e.g. an interrupt
            # racing a timeout that already fired) must not perturb the
            # live/cancelled accounting of events still stored.
            event.queue = None
            return event
        return None

    def pop_due(self, limit: float) -> Optional[Event]:
        """Pop the earliest live event iff it fires at or before ``limit``.

        Merges the run loop's peek+pop pair into one heap traversal.
        """
        heap = self._heap
        while heap:
            key, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            if key[0] > limit:
                return None
            heapq.heappop(heap)
            self._live -= 1
            event.queue = None
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest live event, if any."""
        heap = self._heap
        while heap:
            __, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            return event.time
        return None

    # -- cancellation accounting ------------------------------------------

    def _on_cancel(self, event: Event) -> None:
        """Called by :meth:`Event.cancel`; keeps ``len()`` exact and
        compacts when cancelled entries dominate storage."""
        self._live -= 1
        self._cancelled += 1
        if (self._cancelled > COMPACT_MIN_CANCELLED
                and self._cancelled > self._live):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry in one O(n) heap rebuild."""
        self._heap = [entry for entry in self._heap
                      if not entry[1].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
        self.compactions += 1


def make_queue() -> EventQueue:
    """The kernel's event queue.

    The one construction point: the simulator and the ``event_churn``
    micro-benchmark call it, and outside-in profilers wrap
    ``type(make_queue())`` to find the class that serves ``push`` and
    ``pop_due``.
    """
    return EventQueue()


@dataclass
class TraceRecord:
    """One entry of a simulation trace.

    Traces serve two purposes: debugging, and the paper's order-determinism
    mechanism -- the memoization run records message-delivery order as a list
    of trace records, and the replayer enforces the same order.
    """

    time: float
    kind: str
    subject: str
    detail: Any = None

    def key(self) -> Tuple[str, str]:
        """Order-relevant identity (used when enforcing recorded orders)."""
        return (self.kind, self.subject)


class Trace:
    """An append-only trace of :class:`TraceRecord` entries."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: list = []

    def emit(self, time: float, kind: str, subject: str, detail: Any = None) -> None:
        """Append a record (no-op when the trace is disabled)."""
        if self.enabled:
            self.records.append(TraceRecord(time, kind, subject, detail))

    def filter(self, kind: str) -> list:
        """Records/entries matching the given criterion."""
        return [r for r in self.records if r.kind == kind]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)
