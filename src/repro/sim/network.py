"""Point-to-point messaging between simulated nodes.

Messages are delivered into per-node inbox :class:`~repro.sim.kernel.Channel`
objects after a configurable latency.  Two features exist specifically for
the paper's mechanism:

* every message has a *deterministic message key*; a run that sets
  ``delivery_log`` to a list (the memoization run does) has each delivery's
  key appended to it, which is what the recording keeps as the message
  ordering;
* :class:`OrderEnforcer` lets a PIL replay hold back deliveries so they are
  released exactly in a previously recorded order ("order determinism",
  section 5) even though PIL-substituted durations shift the raw timing.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .kernel import Channel, Simulator, Timeout


@dataclass
class Message:
    """One message in flight."""

    src: str
    dst: str
    kind: str
    payload: Any
    send_time: float
    key: str  # deterministic identity: "src>dst:kind#n"

    def __repr__(self) -> str:  # keep traces compact
        return f"<Message {self.key} @{self.send_time:.3f}>"


class LatencyModel:
    """Per-message latency: ``base`` plus uniform jitter from a named stream."""

    def __init__(self, base: float = 0.0005, jitter: float = 0.0005) -> None:
        if base < 0 or jitter < 0:
            raise ValueError("latency parameters must be non-negative")
        self.base = base
        self.jitter = jitter

    def sample(self, sim: Simulator, src: str, dst: str) -> float:
        """Sample a value."""
        if self.jitter == 0.0:
            return self.base
        return self.base + sim.rng.uniform("net-jitter", 0.0, self.jitter)


class OrderEnforcer:
    """Releases deliveries in a previously recorded global order.

    The enforcer is given the recorded sequence of message keys.  When a
    message becomes deliverable, it is released only if its key is the next
    unreleased recorded key; otherwise it parks until its turn.  Keys absent
    from the recording (messages the recorded run never saw) are released
    immediately -- the cache-miss policy that keeps replay live when code
    under debug changes slightly.
    """

    def __init__(self, recorded_order: List[str]) -> None:
        self._positions: Dict[str, int] = {}
        for idx, key in enumerate(recorded_order):
            # first occurrence wins; keys are unique by construction
            self._positions.setdefault(key, idx)
        self._order = recorded_order
        self._cursor = 0
        self._parked: Dict[str, Tuple[Message, Callable[[Message], None]]] = {}
        self._skipped: set = set()
        self.released_in_order = 0
        self.released_unrecorded = 0
        self.skips = 0

    def offer(self, message: Message, deliver: Callable[[Message], None]) -> None:
        """Deliver now or park until the recorded order permits."""
        if message.key not in self._positions or message.key in self._skipped:
            self.released_unrecorded += 1
            deliver(message)
            return
        self._parked[message.key] = (message, deliver)
        self._drain()

    def _drain(self) -> None:
        while self._cursor < len(self._order):
            key = self._order[self._cursor]
            if key in self._skipped:
                self._cursor += 1
                continue
            if key not in self._parked:
                break
            message, deliver = self._parked.pop(key)
            self._cursor += 1
            self.released_in_order += 1
            deliver(message)

    def skip_stalled(self) -> int:
        """Unblock a stalled replay: skip recorded keys that have not been
        produced, up to the next one that is parked and deliverable.

        A replayed run whose code under debug changed slightly may never
        produce some recorded messages; a strict enforcer would park all
        their successors forever.  Skipped keys are remembered, so if the
        message materializes later it is released immediately.  Returns the
        number of keys skipped.
        """
        skipped = 0
        while self._cursor < len(self._order):
            key = self._order[self._cursor]
            if key in self._parked:
                break
            self._skipped.add(key)
            self._cursor += 1
            skipped += 1
        self.skips += skipped
        if skipped:
            self._drain()
        return skipped

    def watchdog(self):
        """Kernel process: skip past recorded-but-missing messages whenever
        the replay stalls (checked once per virtual second).

        A replay that diverges from the recording (changed code, different
        timing) keeps producing messages the recording never saw while
        some recorded keys never materialize; skipping eagerly on every
        stalled tick keeps gossip live instead of strangling it behind a
        head-of-line blockage.
        """
        while True:
            yield Timeout(1.0)
            if self.stalled:
                self.skip_stalled()

    @property
    def parked_count(self) -> int:
        """Messages currently held back by the enforcer."""
        return len(self._parked)

    @property
    def stalled(self) -> bool:
        """True when parked messages exist but none is the next in order."""
        if not self._parked:
            return False
        if self._cursor >= len(self._order):
            return False
        return self._order[self._cursor] not in self._parked


class Network:
    """The cluster message fabric.

    Nodes register an inbox channel under their node id; ``send`` schedules a
    delivery after sampled latency.  Failure injection covers crashed nodes
    (drop all traffic), partition cuts (drop traffic crossing the cut), and
    per-link degradation (probabilistic drop plus a latency multiplier) --
    the hooks the :mod:`repro.faults` injector drives.

    Drops are counted per reason (``dropped_down`` / ``dropped_cut`` /
    ``dropped_unknown_dst`` / ``dropped_degraded``); ``dropped`` stays
    available as the total.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        enforcer: Optional[OrderEnforcer] = None,
    ) -> None:
        self.sim = sim
        self.latency = latency if latency is not None else LatencyModel()
        self.enforcer = enforcer
        self._inboxes: Dict[str, Channel] = {}
        self._known_cache: Optional[List[str]] = None
        self._seq: Dict[Tuple[str, str, str], int] = defaultdict(int)
        self._down: set = set()
        self._cut_pairs: set = set()
        self._degraded: Dict[Tuple[str, str], Tuple[float, float]] = {}
        #: In-flight same-tick batches: ``(arrival_time, dst) -> [Message]``.
        #: The first message of a bucket schedules the kernel event; later
        #: sends landing on the same bucket just append, so N same-tick
        #: deliveries to one inbox cost one event instead of N closures.
        self._batches: Dict[Tuple[float, str], List[Message]] = {}
        self.sent = 0
        self.delivered = 0
        self.dropped_down = 0
        self.dropped_cut = 0
        self.dropped_unknown_dst = 0
        self.dropped_degraded = 0
        #: Messages that joined an already-scheduled batch (diagnostics).
        self.batched_sends = 0
        #: Batch events fired / largest batch seen (diagnostics).
        self.batch_deliveries = 0
        self.max_batch = 0
        #: Delivered message keys, in order, when set to a list before the
        #: run; None (the default) keeps no log.
        self.delivery_log: Optional[List[str]] = None

    @property
    def dropped(self) -> int:
        """Total messages dropped, all reasons combined."""
        return (self.dropped_down + self.dropped_cut
                + self.dropped_unknown_dst + self.dropped_degraded)

    def drop_reasons(self) -> Dict[str, int]:
        """Per-reason drop counters (for reports)."""
        return {
            "down": self.dropped_down,
            "cut": self.dropped_cut,
            "unknown_dst": self.dropped_unknown_dst,
            "degraded": self.dropped_degraded,
        }

    # -- membership ----------------------------------------------------------

    def register(self, node_id: str, inbox: Channel) -> None:
        """Attach ``inbox`` as the address ``node_id``."""
        if node_id in self._inboxes:
            raise ValueError(f"duplicate node id {node_id!r}")
        self._inboxes[node_id] = inbox
        self._known_cache = None

    def deregister(self, node_id: str) -> None:
        """Remove an address (idempotent)."""
        self._inboxes.pop(node_id, None)
        self._known_cache = None

    def known_nodes(self) -> List[str]:
        """All registered addresses, sorted (treat as read-only).

        Cached between membership changes; re-sorting per call showed up in
        large-N profiles.
        """
        cache = self._known_cache
        if cache is None:
            cache = self._known_cache = sorted(self._inboxes)
        return cache

    # -- failure injection ----------------------------------------------------

    def crash(self, node_id: str) -> None:
        """Silently drop all future traffic to/from ``node_id``."""
        self._down.add(node_id)

    def recover(self, node_id: str) -> None:
        """Undo a crash for ``node_id``."""
        self._down.discard(node_id)

    def partition(self, side_a: List[str], side_b: List[str]) -> None:
        """Drop messages crossing between the two sides."""
        for a in side_a:
            for b in side_b:
                self._cut_pairs.add((a, b))
                self._cut_pairs.add((b, a))

    def heal(self, side_a: Optional[List[str]] = None,
             side_b: Optional[List[str]] = None) -> None:
        """Remove partition cuts.

        With no arguments every cut is cleared (the historical behaviour).
        With both sides given, only the cuts between those sides are removed,
        so overlapping partitions compose correctly: healing one cut leaves
        the others in force.
        """
        if side_a is None and side_b is None:
            self._cut_pairs.clear()
            return
        if side_a is None or side_b is None:
            raise ValueError("selective heal needs both sides")
        for a in side_a:
            for b in side_b:
                self._cut_pairs.discard((a, b))
                self._cut_pairs.discard((b, a))

    def degrade(self, src: str, dst: str, drop_p: float,
                latency_mult: float = 1.0) -> None:
        """Degrade the directed link ``src -> dst``.

        Messages on the link are dropped with probability ``drop_p`` (drawn
        from the deterministic ``net-degrade`` stream) and surviving
        deliveries take ``latency_mult`` times the sampled latency.  Passing
        ``drop_p=0`` and ``latency_mult=1`` restores the link.
        """
        if not 0.0 <= drop_p <= 1.0:
            raise ValueError(f"drop probability out of range: {drop_p}")
        if latency_mult <= 0.0:
            raise ValueError(f"latency multiplier must be positive: {latency_mult}")
        if drop_p == 0.0 and latency_mult == 1.0:
            self._degraded.pop((src, dst), None)
        else:
            self._degraded[(src, dst)] = (drop_p, latency_mult)

    def degraded_links(self) -> Dict[Tuple[str, str], Tuple[float, float]]:
        """Currently degraded links: ``(src, dst) -> (drop_p, latency_mult)``."""
        return dict(self._degraded)

    # -- sending --------------------------------------------------------------

    def send(self, src: str, dst: str, kind: str, payload: Any) -> Optional[Message]:
        """Send a message; returns the message or None if dropped."""
        self.sent += 1
        if src in self._down or dst in self._down:
            self.dropped_down += 1
            return None
        if (src, dst) in self._cut_pairs:
            self.dropped_cut += 1
            return None
        if dst not in self._inboxes:
            self.dropped_unknown_dst += 1
            return None
        latency_mult = 1.0
        if self._degraded:  # fast path: no degraded links, skip the lookup
            degraded = self._degraded.get((src, dst))
            if degraded is not None:
                drop_p, latency_mult = degraded
                if drop_p > 0.0 and self.sim.rng.random("net-degrade") < drop_p:
                    self.dropped_degraded += 1
                    return None
        triple = (src, dst, kind)
        seq = self._seq[triple] + 1
        self._seq[triple] = seq
        key = f"{src}>{dst}:{kind}#{seq}"
        message = Message(src=src, dst=dst, kind=kind, payload=payload,
                          send_time=self.sim.now, key=key)
        delay = self.latency.sample(self.sim, src, dst) * latency_mult
        bucket = (self.sim.now + delay, dst)
        batch = self._batches.get(bucket)
        if batch is not None:
            # Ride the already-scheduled event; within-bucket order is send
            # order, which is exactly the per-message seq order it replaces.
            batch.append(message)
            self.batched_sends += 1
        else:
            batch = [message]
            self._batches[bucket] = batch
            self.sim.schedule(delay,
                              lambda: self._arrive_batch(bucket, batch),
                              tag=key)
        return message

    def _arrive_batch(self, bucket: Tuple[float, str],
                      batch: List[Message]) -> None:
        self._batches.pop(bucket, None)
        self.batch_deliveries += 1
        if len(batch) > self.max_batch:
            self.max_batch = len(batch)
        for message in batch:
            self._arrive(message)

    def _arrive(self, message: Message) -> None:
        if message.dst in self._down:
            self.dropped_down += 1
            return
        if message.dst not in self._inboxes:
            self.dropped_unknown_dst += 1
            return
        if self.enforcer is not None:
            self.enforcer.offer(message, self._deliver)
        else:
            self._deliver(message)

    def _deliver(self, message: Message) -> None:
        inbox = self._inboxes.get(message.dst)
        if inbox is None:
            self.dropped_unknown_dst += 1
            return
        self.delivered += 1
        if self.delivery_log is not None:
            self.delivery_log.append(message.key)
        obs = self.sim.observer
        if obs is not None:
            obs.deliver(message)
        inbox.put(message)
