"""Point-to-point messaging between simulated nodes.

Messages are delivered into per-node inbox :class:`~repro.sim.kernel.Channel`
objects after a configurable latency.  Every message has a *deterministic
message key*; a :class:`~repro.sim.kernel.KernelObserver` sees each
delivery (its ``deliver`` seam), which is how tests check that two runs
delivered the same messages in the same order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .kernel import Channel, Simulator


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
    ) -> None:
        self.sim = sim
        self.latency = latency if latency is not None else LatencyModel()
        self._inboxes: Dict[str, Channel] = {}
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

    @property
    def dropped(self) -> int:
        """Total messages dropped, all reasons combined."""
        return (self.dropped_down + self.dropped_cut
                + self.dropped_unknown_dst + self.dropped_degraded)

    # -- membership ----------------------------------------------------------

    def register(self, node_id: str, inbox: Channel) -> None:
        """Attach ``inbox`` as the address ``node_id``."""
        if node_id in self._inboxes:
            raise ValueError(f"duplicate node id {node_id!r}")
        self._inboxes[node_id] = inbox

    def deregister(self, node_id: str) -> None:
        """Remove an address (idempotent)."""
        self._inboxes.pop(node_id, None)

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
        for message in batch:
            self._arrive(message)

    def _arrive(self, message: Message) -> None:
        if message.dst in self._down:
            self.dropped_down += 1
            return
        inbox = self._inboxes.get(message.dst)
        if inbox is None:
            self.dropped_unknown_dst += 1
            return
        self.delivered += 1
        obs = self.sim.observer
        if obs is not None:
            obs.deliver(message)
        inbox.put(message)
