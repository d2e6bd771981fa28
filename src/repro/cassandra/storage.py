"""The data path: read/write coordination over the ring.

Section 1's user-visible impact: flapping "mak[es] some data not reachable
by the users".  This module adds the minimal faithful data path needed to
*measure* that claim: a coordinator picks replicas from its ring view
(natural endpoints plus pending endpoints during membership changes --
which is what the pending-range calculation exists to feed), sends
mutations/reads, and fails with unavailability when too few replicas are
believed alive or respond in time.

When the gossip stage wedges and the failure detector convicts healthy
peers, coordinators see most replicas as down and reject quorum operations
-- the scalability bug becomes client-visible errors, which the workload
driver (:class:`ClientLoad`) counts.

**Hinted handoff.** A write that proceeds while some replica is believed
down (or that times out waiting for acks) stores a *hint* -- the missed
``(key, value, timestamp)`` -- on the coordinator.  A periodic delivery
task replays hints to endpoints the gossiper has marked alive again, so a
transiently-failed replica converges back without an explicit repair.
Replicas apply writes last-write-wins on the coordination timestamp, which
makes late hint replays safe against fresher data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..annotations import lock_protects
from ..sim.kernel import Acquire, Compute, Get, Timeout
from .pending_ranges import REPLICATION_FACTOR, bounds_contain
from .state import STATUS_LEFT
from .tokens import token_for_key

# Lock-discipline declaration (input to the repro.analysis checker): the
# hint store is shared between every in-flight write coordination and the
# periodic delivery task, either of which may yield mid-flight; the lock
# makes the append/drain critical sections explicit and checkable.
lock_protects("hints_lock", "hints",
              note="hinted-handoff store: coordinators append, the "
                   "delivery task drains")

# Message kinds (handled on the storage stage, NOT the gossip stage --
# Cassandra's MUTATION/READ thread pools are separate from GossipStage).
WRITE = "storage-write"
WRITE_ACK = "storage-write-ack"
READ = "storage-read"
READ_RESPONSE = "storage-read-response"

#: Sentinel delivered into a request channel when the timeout fires.
_TIMEOUT = "timeout"


class ConsistencyLevel(str, Enum):
    ONE = "one"
    QUORUM = "quorum"
    ALL = "all"

    def required(self, replicas: int) -> int:
        """Acks required at this level given ``replicas`` replicas."""
        if replicas <= 0:
            return 1
        if self is ConsistencyLevel.ONE:
            return 1
        if self is ConsistencyLevel.QUORUM:
            return replicas // 2 + 1
        return replicas


class UnavailableError(Exception):
    """Not enough live replicas to even attempt the operation."""

    def __init__(self, key: str, alive: int, required: int) -> None:
        super().__init__(
            f"unavailable: key {key!r} has {alive} live replicas, "
            f"needs {required}")
        self.key = key
        self.alive = alive
        self.required = required


@dataclass
class OperationResult:
    """One client operation's outcome."""

    ok: bool
    key: str
    kind: str                  # "write" | "read"
    latency: float = 0.0
    acks: int = 0
    required: int = 0
    value: Optional[str] = None
    error: str = ""            # "", "unavailable", "timeout"


class StorageCosts:
    """CPU demand of the data path, in seconds: constants, no run sets
    them."""

    write_local = 5e-5
    read_local = 5e-5
    coordinate = 3e-5


class StorageService:
    """Per-node data-path engine: local store, replica coordination.

    Owned by a :class:`~repro.cassandra.node.Node`; the node wires the
    storage inbox and spawns :meth:`storage_stage`.
    """

    #: Per-endpoint hint cap: a long outage must not grow coordinator
    #: memory without bound (Cassandra bounds hint windows the same way).
    MAX_HINTS_PER_ENDPOINT = 512
    #: Hints replayed per delivery pass (bounds the burst a recovering
    #: replica absorbs in one tick).
    HINT_BATCH = 64
    #: Seconds a coordinator waits for a replica's reply.
    rpc_timeout = 2.0
    #: Seconds between hint-delivery passes.
    hint_interval = 5.0

    def __init__(self, node) -> None:
        self.node = node
        self.store: Dict[str, Tuple[str, float]] = {}
        self._request_ids = itertools.count(1)
        self._pending: Dict[int, object] = {}  # request id -> reply channel
        self.writes_served = 0
        self.reads_served = 0
        # -- hinted handoff: missed writes keyed by the down endpoint.
        self.hints: Dict[str, List[Tuple[str, str, float]]] = {}
        self.hints_lock = node.sim.lock(f"hints:{node.node_id}")
        self.hints_stored = 0
        self.hints_delivered = 0
        self.hints_dropped = 0

    # -- replica selection ---------------------------------------------------------

    def replicas_for(self, key: str) -> List[str]:
        """Natural endpoints plus pending endpoints for the key's token.

        This is the consumer of the pending-range calculation: during a
        membership change, writes must also reach the endpoints that are
        *gaining* the range, or data is lost when the change completes.
        """
        token = token_for_key(key)
        metadata = self.node.metadata
        ring = metadata.ring()
        if not ring:
            return []
        natural = ring.natural_endpoints(token, REPLICATION_FACTOR)
        pending = [
            endpoint
            for endpoint, bounds in metadata.pending_ranges.items()
            if bounds_contain(bounds, token)
        ]
        return natural + [e for e in pending if e not in natural]

    def live_view(self, endpoints: List[str]) -> List[str]:
        """Filter replicas by this node's liveness opinion."""
        gossiper = self.node.gossiper
        live = []
        for endpoint in endpoints:
            if endpoint == self.node.node_id:
                live.append(endpoint)
                continue
            state = gossiper.endpoint_state_map.get(endpoint)
            if state is None or state.status() == STATUS_LEFT:
                continue
            if endpoint in gossiper.live_endpoints:
                live.append(endpoint)
        return live

    # -- coordination (run inside a client process via ``yield from``) ---------------

    def coordinate_write(self, key: str, value: str,
                         cl: ConsistencyLevel = ConsistencyLevel.QUORUM):
        """Write path: returns :class:`OperationResult`."""
        started = self.node.sim.now
        yield Compute(self.node.cpu, StorageCosts.coordinate,
                      tag=f"coord-w:{self.node.node_id}")
        replicas = self.replicas_for(key)
        natural_count = min(REPLICATION_FACTOR, len(replicas)) or 1
        required = cl.required(natural_count)
        alive = self.live_view(replicas)
        if len(alive) < required:
            return OperationResult(ok=False, key=key, kind="write",
                                   required=required, acks=0,
                                   latency=self.node.sim.now - started,
                                   error="unavailable")
        request_id = next(self._request_ids)
        reply = self.node.sim.channel(f"write:{self.node.node_id}:{request_id}")
        self._pending[request_id] = reply
        timestamp = self.node.sim.now
        for endpoint in alive:
            self._send_or_local(
                endpoint, WRITE,
                (request_id, key, value, self.node.node_id, timestamp))
        acks = 0
        result = None
        self._arm_timeout(reply)
        while True:
            message = yield Get(reply)
            if message == _TIMEOUT:
                result = OperationResult(
                    ok=False, key=key, kind="write", acks=acks,
                    required=required,
                    latency=self.node.sim.now - started, error="timeout")
                break
            acks += 1
            if acks >= required:
                result = OperationResult(
                    ok=True, key=key, kind="write", acks=acks,
                    required=required,
                    latency=self.node.sim.now - started)
                break
        del self._pending[request_id]
        # Hinted handoff: the write went through (or at least was sent), so
        # replicas we skipped as dead -- and, on timeout, the targeted ones
        # we never heard from -- get a hint for later replay.
        missed = [r for r in replicas if r not in alive]
        if result is not None and result.error == "timeout":
            missed.extend(r for r in alive if r != self.node.node_id)
        if missed:
            yield from self._store_hints(missed, key, value, timestamp)
        return result

    def _store_hints(self, endpoints: List[str], key: str, value: str,
                     timestamp: float):
        """Append one hint per missed endpoint, under :attr:`hints_lock`."""
        gossiper = self.node.gossiper
        yield Acquire(self.hints_lock)
        try:
            for endpoint in endpoints:
                state = gossiper.endpoint_state_map.get(endpoint)
                if state is not None and state.status() == STATUS_LEFT:
                    continue  # decommissioned: will never come back
                queue = self.hints.setdefault(endpoint, [])
                if len(queue) >= self.MAX_HINTS_PER_ENDPOINT:
                    self.hints_dropped += 1
                    continue
                queue.append((key, value, timestamp))
                self.hints_stored += 1
        finally:
            self.hints_lock.release()

    def hint_delivery_task(self):
        """Periodic replay of stored hints to endpoints marked alive again.

        Drains under the lock, replays outside it: the WRITE sends go
        through the normal storage path and the acks (request id 0, never
        pending) are discarded on arrival.
        """
        while self.node.running:
            yield Timeout(self.hint_interval)
            live = self.node.gossiper.live_endpoints
            batch: List[Tuple[str, Tuple[str, str, float]]] = []
            yield Acquire(self.hints_lock)
            try:
                for endpoint in sorted(self.hints):
                    if len(batch) >= self.HINT_BATCH:
                        break
                    if endpoint not in live:
                        continue
                    queue = self.hints[endpoint]
                    take = self.HINT_BATCH - len(batch)
                    batch.extend((endpoint, hint) for hint in queue[:take])
                    rest = queue[take:]
                    if rest:
                        self.hints[endpoint] = rest
                    else:
                        del self.hints[endpoint]
            finally:
                self.hints_lock.release()
            if not batch:
                continue
            yield Compute(self.node.cpu,
                          StorageCosts.write_local * len(batch),
                          tag=f"hints:{self.node.node_id}")
            for endpoint, (key, value, timestamp) in batch:
                self._send_or_local(
                    endpoint, WRITE,
                    (0, key, value, self.node.node_id, timestamp))
                self.hints_delivered += 1

    def coordinate_read(self, key: str,
                        cl: ConsistencyLevel = ConsistencyLevel.ONE):
        """Read path: returns :class:`OperationResult` with ``value``."""
        started = self.node.sim.now
        yield Compute(self.node.cpu, StorageCosts.coordinate,
                      tag=f"coord-r:{self.node.node_id}")
        replicas = self.replicas_for(key)
        natural_count = min(REPLICATION_FACTOR, len(replicas)) or 1
        required = cl.required(natural_count)
        alive = self.live_view(replicas)
        if len(alive) < required:
            return OperationResult(ok=False, key=key, kind="read",
                                   required=required,
                                   latency=self.node.sim.now - started,
                                   error="unavailable")
        request_id = next(self._request_ids)
        reply = self.node.sim.channel(f"read:{self.node.node_id}:{request_id}")
        self._pending[request_id] = reply
        for endpoint in alive[:required]:
            self._send_or_local(endpoint, READ,
                                (request_id, key, self.node.node_id))
        responses = 0
        freshest: Optional[Tuple[str, float]] = None
        result = None
        self._arm_timeout(reply)
        while True:
            message = yield Get(reply)
            if message == _TIMEOUT:
                result = OperationResult(
                    ok=False, key=key, kind="read", acks=responses,
                    required=required,
                    latency=self.node.sim.now - started, error="timeout")
                break
            responses += 1
            if message is not None:
                if freshest is None or message[1] > freshest[1]:
                    freshest = message
            if responses >= required:
                result = OperationResult(
                    ok=True, key=key, kind="read", acks=responses,
                    required=required,
                    value=freshest[0] if freshest else None,
                    latency=self.node.sim.now - started)
                break
        del self._pending[request_id]
        return result

    def _arm_timeout(self, reply) -> None:
        self.node.sim.schedule(self.rpc_timeout, lambda: reply.put(_TIMEOUT),
                               tag="rpc-timeout")

    def _send_or_local(self, endpoint: str, kind: str, payload) -> None:
        if endpoint == self.node.node_id:
            # Local short-circuit: apply directly (no network hop), reply
            # through the same path the remote case uses.
            self._handle_storage_message(kind, payload, self.node.node_id,
                                         local=True)
        else:
            # Storage traffic has its own stage: address the storage inbox.
            self.node.network.send(self.node.node_id, f"{endpoint}:storage",
                                   kind, payload)

    # -- replica side (runs on the node's storage stage) -------------------------------

    def storage_stage(self, inbox):
        """Process loop for WRITE/READ/acks: separate from GossipStage."""
        while self.node.running:
            message = yield Get(inbox)
            cost = (StorageCosts.write_local
                    if message.kind in (WRITE, WRITE_ACK)
                    else StorageCosts.read_local)
            yield Compute(self.node.cpu, cost,
                          tag=f"storage:{self.node.node_id}")
            self._handle_storage_message(message.kind, message.payload,
                                         message.src)

    def _handle_storage_message(self, kind: str, payload, src: str,
                                local: bool = False) -> None:
        if kind == WRITE:
            request_id, key, value, coordinator, timestamp = payload
            # Last-write-wins on the coordination timestamp: a late hint
            # replay must not clobber a fresher value.
            existing = self.store.get(key)
            if existing is None or timestamp >= existing[1]:
                self.store[key] = (value, timestamp)
            self.writes_served += 1
            self._reply(coordinator, WRITE_ACK, (request_id, True), local)
        elif kind == READ:
            request_id, key, coordinator = payload
            self.reads_served += 1
            stored = self.store.get(key)
            self._reply(coordinator, READ_RESPONSE, (request_id, stored),
                        local)
        elif kind == WRITE_ACK:
            request_id, __ = payload
            channel = self._pending.get(request_id)
            if channel is not None:
                channel.put(True)
        elif kind == READ_RESPONSE:
            request_id, stored = payload
            channel = self._pending.get(request_id)
            if channel is not None:
                channel.put(stored)

    def _reply(self, coordinator: str, kind: str, payload,
               local: bool) -> None:
        if local or coordinator == self.node.node_id:
            self._handle_storage_message(kind, payload, self.node.node_id)
        else:
            self.node.network.send(self.node.node_id,
                                   f"{coordinator}:storage", kind, payload)


@dataclass
class ClientStats:
    """Aggregated client-visible outcomes."""

    attempts: int = 0
    successes: int = 0
    unavailable: int = 0
    timeouts: int = 0
    total_latency: float = 0.0
    failures_by_second: Dict[int, int] = field(default_factory=dict)

    def record(self, result: OperationResult, now: float) -> None:
        """Fold one operation result into the counters."""
        self.attempts += 1
        self.total_latency += result.latency
        if result.ok:
            self.successes += 1
            return
        if result.error == "unavailable":
            self.unavailable += 1
        else:
            self.timeouts += 1
        bucket = int(now)
        self.failures_by_second[bucket] = (
            self.failures_by_second.get(bucket, 0) + 1)

    @property
    def failure_fraction(self) -> float:
        """Fraction of attempted operations that failed."""
        if self.attempts == 0:
            return 0.0
        return 1.0 - self.successes / self.attempts

    def mean_latency(self) -> float:
        """Mean operation latency (seconds)."""
        return self.total_latency / self.attempts if self.attempts else 0.0


class ClientLoad:
    """A steady key-value workload against the cluster.

    Each tick, every client picks a running coordinator round-robin and
    issues one write and one read at the configured consistency levels.
    Results land in :attr:`stats`, giving the user-visible error rate that
    Figure 3's flap counts translate into.
    """

    def __init__(self, cluster, clients: int = 4,
                 interval: float = 1.0,
                 write_cl: ConsistencyLevel = ConsistencyLevel.QUORUM,
                 read_cl: ConsistencyLevel = ConsistencyLevel.QUORUM,
                 key_space: int = 64) -> None:
        self.cluster = cluster
        self.clients = clients
        self.interval = interval
        self.write_cl = write_cl
        self.read_cl = read_cl
        self.key_space = key_space
        self.stats = ClientStats()

    def start(self) -> None:
        """Start the background process(es) (idempotent)."""
        for index in range(self.clients):
            self.cluster.sim.spawn(self._client(index),
                                   name=f"client-{index}")

    def _coordinators(self):
        return [node for node in self.cluster.nodes.values()
                if node.running and node.storage is not None]

    def _client(self, index: int):
        sim = self.cluster.sim
        sequence = itertools.count()
        yield Timeout(sim.rng.uniform(f"client:{index}", 0.0, self.interval))
        while True:
            nodes = self._coordinators()
            if not nodes:
                yield Timeout(self.interval)
                continue
            node = nodes[(index + next(sequence)) % len(nodes)]
            key = f"key-{sim.rng.randint(f'client-key:{index}', 0, self.key_space - 1)}"
            write = yield from node.storage.coordinate_write(
                key, f"v{sim.now:.3f}", self.write_cl)
            self.stats.record(write, sim.now)
            read = yield from node.storage.coordinate_read(key, self.read_cl)
            self.stats.record(read, sim.now)
            yield Timeout(self.interval)
