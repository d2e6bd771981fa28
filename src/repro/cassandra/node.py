"""A simulated Cassandra-like node: gossiper, stages, and bug code paths.

Each node runs three cooperating processes, mirroring the threads the paper
names (section 8: "each node only uses at most 2 busy cores -- gossiper and
gossip-processing threads"):

* **gossip task** -- periodic: beat heartbeat, send SYNs (GossipTasks);
* **gossip stage** -- single-threaded message processing (GossipStage);
* **failure-detector task** -- periodic conviction sweep.

The pending-range calculation runs either *inline on the gossip stage*
(CASSANDRA-3831/3881 era: the stage wedges for the whole calculation) or on
a separate *calc stage* synchronized via the ring lock (CASSANDRA-5456:
coarse lock wedges the gossip stage indirectly; the fix clones the ring and
releases early).

Calculations go through a :class:`CalcExecutor`, the seam where scale-check
plugs in: :class:`DirectExecutor` charges the CPU model and computes the
real output; the memoizing and PIL-replay executors live in
:mod:`repro.core.pil`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..annotations import lock_protects
from ..sim.cpu import CpuModel
from ..sim.kernel import Acquire, Channel, Compute, Get, Simulator, Timeout
from ..sim.network import Message, Network
from .bugs import BugConfig, LockMode
from .gossip import ACK, ACK2, SYN, GossipConfig, Gossiper
from .metrics import CalcRecord, FlapCounter
from .pending_ranges import (
    CalculatorVariant,
    CostConstants,
    DEFAULT_COSTS,
    REPLICATION_FACTOR,
    PendingRanges,
    calc_cost,
    compute_pending_ranges,
    pending_ranges_input_key,
)
from .ring import TokenMetadata
from .state import (
    STATUS,
    STATUS_BOOT,
    STATUS_LEAVING,
    STATUS_LEFT,
    STATUS_NORMAL,
    TOKENS,
    blob_app_items,
)
from .state_columnar import (
    EndpointStateView,
    EstablishedView,
    SharedClusterState,
)

# Lock-discipline declaration (input to the repro.analysis checker): the
# ring lock owns the node's ring table.  The C5456 coarse-lock bug is
# "scale-dependent work while ring_lock is held"; intentional unlocked
# accesses (the LockMode.NONE era, init-time announcements, and the
# modeled CLONE calculation that reads live metadata where the real fix
# reads a clone) are carried in the lint baseline, not silenced here.
lock_protects("ring_lock", "metadata",
              note="ring table (TokenMetadata) ownership, C5456 seam")

#: Wire kind of the ported zkclose fault's per-session close notification
#: (not a gossip message: the stage pays a session-table scan and drops it).
SESSION_CLOSE = "session-close"


class NodeCosts:
    """CPU demand of the small (non-offending) operations, in seconds.

    These are the costs that remain *live* under PIL replay; they are small
    enough that hundreds of colocated nodes fit in one machine's cores, which
    is precisely why replacing only the offending functions suffices.  A
    namespace of constants: no run sets them.
    """

    gossip_round_base = 5e-5
    per_digest = 1e-6
    message_base = 3e-5
    per_entry = 2e-6
    check_base = 2e-5
    per_liveness_check = 5e-7
    clone_per_token = 2e-7     # ring-table clone (the 5456 fix)
    install_cost = 1e-5        # installing calc output under lock


def estimate_entries(kind: str, payload) -> int:
    """Wire-size proxy used to charge message-processing CPU *before*
    the message is applied (staleness must accrue during processing)."""
    if kind == SYN:
        return len(payload)
    if kind == ACK:
        send_states, requests = payload
        return (len(send_states) + len(requests)
                + sum(map(len, map(blob_app_items, send_states.values()))))
    if kind == ACK2:
        return len(payload) + sum(map(len, map(blob_app_items,
                                               payload.values())))
    return 1


@dataclass
class CalcRequest:
    """One pending-range calculation to execute.

    ``compute_output`` returns the semantically correct result.  It is
    lazy: the calculation is a pure function of ring content, so the output
    is fixed the moment the input is, and an executor that substitutes a
    memoized output (a PIL replay hit) never runs it.  Executors decide how
    much virtual time the calculation costs and which output the node
    observes.
    """

    node_id: str
    variant: CalculatorVariant
    input_key: str
    demand: float
    changes: int
    time: float
    compute_output: Callable[[], PendingRanges]


class CalcExecutor:
    """Strategy interface for running calculations (the PIL seam).

    An executor that needs the real output calls
    ``request.compute_output()`` before its first ``yield``: the input is
    the ring as it stood at trigger time, and once the generator yields,
    other processes may move it.
    """

    def execute(self, node: "Node", request: CalcRequest):
        """Generator: yields sim effects; returns ``(output, elapsed)``."""
        raise NotImplementedError


class DirectExecutor(CalcExecutor):
    """Run the calculation live: charge its demand to the node's CPU."""

    def execute(self, node: "Node", request: CalcRequest):
        """Execute."""
        output = request.compute_output()
        elapsed = yield Compute(node.cpu, request.demand,
                                tag=f"calc:{node.node_id}")
        return output, elapsed


class Node:
    """One simulated cluster member."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        network: Network,
        cpu: CpuModel,
        seeds: List[str],
        tokens: Tuple[int, ...],
        bug: BugConfig,
        flaps: FlapCounter,
        executor: CalcExecutor,
        resolve_output: Callable[[str, Callable[[], PendingRanges]],
                                 PendingRanges],
        calc_records: List[CalcRecord],
        cost_constants: CostConstants = DEFAULT_COSTS,
        gossip_config: Optional[GossipConfig] = None,
        generation: int = 1,
        enable_storage: bool = False,
        shared_state: Optional[SharedClusterState] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.network = network
        self.cpu = cpu
        self.tokens = tuple(tokens)
        self.bug = bug
        self.cost_constants = cost_constants
        self.executor = executor
        self.resolve_output = resolve_output
        self.calc_records = calc_records
        self.inbox: Channel = sim.channel(f"inbox:{node_id}")
        self.calc_queue: Channel = sim.channel(f"calcq:{node_id}")
        self.ring_lock = sim.lock(f"ring:{node_id}")
        self.metadata = TokenMetadata(
            None if shared_state is None else shared_state.token_tables)
        self.gossiper = Gossiper(
            node_id=node_id,
            generation=generation,
            seeds=seeds,
            rng=sim.rng,
            send=self._send,
            now=lambda: sim.now,
            flaps=flaps,
            config=gossip_config,
            on_status_change=self._on_status_change,
            shared=shared_state,
        )
        network.register(node_id, self.inbox)
        self.storage = None
        self.storage_inbox: Optional[Channel] = None
        if enable_storage:
            from .storage import StorageService  # local: avoid heavy import
            self.storage = StorageService(self)
            self.storage_inbox = sim.channel(f"storage:{node_id}")
            network.register(f"{node_id}:storage", self.storage_inbox)
        self.running = False
        self._ring_dirty = False
        self._retry_attempts: Dict[str, int] = {}
        self._processes: List = []
        self.round_lateness_max = 0.0
        self.round_lateness_sum = 0.0
        self.rounds_completed = 0

    # -- wiring ------------------------------------------------------------------

    def _send(self, dst: str, kind: str, payload) -> None:
        self.network.send(self.node_id, dst, kind, payload)

    def _on_status_change(self, endpoint: str, status: str,
                          state: EndpointStateView) -> None:
        tokens = state.tokens()
        if status == STATUS_BOOT and tokens:
            self.metadata.add_bootstrap_tokens(endpoint, tokens)
        elif status == STATUS_NORMAL and tokens:
            self.metadata.update_normal_tokens(endpoint, tokens)
        elif status == STATUS_LEAVING:
            self.metadata.add_leaving_endpoint(endpoint)
        elif status == STATUS_LEFT:
            self.metadata.remove_endpoint(endpoint)
        self._ring_dirty = True
        if status == STATUS_LEFT and self.bug.close_broadcast and self.running:
            self._broadcast_session_closes(endpoint)

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Spawn the node's processes (idempotent)."""
        if self.running:
            return
        self.running = True
        self._processes = [
            self.sim.spawn(self._gossip_task(), name=f"gossip-task:{self.node_id}"),
            self.sim.spawn(self._gossip_stage(), name=f"gossip-stage:{self.node_id}"),
            self.sim.spawn(self._fd_task(), name=f"fd-task:{self.node_id}"),
        ]
        if not self.bug.calc_in_gossip_stage:
            self._processes.append(
                self.sim.spawn(self._calc_stage(), name=f"calc-stage:{self.node_id}")
            )
        if self.storage is not None:
            self._processes.append(self.sim.spawn(
                self.storage.storage_stage(self.storage_inbox),
                name=f"storage-stage:{self.node_id}",
            ))
            self._processes.append(self.sim.spawn(
                self.storage.hint_delivery_task(),
                name=f"hint-delivery:{self.node_id}",
            ))

    def stop(self) -> None:
        """Shut the node down and detach it from the network."""
        if not self.running:
            return
        self.running = False
        self.network.deregister(self.node_id)
        if self.storage is not None:
            self.network.deregister(f"{self.node_id}:storage")
        for process in self._processes:
            process.interrupt()
        self._processes = []

    # -- ported faults -----------------------------------------------------------------

    def _broadcast_session_closes(self, departed: str) -> None:
        """Ported zkclose fault: one close notification per known peer.

        The real pattern (ZooKeeper-style): a member's departure closes its
        sessions, and the close is *broadcast* instead of batched -- every
        observer tells every peer, so the cluster pays N^2 messages and each
        receiver scans its session table per close.
        """
        for peer in self.gossiper.known_endpoints():
            if peer != self.node_id and peer != departed:
                self._send(peer, SESSION_CLOSE, departed)

    def _retry_backlog_cost(self) -> float:
        """Ported retryamp fault: this round's retry-amplification demand.

        Attempts to each unreachable peer double every round (no backoff
        cap beyond the session table itself: the backlog grows with N), and
        each attempt rebuilds a full digest -- O(attempts x N) per peer per
        round on the gossip task, starving heartbeat production.
        """
        dead = self.gossiper.unreachable_endpoints
        attempts_map = self._retry_attempts
        if not dead:
            if attempts_map:
                attempts_map.clear()
            return 0.0
        sessions = len(self.gossiper.endpoint_state_map)
        cap = 4 * sessions
        cost = 0.0
        for peer in sorted(dead):
            attempts = attempts_map.get(peer, 1)
            cost += self.cost_constants.k_retry * attempts * sessions
            attempts_map[peer] = min(attempts * 2, cap)
        for peer in [p for p in attempts_map if p not in dead]:
            del attempts_map[peer]
        return cost

    # -- membership announcements ----------------------------------------------------

    def announce_tokens(self) -> None:
        """Publish this node's token set via gossip."""
        self.gossiper.set_app_state(TOKENS, "", payload=self.tokens)

    def announce_status(self, status: str) -> None:
        """Publish our own STATUS and apply it to our own ring table."""
        self.gossiper.set_app_state(STATUS, status)
        self._on_status_change(self.node_id, status, self.gossiper.own_state)

    def establish_normal(self) -> None:
        """Start as an established NORMAL member (long-running cluster)."""
        self.announce_tokens()
        self.announce_status(STATUS_NORMAL)
        self._ring_dirty = False

    def load_established(self, view: EstablishedView,
                         ring: TokenMetadata) -> None:
        """Learn the whole established cluster at once.

        ``view`` is the membership as gossip state, ``ring`` the normal
        token ownership of the same members (one template per cluster).
        Equivalent to ``gossiper.populate`` per peer -- peers known, live
        and reported to the failure detector, ring table filled -- without
        marking the ring dirty: population is not a topology change.
        """
        self.gossiper.load_established(view)
        self.metadata.load_normal_ring(ring)

    # -- processes ---------------------------------------------------------------------

    def _gossip_task(self):
        interval = self.gossiper.config.interval
        # Deterministic phase stagger so all nodes do not tick in lockstep.
        yield Timeout(self.sim.rng.uniform_once(f"stagger:{self.node_id}", 0.0, interval))
        intended = self.sim.now
        while self.running:
            cost = (NodeCosts.gossip_round_base
                    + NodeCosts.per_digest * len(self.gossiper.endpoint_state_map))
            if self.bug.handoff_scan and self.metadata.has_pending_changes():
                # ported rhandoff fault: rescan the full ring against
                # itself for handoff partners, every round changes pend
                tokens = max(1, self.metadata.token_count())
                cost += self.cost_constants.k_handoff_scan * tokens * tokens
            if self.bug.retry_storm:
                cost += self._retry_backlog_cost()
            yield Compute(self.cpu, cost, tag=f"round:{self.node_id}")
            self.gossiper.do_round()
            lateness = max(0.0, self.sim.now - intended - cost)
            self.round_lateness_max = max(self.round_lateness_max, lateness)
            self.round_lateness_sum += lateness
            self.rounds_completed += 1
            intended += interval
            yield Timeout(max(0.0, intended - self.sim.now))

    def _gossip_stage(self):
        locked_stage = self.bug.lock_mode in (LockMode.COARSE, LockMode.CLONE)
        while self.running:
            message: Message = yield Get(self.inbox)
            if message.kind == SESSION_CLOSE:
                # ported zkclose fault: each close scans the whole session
                # table (one session per known peer) before being dropped.
                sessions = len(self.gossiper.endpoint_state_map)
                yield Compute(
                    self.cpu,
                    NodeCosts.message_base
                    + self.cost_constants.k_close_scan * sessions,
                    tag=f"close-scan:{self.node_id}")
                continue
            entries = estimate_entries(message.kind, message.payload)
            cost = NodeCosts.message_base + NodeCosts.per_entry * entries
            if locked_stage:
                yield Acquire(self.ring_lock)
            yield Compute(self.cpu, cost, tag=f"proc:{self.node_id}")
            applied_before = self.gossiper.states_applied
            self.gossiper.handle_message(message.kind, message.payload, message.src)
            if locked_stage:
                self.ring_lock.release()
            applied = self.gossiper.states_applied - applied_before
            yield from self._maybe_calculate(applied)

    def _fd_task(self):
        interval = self.gossiper.config.interval
        yield Timeout(self.sim.rng.uniform_once(f"fd-stagger:{self.node_id}", 0.0, interval))
        while self.running:
            live = len(self.gossiper.live_endpoints)
            cost = NodeCosts.check_base + NodeCosts.per_liveness_check * live
            yield Compute(self.cpu, cost, tag=f"fd:{self.node_id}")
            self.gossiper.check_convictions()
            yield Timeout(interval)

    def _calc_stage(self):
        """Separate calculation stage (CASSANDRA-5456 code path)."""
        while self.running:
            yield Get(self.calc_queue)
            yield Acquire(self.ring_lock)
            if self.bug.lock_mode is LockMode.CLONE:
                # The fix: clone the ring table, release the lock early,
                # calculate on the clone.
                clone_cost = NodeCosts.clone_per_token * max(
                    1, self.metadata.token_count()
                )
                yield Compute(self.cpu, clone_cost, tag=f"clone:{self.node_id}")
                self.ring_lock.release()
                yield from self._run_calculation()
                yield Acquire(self.ring_lock)
                yield Compute(self.cpu, NodeCosts.install_cost,
                              tag=f"install:{self.node_id}")
                self.ring_lock.release()
            else:
                # The bug: hold the coarse lock for the entire calculation,
                # starving the gossip stage.
                yield from self._run_calculation()
                self.ring_lock.release()

    # -- the offending computation ----------------------------------------------------

    def _maybe_calculate(self, applied_states: int):
        """Decide whether this message triggers a recalculation."""
        storm = (self.bug.recalc_storm and applied_states > 0
                 and self.metadata.has_pending_changes())
        if not (self._ring_dirty or storm):
            return
        self._ring_dirty = False
        if self.bug.calc_in_gossip_stage:
            yield from self._run_calculation()
        elif len(self.calc_queue) < 1:
            # coalesce queued requests; the calc stage reads fresh state anyway
            self.calc_queue.put("recalculate")

    def _is_fresh_bootstrap(self) -> bool:
        return self.metadata.is_fresh_bootstrap()

    def _run_calculation(self):
        """Execute one pending-range calculation through the executor seam."""
        metadata = self.metadata
        changes = (len(metadata.bootstrapping_endpoints())
                   + len(metadata.leaving_endpoints))
        if changes == 0:
            metadata.set_pending_ranges({})
            return
        variant = self.bug.calculator_for(self._is_fresh_bootstrap())
        token_count = metadata.token_count() + len(metadata.bootstrap_tokens)
        demand = calc_cost(variant, metadata.node_count(), token_count, changes,
                           self.cost_constants)
        input_key = pending_ranges_input_key(metadata, REPLICATION_FACTOR,
                                             variant)
        ring_hash = metadata.content_hash
        request = CalcRequest(
            node_id=self.node_id, variant=variant, input_key=input_key,
            demand=demand, changes=changes, time=self.sim.now,
            compute_output=lambda: self._calc_output(metadata, ring_hash,
                                                     input_key),
        )
        result = yield from self.executor.execute(self, request)
        observed_output, elapsed = result
        metadata.set_pending_ranges(observed_output)
        self.calc_records.append(CalcRecord(
            time=request.time, node=self.node_id, variant=variant.value,
            input_key=input_key, demand=demand, elapsed=elapsed,
            changes=changes,
        ))

    def _calc_output(self, metadata: TokenMetadata, ring_hash: int,
                     input_key: str) -> PendingRanges:
        """The real output of a calculation triggered when ``metadata``
        hashed to ``ring_hash``: resolved through the cluster, so computed
        once per distinct ring, refused if the ring has moved since (its
        key would name another input)."""
        if metadata.content_hash != ring_hash:
            raise RuntimeError(
                f"{self.node_id}: calculation output resolved after the ring "
                f"moved (an executor yielded before resolving it)")
        return self.resolve_output(
            input_key, lambda: compute_pending_ranges(metadata,
                                                      REPLICATION_FACTOR))

    # -- diagnostics ----------------------------------------------------------------------

    def mean_round_lateness(self) -> float:
        """Mean gossip-round completion lateness (seconds)."""
        if self.rounds_completed == 0:
            return 0.0
        return self.round_lateness_sum / self.rounds_completed
