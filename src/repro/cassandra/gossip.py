"""The anti-entropy gossip protocol (SYN / ACK / ACK2), Cassandra style.

Once per second each node increments its heartbeat and exchanges state
digests with a random live peer (occasionally also a seed or a dead peer, to
heal partitions and detect recoveries).  Endpoint states converge through
delta exchange; every fresher heartbeat observed for a peer is reported to
the local phi-accrual failure detector.

The scalability-bug coupling: *applying* gossip happens on the single-
threaded gossip stage.  Anything slow on that stage (a pending-range
calculation, or waiting on the shared ring lock) delays heartbeat
application for every peer at once, inflating phi across the board -- which
is why one O(N^3) computation can make a node convict hundreds of healthy
peers (section 2).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..sim.rng import SplittableRng
from .failure_detector import PhiAccrualFailureDetector
from .metrics import FlapCounter
from .state import (
    STATUS,
    STATUS_LEFT,
    GossipDigest,
    VersionGenerator,
    VersionedValue,
    blob_app_items,
)
from .state_columnar import (
    ColumnarEndpointStore,
    ColumnarStateMap,
    EndpointStateView,
    EstablishedView,
    SharedClusterState,
)

# Message kinds on the wire.
SYN = "gossip-syn"
ACK = "gossip-ack"
ACK2 = "gossip-ack2"

#: Probability of additionally gossiping to a seed / an unreachable node per
#: round (Cassandra gossips to seeds and dead nodes probabilistically).
SEED_GOSSIP_PROBABILITY = 0.1
DEAD_GOSSIP_PROBABILITY = 0.1

#: A digest's endpoint, as a C-speed getter.
_ENDPOINT = itemgetter(0)


class TrackedSet(set):
    """A set that counts its own mutations.

    The gossiper sorts its live/unreachable views every round and every
    conviction sweep; the counter lets those sorted lists be cached and
    rebuilt only when membership actually changed.  Tracking at the
    container level keeps external writers (tests and the storage layer
    mutate these sets directly) correct without any invalidation calls.
    """

    __slots__ = ("mutations",)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.mutations = 0

    def add(self, element) -> None:
        super().add(element)
        self.mutations += 1

    def discard(self, element) -> None:
        super().discard(element)
        self.mutations += 1

    def remove(self, element) -> None:
        super().remove(element)
        self.mutations += 1

    def pop(self):
        self.mutations += 1
        return super().pop()

    def clear(self) -> None:
        self.mutations += 1
        super().clear()

    def update(self, *others) -> None:
        self.mutations += 1
        super().update(*others)

    def difference_update(self, *others) -> None:
        self.mutations += 1
        super().difference_update(*others)

    def intersection_update(self, *others) -> None:
        self.mutations += 1
        super().intersection_update(*others)

    def symmetric_difference_update(self, other) -> None:
        self.mutations += 1
        super().symmetric_difference_update(other)

    def __ior__(self, other):
        self.mutations += 1
        return super().__ior__(other)

    def __iand__(self, other):
        self.mutations += 1
        return super().__iand__(other)

    def __isub__(self, other):
        self.mutations += 1
        return super().__isub__(other)

    def __ixor__(self, other):
        self.mutations += 1
        return super().__ixor__(other)


@dataclass
class GossipConfig:
    interval: float = 1.0
    phi_threshold: float = 8.0
    fd_window: int = 1000
    seed_probability: float = SEED_GOSSIP_PROBABILITY
    dead_probability: float = DEAD_GOSSIP_PROBABILITY


class Gossiper:
    """One node's gossip engine.

    Pure protocol logic: no simulator imports.  The owner wires in ``send``
    (deliver a message), ``now`` (virtual clock), and ``on_status_change``
    (membership hook: ring updates and pending-range triggers).

    Endpoint state lives in a :class:`~repro.cassandra.state_columnar.
    ColumnarEndpointStore`; ``shared`` is the cluster's interning tables
    (a private set when none is given).  The per-digest and per-heartbeat
    loops read the columns directly; everything else goes through
    ``endpoint_state_map`` views.
    """

    def __init__(
        self,
        node_id: str,
        generation: int,
        seeds: Sequence[str],
        rng: SplittableRng,
        send: Callable[[str, str, object], None],
        now: Callable[[], float],
        flaps: FlapCounter,
        config: Optional[GossipConfig] = None,
        on_status_change: Optional[
            Callable[[str, str, EndpointStateView], None]] = None,
        on_restart: Optional[Callable[[str, EndpointStateView], None]] = None,
        shared: Optional[SharedClusterState] = None,
    ) -> None:
        self.node_id = node_id
        self.seeds = [s for s in seeds if s != node_id]
        self.rng = rng
        self._send = send
        self._now = now
        self.flaps = flaps
        self.config = config or GossipConfig()
        self.on_status_change = on_status_change
        self.on_restart = on_restart
        self.versions = VersionGenerator()
        self._shared = shared if shared is not None else SharedClusterState()
        self._store = ColumnarEndpointStore(self._shared)
        self.fd = PhiAccrualFailureDetector(
            phi_threshold=self.config.phi_threshold,
            window_size=self.config.fd_window,
            expected_interval=self.config.interval,
            shared=self._shared,
        )
        self.endpoint_state_map = ColumnarStateMap(self._store)
        self.live_endpoints: Set[str] = TrackedSet()
        self.unreachable_endpoints: Set[str] = TrackedSet()
        self._rng_stream = f"gossip:{node_id}"
        self.rounds = 0
        self.states_applied = 0
        # Cached sorted views (snapshots; rebuilt when the backing
        # container's mutation counter / size moves).
        self._live_token = -1
        self._live_sorted: List[str] = []
        self._dead_token = -1
        self._dead_sorted: List[str] = []
        self._esm_len = -1
        self._esm_sorted: List[str] = []
        self._candidates_key: Tuple[int, int] = (-1, -1)
        self._candidates = array("q")
        gid = self._shared.gid(node_id)
        self._store.ensure_capacity(gid)
        self._store.insert(node_id, gid, generation, 0,
                           self._shared.empty_app, self._now())
        self._own_gid = gid
        self._own_view = EndpointStateView(self._store, gid)

    # -- local state ------------------------------------------------------------

    @property
    def own_state(self) -> EndpointStateView:
        """This node's own endpoint state (write-through view)."""
        return self._own_view

    def set_app_state(self, key: str, value: str,
                      payload: Optional[tuple] = None) -> None:
        """Publish one of our own application states (STATUS, TOKENS, ...)."""
        store = self._store
        gid = self._own_gid
        current = dict(store.app[gid].items)
        current[key] = VersionedValue(value, self.versions.next(), payload)
        store.app[gid] = self._shared.intern_items(
            tuple(sorted(current.items())))
        store.digest_cache[gid] = None

    def populate(self, endpoint: str, blob: tuple) -> None:
        """Pre-seed knowledge of a peer (established-cluster scenarios).

        Bypasses the wire but uses the same application path, so status
        handlers and the failure detector see a normal join.
        """
        self._apply_state(endpoint, blob)

    def load_established(self, view: EstablishedView) -> None:
        """Learn a whole established membership in one bulk copy.

        Leaves a gossiper that knows only itself exactly as one
        :meth:`populate` per other member of ``view`` (in ``view.names``
        order) would: the store's columns are copies of the view's with
        this node's own row kept, every peer is live, and the failure
        detector has seen one arrival from each at the current time.  The
        STATUS notifications are *not* replayed -- the view guarantees
        every member is NORMAL, and the owner loads the matching ring
        (:meth:`repro.cassandra.node.Node.load_established`).
        """
        now = self._now()
        peers = self._store.load_established(view, now)
        self.states_applied += len(peers)
        self.live_endpoints.update(peers)
        self.fd.report_first_arrivals(peers, self._own_gid, now)

    # -- cached sorted views ------------------------------------------------------

    def _sorted_live(self) -> List[str]:
        """``sorted(live_endpoints)`` cached on the set's mutation counter.

        Returns a snapshot list: callers may mutate the set while iterating
        it, which only schedules a rebuild for the *next* call.
        """
        live = self.live_endpoints
        token = getattr(live, "mutations", -1)
        if token < 0:
            return sorted(live)
        if token != self._live_token:
            self._live_sorted = sorted(live)
            self._live_token = token
        return self._live_sorted

    def _sorted_unreachable(self) -> List[str]:
        """``sorted(unreachable_endpoints)``, cached like :meth:`_sorted_live`."""
        dead = self.unreachable_endpoints
        token = getattr(dead, "mutations", -1)
        if token < 0:
            return sorted(dead)
        if token != self._dead_token:
            self._dead_sorted = sorted(dead)
            self._dead_token = token
        return self._dead_sorted

    def _sorted_endpoints(self) -> List[str]:
        """``sorted(endpoint_state_map)`` cached on map size.

        Size is a sufficient validity token because the gossiper only ever
        adds endpoints or replaces the state behind an existing key -- it
        never deletes one.
        """
        esm = self.endpoint_state_map
        if len(esm) != self._esm_len:
            self._esm_sorted = sorted(esm)
            self._esm_len = len(esm)
        return self._esm_sorted

    # -- gossip round -------------------------------------------------------------

    def do_round(self) -> List[str]:
        """One gossip tick: beat, pick targets, send SYNs.

        Returns the targets chosen (for tests and traces).
        """
        self.rounds += 1
        self.own_state.heartbeat.beat(self.versions)
        self.own_state.update_timestamp = self._now()
        targets: List[str] = []
        # The cached sorted list is the draw population as it stands: only
        # a direct writer puts this node in its own live set, and filtering
        # it out keeps the order, so the rng.choice draw is the same.
        live = self._sorted_live()
        if self.node_id in self.live_endpoints:
            live = [e for e in live if e != self.node_id]
        if live:
            targets.append(self.rng.choice(self._rng_stream, live))
        dead = self._sorted_unreachable()
        if dead and self.rng.random(self._rng_stream) < self.config.dead_probability:
            targets.append(self.rng.choice(self._rng_stream, dead))
        gossiped_to_seed = any(t in self.seeds for t in targets)
        if self.seeds and not gossiped_to_seed and (
            not live or self.rng.random(self._rng_stream) < self.config.seed_probability
        ):
            targets.append(self.rng.choice(self._rng_stream, self.seeds))
        digests = self._build_digests()
        for target in targets:
            self._send(target, SYN, digests)
        return targets

    def _build_digests(self) -> List[GossipDigest]:
        """Digest list for this round's SYNs, from the columns.

        Per-row digests are memoized in the store and interned in the
        shared digest table, so an unchanged endpoint costs one list
        lookup and a changed one costs one dict probe cluster-wide.
        """
        store = self._store
        registry = self._shared.registry
        generation = store.generation
        hb_version = store.hb_version
        app = store.app
        digest_cache = store.digest_cache
        intern_digest = self._shared.intern_digest
        digests: List[GossipDigest] = []
        append = digests.append
        for endpoint in self._sorted_endpoints():
            gid = registry[endpoint]
            digest = digest_cache[gid]
            if digest is None:
                hb = hb_version[gid]
                max_app = app[gid].max_app
                digest = intern_digest(
                    endpoint, generation[gid],
                    hb if hb > max_app else max_app)
                digest_cache[gid] = digest
            append(digest)
        return digests

    # -- message handling -----------------------------------------------------------

    def handle_message(self, kind: str, payload, src: str) -> int:
        """Process one gossip message; returns entry count for CPU costing."""
        if kind == SYN:
            return self._handle_syn(payload, src)
        if kind == ACK:
            return self._handle_ack(payload, src)
        if kind == ACK2:
            return self._handle_ack2(payload, src)
        raise ValueError(f"unknown gossip message kind {kind!r}")

    def _handle_syn(self, digests: List[GossipDigest], src: str) -> int:
        send_states: Dict[str, tuple] = {}
        requests: List[Tuple[str, int]] = []
        seen = set(map(_ENDPOINT, digests))
        requests_append = requests.append
        store = self._store
        registry_get = self._shared.registry.get
        gen_col = store.generation
        hb_col = store.hb_version
        app_col = store.app
        known = len(gen_col)
        # O(N) digests per SYN: unpack the digest tuples directly and defer
        # the local max-version read to the only branch that needs it.
        for endpoint, generation, max_version in digests:
            gid = registry_get(endpoint)
            if gid is None or gid >= known or gen_col[gid] < 0:
                requests_append((endpoint, 0))
                continue
            local_generation = gen_col[gid]
            if generation == local_generation:
                record = app_col[gid]
                hb = hb_col[gid]
                local_version = hb if hb > record.max_app else record.max_app
                if max_version > local_version:
                    requests_append((endpoint, local_version))
                elif max_version < local_version:
                    # No app item is newer than a version at or above
                    # max_app: the delta is empty without a scan.
                    send_states[endpoint] = (
                        local_generation, hb,
                        () if max_version >= record.max_app else
                        tuple(entry for entry in record.wire
                              if entry[2] > max_version))
            elif generation > local_generation:
                requests_append((endpoint, 0))
            else:
                send_states[endpoint] = (
                    local_generation, hb_col[gid], app_col[gid].wire)
        # Endpoints the sender has never heard of, in discovery order.  In
        # an established cluster the digest list covers everything we know,
        # so a C-speed superset check replaces the per-endpoint scan.
        order_names = store.order_names
        if len(seen) < store.present or not seen.issuperset(order_names):
            order_gids = store.order_gids
            for index, endpoint in enumerate(order_names):
                if endpoint not in seen:
                    gid = order_gids[index]
                    send_states[endpoint] = (
                        gen_col[gid], hb_col[gid], app_col[gid].wire)
        self._send(src, ACK, (send_states, requests))
        return (len(digests) + len(send_states)
                + sum(map(len, map(blob_app_items, send_states.values()))))

    def _handle_ack(self, payload, src: str) -> int:
        send_states, requests = payload
        entries = self._apply_states(send_states)
        reply = self.endpoint_state_map.delta_blobs(requests)
        if reply:
            self._send(src, ACK2, reply)
        return entries + len(requests)

    def _handle_ack2(self, payload, src: str) -> int:
        return self._apply_states(payload)

    # -- state application -------------------------------------------------------------

    def _apply_states(self, blobs: Dict[str, tuple]) -> int:
        """Apply one message's state blobs; returns their entry count.

        The steady-state blob -- a newer heartbeat, nothing else, for a
        known live peer of the same generation -- is applied inline: the
        same column writes, counter and detector report as
        :meth:`_apply_state`, whose :meth:`_mark_alive` is a no-op for a
        peer that is live and not unreachable.  Every other blob goes
        through :meth:`_apply_state`.  (A wire generation is never the -1
        of an unknown row, so an equal generation means a known row.)
        """
        now = self._now()
        own_gid = self._own_gid
        store = self._store
        registry_get = self._shared.registry.get
        gen_col = store.generation
        hb_col = store.hb_version
        ts_col = store.update_ts
        digest_cache = store.digest_cache
        live = self.live_endpoints
        dead = self.unreachable_endpoints
        report = self.fd.report
        entries = len(blobs)    # plus app items below: blob_entry_count
        for endpoint, blob in blobs.items():
            generation, hb_version, app_items = blob
            if not app_items:
                gid = registry_get(endpoint)
                if (gid is not None and gid != own_gid
                        and gid < len(gen_col)
                        and gen_col[gid] == generation
                        and hb_version > hb_col[gid]
                        and endpoint in live and endpoint not in dead):
                    hb_col[gid] = hb_version
                    ts_col[gid] = now
                    digest_cache[gid] = None
                    self.states_applied += 1
                    report(endpoint, now)
                    continue
            else:
                entries += len(app_items)
            self._apply_state(endpoint, blob)
        return entries

    def _apply_state(self, endpoint: str, blob: tuple) -> None:
        if endpoint == self.node_id:
            return
        generation, hb_version, app_items = blob
        now = self._now()
        store = self._store
        shared = self._shared
        gid = shared.gid(endpoint)
        store.ensure_capacity(gid)
        local_generation = store.generation[gid]
        if local_generation < 0 or generation > local_generation:
            restarted = local_generation >= 0
            record = shared.intern_wire(app_items)
            if restarted:
                if store.on_access is not None:
                    store.on_access("w")
                self._candidates_key = (-1, -1)   # the record may drop LEFT
                store.generation[gid] = generation
                store.hb_version[gid] = hb_version
                store.update_ts[gid] = now
                store.alive[gid] = 1
                store.app[gid] = record
                store.digest_cache[gid] = None
            else:
                store.insert(endpoint, gid, generation, hb_version,
                             record, now)
            self.states_applied += 1
            self.fd.report(endpoint, now)
            self._mark_alive(endpoint, gid)
            if restarted and self.on_restart is not None:
                self.on_restart(endpoint, EndpointStateView(store, gid))
            for key, value, __, ___ in app_items:
                if key == STATUS:
                    self._notify_status(endpoint, value,
                                        EndpointStateView(store, gid))
            return
        if generation < local_generation:
            return  # stale incarnation
        # _apply_states inlines this branch for live peers; keep both alike.
        if hb_version > store.hb_version[gid]:
            store.hb_version[gid] = hb_version
            store.update_ts[gid] = now
            store.digest_cache[gid] = None
            self.states_applied += 1
            self.fd.report(endpoint, now)
            self._mark_alive(endpoint, gid)
        if not app_items:
            return
        # Merge every app-state value newer than what we hold before firing
        # STATUS notifications: a BOOT/NORMAL handler needs the TOKENS entry
        # riding in the same blob, and key-sorted application would
        # otherwise deliver STATUS first (real Cassandra orders
        # ApplicationState handling the same way for the same reason).
        record = store.app[gid]
        current = dict(record.items)
        current_get = current.get
        status_changes = []
        changed = False
        for key, value, version, item_payload in app_items:
            existing = current_get(key)
            if existing is None or version > existing.version:
                current[key] = VersionedValue(value, version, item_payload)
                changed = True
                if key == STATUS:
                    status_changes.append(value)
        if changed:
            store.app[gid] = shared.intern_items(tuple(sorted(current.items())))
            store.digest_cache[gid] = None
        for value in status_changes:
            self._notify_status(endpoint, value, EndpointStateView(store, gid))

    def _notify_status(self, endpoint: str, status: str,
                       state: EndpointStateView) -> None:
        self._candidates_key = (-1, -1)   # see check_convictions
        if status == STATUS_LEFT:
            # departed nodes are no longer gossip targets or conviction subjects
            self.live_endpoints.discard(endpoint)
            self.unreachable_endpoints.discard(endpoint)
            self.fd.forget(endpoint)
        if self.on_status_change is not None:
            self.on_status_change(endpoint, status, state)

    # -- liveness -------------------------------------------------------------------------

    def _mark_alive(self, endpoint: str, gid: int) -> None:
        store = self._store
        if store.app[gid].status == STATUS_LEFT:
            return
        if endpoint in self.unreachable_endpoints:
            self.unreachable_endpoints.discard(endpoint)
            self.live_endpoints.add(endpoint)
            store.alive[gid] = 1
            self.flaps.record_recovery(self._now(), self.node_id, endpoint)
        elif endpoint not in self.live_endpoints:
            self.live_endpoints.add(endpoint)
            store.alive[gid] = 1

    def check_convictions(self) -> List[str]:
        """FD sweep: convict peers whose phi exceeds the threshold.

        Runs on its own periodic task (Cassandra's GossipTasks thread), so it
        keeps firing even while the gossip stage is wedged -- convicting
        peers precisely because the stage has not applied their heartbeats.
        Returns the endpoints convicted this sweep.

        The candidates -- live peers minus this node, minus rows the store
        does not hold, minus LEFT peers, in sorted-name order -- are cached
        as one gid array and judged in one :meth:`PhiAccrualFailureDetector.
        sweep` call.  The cache is rebuilt when the live set's mutation
        counter or the store's row count moves, after a STATUS change or a
        restart (either can move a peer across the LEFT filter without
        touching the live set), and on every sweep when ``live_endpoints``
        is a plain set.
        """
        now = self._now()
        candidates = self._conviction_candidates()
        positions = self.fd.sweep(candidates, now)
        if not positions:
            return []
        convicted: List[str] = []
        node_id = self.node_id
        names = self._shared.names
        alive_col = self._store.alive
        for position in positions:
            gid = candidates[position]
            endpoint = names[gid]
            self.live_endpoints.discard(endpoint)
            self.unreachable_endpoints.add(endpoint)
            alive_col[gid] = 0
            self.flaps.record_conviction(now, node_id, endpoint)
            convicted.append(endpoint)
        return convicted

    def _conviction_candidates(self) -> array:
        """The gids :meth:`check_convictions` judges, cached (see there)."""
        live = self.live_endpoints
        store = self._store
        key = (getattr(live, "mutations", -1), store.present)
        if key[0] >= 0 and key == self._candidates_key:
            return self._candidates
        registry_get = self._shared.registry.get
        gen_col = store.generation
        app_col = store.app
        known = len(gen_col)
        own_gid = self._own_gid
        candidates = array("q")
        append = candidates.append
        for endpoint in self._sorted_live():
            gid = registry_get(endpoint)
            if (gid is None or gid == own_gid or gid >= known
                    or gen_col[gid] < 0
                    or app_col[gid].status == STATUS_LEFT):
                continue
            append(gid)
        self._candidates_key = key
        self._candidates = candidates
        return candidates

    # -- introspection ---------------------------------------------------------------------

    def known_endpoints(self) -> List[str]:
        """All endpoints with recorded state, sorted."""
        return sorted(self.endpoint_state_map)

    def live_count(self) -> int:
        """Number of peers currently believed alive."""
        return len(self.live_endpoints)

    def stats(self) -> Dict[str, float]:
        """Protocol counters in one dict (for the metrics collector)."""
        return {
            "rounds": self.rounds,
            "states_applied": self.states_applied,
            "live": len(self.live_endpoints),
            "unreachable": len(self.unreachable_endpoints),
            "fd_reports": self.fd.stats.reports,
            "fd_convictions": self.fd.stats.convictions,
            "fd_max_phi": self.fd.stats.max_phi_seen,
        }
