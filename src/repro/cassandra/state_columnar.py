"""Columnar (struct-of-arrays) gossip endpoint state.

One object per (observer, endpoint) pair is N^2 objects at N nodes --
half a gigabyte at N=256, and N=2048 (4.2M pairs) does not fit on one
machine.  The gossip state is therefore kept columnarly:

* :class:`SharedClusterState` -- one per cluster: the endpoint-name
  registry (name -> dense integer ``gid``), the interned app-state
  tables (each distinct *set* of versioned application states exists
  once, cluster-wide, as an :class:`InternedAppStates` record carrying
  its precomputed wire tuple, max version, STATUS and TOKENS), and the
  shared digest table (one :class:`~repro.cassandra.state.GossipDigest`
  per distinct ``(endpoint, generation, max_version)``, shared by every
  observer instead of N copies; two generations bound it).  It also
  carries the pool of ring token tables
  (:class:`~repro.cassandra.ring.TokenTable`) its nodes share by content.
* :class:`EstablishedView` -- one per established cluster: what every
  observer of an all-NORMAL membership knows about every member, built
  once and bulk-loaded into each store instead of applied pair by pair.
* :class:`ColumnarEndpointStore` -- one per observer: dense arrays
  indexed by gid (generation, heartbeat version, update timestamp,
  alive flag, liveness bits) plus one reference per row into the interned
  app table.  An absent endpoint is ``generation == -1``; rows are never
  removed.
* :class:`EndpointStateView` / :class:`ColumnarStateMap` /
  :class:`LivenessView` -- on-demand proxies giving cold paths (cluster
  assembly, storage liveness checks, tests) a per-endpoint object, a
  mapping of them, and the live and unreachable sets.  The hot gossip
  loops in :mod:`repro.cassandra.gossip` read the columns directly.

Interning exploits what gossip converges *to*: across 4.2M pairs there
are only about N distinct app-state sets in flight, so per-row cost
collapses to ~40 bytes of columns plus two shared references.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping, MutableSet
from itertools import compress
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .ring import TablePool, new_table_pool
from .state import STATUS, STATUS_NORMAL, TOKENS, GossipDigest, VersionedValue

#: A row's bits in :attr:`ColumnarEndpointStore.liveness`: the observer
#: believes the endpoint alive, and has convicted it.
LIVE = 1
UNREACHABLE = 2

#: ``column.translate(_HAS[bit])`` is 1 where a row has ``bit``, else 0;
#: ``column.translate(_WITH[bit])`` is every row with ``bit`` set.
_HAS = {bit: bytes(1 if byte & bit else 0 for byte in range(256))
        for bit in (LIVE, UNREACHABLE)}
_WITH = {bit: bytes(byte | bit for byte in range(256))
         for bit in (LIVE, UNREACHABLE)}


class InternedAppStates:
    """One distinct application-state set, interned cluster-wide.

    Carries every value the hot paths derive from the set, computed once
    at intern time instead of memoized per (observer, endpoint) row:
    the sorted ``(key, VersionedValue)`` items, the wire-format tuple,
    the max app version, and the STATUS / TOKENS projections.
    """

    __slots__ = ("items", "wire", "max_app", "status", "tokens_payload")

    def __init__(self, items: Tuple[Tuple[str, VersionedValue], ...]) -> None:
        self.items = items
        self.wire = tuple(
            (key, value.value, value.version, value.payload)
            for key, value in items
        )
        max_app = 0
        status: Optional[str] = None
        tokens_payload: Optional[tuple] = None
        for key, value in items:
            if value.version > max_app:
                max_app = value.version
            if key == STATUS:
                status = value.value
            elif key == TOKENS:
                tokens_payload = value.payload
        self.max_app = max_app
        self.status = status
        self.tokens_payload = tokens_payload


class SharedClusterState:
    """Cluster-wide shared tables behind every columnar observer."""

    __slots__ = ("registry", "names", "_app_table", "_digest_table",
                 "_digest_old", "empty_app", "token_tables")

    def __init__(self) -> None:
        #: endpoint name -> dense gid (registration order, append-only).
        self.registry: Dict[str, int] = {}
        #: gid -> endpoint name.
        self.names: List[str] = []
        self._app_table: Dict[tuple, InternedAppStates] = {}
        #: Digests interned lately, and the generation before them: every
        #: heartbeat makes a new key and nothing retires one, so the young
        #: table is aged out at 16 entries per known endpoint.
        self._digest_table: Dict[tuple, GossipDigest] = {}
        self._digest_old: Dict[tuple, GossipDigest] = {}
        self.empty_app = self.intern_items(())
        #: The ring token maps of this cluster's nodes, one per content.
        self.token_tables: TablePool = new_table_pool()

    def gid(self, name: str) -> int:
        """The dense id for ``name``, registering it on first use."""
        gid = self.registry.get(name)
        if gid is None:
            gid = self.registry[name] = len(self.names)
            self.names.append(name)
        return gid

    def intern_items(
        self, items: Tuple[Tuple[str, VersionedValue], ...]
    ) -> InternedAppStates:
        """The interned record for a sorted ``(key, value)`` item tuple."""
        record = self._app_table.get(items)
        if record is None:
            record = self._app_table[items] = InternedAppStates(items)
        return record

    def intern_wire(self, wire: tuple) -> InternedAppStates:
        """The interned record for a wire-format app-items tuple.

        Wire tuples produced by ``to_blob``/``delta_blob`` are key-sorted
        already; hand-built test blobs may not be, so sortedness is
        checked (cheap: blobs carry at most a handful of items).
        """
        items = tuple(
            (key, VersionedValue(value, version, payload))
            for key, value, version, payload in wire
        )
        keys = [key for key, __ in items]
        if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
            items = tuple(sorted(items))
        record = self._app_table.get(items)
        if record is None:
            record = self._app_table[items] = InternedAppStates(items)
        return record

    def intern_digest(self, endpoint: str, generation: int,
                      max_version: int) -> GossipDigest:
        """One shared digest per distinct (endpoint, generation, max).

        A hit is one probe of the young generation.  A miss falls back to
        the old generation before constructing, and lands in the young
        one; when that reaches 16 entries per known endpoint it becomes
        the old generation and a fresh one starts.
        """
        key = (endpoint, generation, max_version)
        digest = self._digest_table.get(key)
        if digest is None:
            digest = self._digest_old.get(key)
            if digest is None:
                digest = GossipDigest(endpoint, generation, max_version)
            if len(self._digest_table) >= 16 * len(self.names):
                self._digest_old = self._digest_table
                self._digest_table = {}
            self._digest_table[key] = digest
        return digest


class EstablishedView:
    """An established, all-NORMAL membership as every observer knows it.

    Applying N blobs to N observers one pair at a time builds the same
    columns N times over.  The view builds them once -- registering the
    members' gids in ``blobs`` order (members already registered keep
    their gid), interning each member's app states once -- and every
    observer bulk-copies them (:meth:`repro.cassandra.gossip.Gossiper.
    load_established`).

    The bulk load skips the per-endpoint STATUS notifications, so the view
    vouches for what they would have done: every member is NORMAL with
    tokens, the registry holds the members and nothing else (no holes in
    the columns), and no two members share a token (pair-by-pair, each
    observer's own tokens win such a tie, which no shared ring template
    can reproduce).  Anything else raises ``ValueError``.
    """

    __slots__ = ("shared", "names", "gids", "generation", "hb_version",
                 "app")

    def __init__(self, shared: SharedClusterState,
                 blobs: Mapping[str, tuple]) -> None:
        self.shared = shared
        #: Members in ``blobs`` order, and their gids in the same order.
        self.names: List[str] = list(blobs)
        self.gids = array("q", [shared.gid(name) for name in self.names])
        size = len(shared.names)
        if size != len(self.names):
            raise ValueError(
                f"established view of {len(self.names)} members over a "
                f"registry of {size} endpoints")
        #: gid-indexed template columns.
        self.generation = array("q", (0,)) * size
        self.hb_version = array("q", (0,)) * size
        self.app: List[InternedAppStates] = [shared.empty_app] * size
        owners: Dict[int, str] = {}
        claim = owners.setdefault
        for gid, (name, blob) in zip(self.gids, blobs.items()):
            generation, hb_version, wire = blob
            record = shared.intern_wire(wire)
            if record.status != STATUS_NORMAL or not record.tokens_payload:
                raise ValueError(f"{name} is not a NORMAL token owner")
            for token in record.tokens_payload:
                owner = claim(token, name)
                if owner != name:
                    raise ValueError(
                        f"{owner} and {name} share token {token}")
            self.generation[gid] = generation
            self.hb_version[gid] = hb_version
            self.app[gid] = record

    def tokens(self, name: str) -> Tuple[int, ...]:
        """The tokens member ``name`` owns."""
        return self.app[self.shared.registry[name]].tokens_payload


class ColumnarEndpointStore:
    """One observer's per-endpoint state, as dense gid-indexed columns."""

    __slots__ = ("shared", "generation", "hb_version", "update_ts", "alive",
                 "liveness", "liveness_sizes", "liveness_mutations",
                 "app", "digest_cache", "order_names", "order_gids",
                 "present", "on_access")

    def __init__(self, shared: SharedClusterState) -> None:
        self.shared = shared
        #: -1 == endpoint unknown to this observer.
        self.generation = array("q")
        self.hb_version = array("q")
        self.update_ts = array("d")
        self.alive = bytearray()
        #: The gossiper's live and unreachable sets as :data:`LIVE` and
        #: :data:`UNREACHABLE` bits per row (a direct writer can set both).
        #: ``liveness_sizes[bit]`` is each set's size, and
        #: ``liveness_mutations`` counts every change to either, so sorted
        #: views of the sets are cached on it.
        self.liveness = bytearray()
        self.liveness_sizes = array("q", (0, 0, 0))
        self.liveness_mutations = 0
        #: gid -> InternedAppStates (None while absent).
        self.app: List[Optional[InternedAppStates]] = []
        #: gid -> memoized shared digest (None == recompute).
        self.digest_cache: List[Optional[GossipDigest]] = []
        #: Discovery order (it leaks into ACK payload ordering and hence
        #: flap ordering).
        self.order_names: List[str] = []
        self.order_gids = array("q")
        self.present = 0
        #: Sanitizer hook, called with "r" for a read through the
        #: :class:`ColumnarStateMap` facade (one per name its
        #: ``delta_blobs`` looks up, as ``get`` would) and "w" when a row
        #: is materialized or replaced by a restarted incarnation; the
        #: per-digest and per-heartbeat loops never consult it.
        self.on_access: Optional[Callable[[str], None]] = None

    def ensure_capacity(self, gid: int) -> None:
        """Grow the columns to cover ``gid`` (registry grew)."""
        missing = gid + 1 - len(self.generation)
        if missing > 0:
            self.generation.extend(array("q", (-1,)) * missing)
            self.hb_version.extend(array("q", (0,)) * missing)
            self.update_ts.extend(array("d", (0.0,)) * missing)
            self.alive.extend(b"\x00" * missing)
            self.liveness.extend(bytes(missing))
            self.app.extend([None] * missing)
            self.digest_cache.extend([None] * missing)

    def insert(self, name: str, gid: int, generation: int, hb_version: int,
               record: InternedAppStates, now: float) -> None:
        """Materialize a previously absent endpoint row."""
        if self.on_access is not None:
            self.on_access("w")
        self.generation[gid] = generation
        self.hb_version[gid] = hb_version
        self.update_ts[gid] = now
        self.alive[gid] = 1
        self.app[gid] = record
        self.digest_cache[gid] = None
        self.order_names.append(name)
        self.order_gids.append(gid)
        self.present += 1

    def load_established(self, view: EstablishedView,
                         now: float) -> List[str]:
        """Materialize every member of ``view`` at once, at time ``now``.

        The store must hold one row, its owner's, and that row must be what
        ``view`` says about the owner; it keeps its update timestamp.
        Leaves the store as one :meth:`insert` per other member in
        ``view.names`` order would, and returns those members.
        """
        if view.shared is not self.shared or self.present != 1:
            raise ValueError("bulk load needs a store holding one row of "
                             "the view's cluster")
        owner = self.order_names[0]
        own_gid = self.order_gids[0]
        if (view.generation[own_gid] != self.generation[own_gid]
                or view.hb_version[own_gid] != self.hb_version[own_gid]
                or view.app[own_gid] is not self.app[own_gid]):
            raise ValueError(f"{owner}'s own row is not what the view holds")
        names = view.names
        index = names.index(owner)
        if self.on_access is not None:
            self.on_access("w")
        size = len(names)
        own_update_ts = self.update_ts[own_gid]
        self.generation = array("q", view.generation)
        self.hb_version = array("q", view.hb_version)
        self.update_ts = array("d", (now,)) * size
        self.update_ts[own_gid] = own_update_ts
        self.alive = bytearray(b"\x01") * size
        self.liveness.extend(bytes(size - len(self.liveness)))
        self.app = list(view.app)
        self.digest_cache = [None] * size
        peers = names[:index] + names[index + 1:]
        self.order_names.extend(peers)
        self.order_gids.extend(view.gids[:index])
        self.order_gids.extend(view.gids[index + 1:])
        self.present = size
        return peers


    def mark(self, gid: int, bit: int) -> None:
        """Set liveness ``bit`` on row ``gid``."""
        liveness = self.liveness
        if not liveness[gid] & bit:
            liveness[gid] |= bit
            self.liveness_sizes[bit] += 1
            self.liveness_mutations += 1

    def unmark(self, gid: int, bit: int) -> None:
        """Clear liveness ``bit`` on row ``gid``."""
        liveness = self.liveness
        if liveness[gid] & bit:
            liveness[gid] &= ~bit
            self.liveness_sizes[bit] -= 1
            self.liveness_mutations += 1

    def mark_all(self, bit: int, but: int) -> None:
        """Set liveness ``bit`` on every row except gid ``but``."""
        liveness = self.liveness
        kept = liveness[but]
        liveness[:] = liveness.translate(_WITH[bit])
        liveness[but] = kept
        self.liveness_sizes[bit] = (
            len(liveness) - liveness.translate(_HAS[bit]).count(0))
        self.liveness_mutations += 1

    def holding(self, bit: int) -> List[str]:
        """The names of the rows with liveness ``bit``, in gid order."""
        return list(compress(self.shared.names,
                             self.liveness.translate(_HAS[bit])))


class LivenessView(MutableSet):
    """One liveness bit of a store as a set of endpoint names.

    The gossiper's ``live_endpoints`` and ``unreachable_endpoints``:
    iterates in gid order, and adding an unregistered name registers it.
    """

    __slots__ = ("_store", "_bit")

    def __init__(self, store: ColumnarEndpointStore, bit: int) -> None:
        self._store = store
        self._bit = bit

    def __contains__(self, name: object) -> bool:
        liveness = self._store.liveness
        gid = self._store.shared.registry.get(name)
        return (gid is not None and gid < len(liveness)
                and bool(liveness[gid] & self._bit))

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.holding(self._bit))

    def __len__(self) -> int:
        return self._store.liveness_sizes[self._bit]

    def add(self, name: str) -> None:
        gid = self._store.shared.gid(name)
        self._store.ensure_capacity(gid)
        self._store.mark(gid, self._bit)

    def discard(self, name: str) -> None:
        gid = self._store.shared.registry.get(name)
        if gid is not None and gid < len(self._store.liveness):
            self._store.unmark(gid, self._bit)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class HeartBeatView:
    """Write-through proxy for one row's ``(generation, version)`` pair."""

    __slots__ = ("_store", "_gid")

    def __init__(self, store: ColumnarEndpointStore, gid: int) -> None:
        self._store = store
        self._gid = gid

    @property
    def generation(self) -> int:
        """Generation (bumps on restart)."""
        return self._store.generation[self._gid]

    @generation.setter
    def generation(self, value: int) -> None:
        self._store.generation[self._gid] = value
        self._store.digest_cache[self._gid] = None

    @property
    def version(self) -> int:
        """Heartbeat version (bumps on beat)."""
        return self._store.hb_version[self._gid]

    @version.setter
    def version(self, value: int) -> None:
        self._store.hb_version[self._gid] = value
        self._store.digest_cache[self._gid] = None

    def beat(self, versions) -> None:
        """Advance the heartbeat version."""
        self._store.hb_version[self._gid] = versions.next()
        self._store.digest_cache[self._gid] = None


class EndpointStateView:
    """One observer's view of one endpoint, as a proxy over a store row.

    Built on demand by cold paths; the hot gossip loops read the columns
    directly and never allocate one of these.
    """

    __slots__ = ("_store", "_gid")

    def __init__(self, store: ColumnarEndpointStore, gid: int) -> None:
        self._store = store
        self._gid = gid

    @property
    def heartbeat(self) -> HeartBeatView:
        """Write-through heartbeat proxy."""
        return HeartBeatView(self._store, self._gid)

    @property
    def update_timestamp(self) -> float:
        """Observer-local last-update time."""
        return self._store.update_ts[self._gid]

    @update_timestamp.setter
    def update_timestamp(self, value: float) -> None:
        self._store.update_ts[self._gid] = value

    @property
    def alive(self) -> bool:
        """Observer-local liveness flag."""
        return bool(self._store.alive[self._gid])

    @alive.setter
    def alive(self, value: bool) -> None:
        self._store.alive[self._gid] = 1 if value else 0

    @property
    def app_states(self) -> Mapping:
        """Read-only snapshot of the application states.

        Mutations belong on the gossiper (``set_app_state`` /
        ``_apply_state``), which re-interns; writing into this snapshot
        raises ``TypeError``.
        """
        return MappingProxyType(dict(self._store.app[self._gid].items))

    def status(self) -> Optional[str]:
        """The STATUS application-state value, if any (O(1))."""
        return self._store.app[self._gid].status

    def tokens(self) -> Optional[Tuple[int, ...]]:
        """The gossiped token tuple, if any."""
        return self._store.app[self._gid].tokens_payload

    def max_version(self) -> int:
        """Largest version across heartbeat and app states (O(1))."""
        hb_version = self._store.hb_version[self._gid]
        max_app = self._store.app[self._gid].max_app
        return hb_version if hb_version > max_app else max_app

    def digest(self, endpoint: str) -> GossipDigest:
        """This row's shared digest (memoized per row)."""
        store = self._store
        gid = self._gid
        digest = store.digest_cache[gid]
        if digest is None or digest[0] != endpoint:
            digest = store.shared.intern_digest(
                endpoint, store.generation[gid], self.max_version())
            store.digest_cache[gid] = digest
        return digest

    def to_blob(self) -> tuple:
        """Serializable full-state snapshot (no local bookkeeping)."""
        store = self._store
        gid = self._gid
        return (store.generation[gid], store.hb_version[gid],
                store.app[gid].wire)

    def delta_blob(self, newer_than: int) -> tuple:
        """Snapshot carrying only app states newer than ``newer_than``."""
        store = self._store
        gid = self._gid
        return (
            store.generation[gid],
            store.hb_version[gid],
            tuple(entry for entry in store.app[gid].wire
                  if entry[2] > newer_than),
        )

    def __repr__(self) -> str:
        store = self._store
        gid = self._gid
        name = store.shared.names[gid] if gid < len(store.shared.names) else "?"
        return (f"EndpointStateView({name!r}, gen={store.generation[gid]}, "
                f"version={store.hb_version[gid]})")


class ColumnarStateMap(Mapping):
    """Dict-shaped read facade over a :class:`ColumnarEndpointStore`.

    Iteration follows discovery order because ACK payload construction
    iterates in it and the ordering reaches the wire (and, through
    application order on the receiver, the flap-event log).
    """

    __slots__ = ("_store",)

    def __init__(self, store: ColumnarEndpointStore) -> None:
        self._store = store

    def track_accesses(self, report: Callable[[str], None]) -> None:
        """Report this map's reads ("r") and row writes ("w") from now on."""
        self._store.on_access = report

    def __len__(self) -> int:
        store = self._store
        if store.on_access is not None:
            store.on_access("r")
        return store.present

    def __iter__(self) -> Iterator[str]:
        store = self._store
        if store.on_access is not None:
            store.on_access("r")
        return iter(store.order_names)

    def __contains__(self, name: object) -> bool:
        store = self._store
        if store.on_access is not None:
            store.on_access("r")
        gid = store.shared.registry.get(name)
        return (gid is not None and gid < len(store.generation)
                and store.generation[gid] >= 0)

    def __getitem__(self, name: str) -> EndpointStateView:
        store = self._store
        if store.on_access is not None:
            store.on_access("r")
        gid = store.shared.registry.get(name)
        if (gid is None or gid >= len(store.generation)
                or store.generation[gid] < 0):
            raise KeyError(name)
        return EndpointStateView(store, gid)

    def get(self, name: str, default=None):
        """O(1) lookup returning a fresh view (or ``default``)."""
        store = self._store
        if store.on_access is not None:
            store.on_access("r")
        gid = store.shared.registry.get(name)
        if (gid is None or gid >= len(store.generation)
                or store.generation[gid] < 0):
            return default
        return EndpointStateView(store, gid)

    def delta_blobs(self, requests: Iterable[Tuple[str, int]]
                    ) -> Dict[str, tuple]:
        """The delta blob of every known name in ``requests``, by name.

        Equals ``{name: self.get(name).delta_blob(newer_than) for name,
        newer_than in requests if name in self}``, reporting one "r" per
        request as those ``get`` calls do, but reads the columns instead of
        building a view per name.  A request at or above the row's max app
        version gets the empty delta ``()`` without scanning the wire tuple.
        """
        store = self._store
        on_access = store.on_access
        registry_get = store.shared.registry.get
        gen_col = store.generation
        hb_col = store.hb_version
        app_col = store.app
        known = len(gen_col)
        blobs: Dict[str, tuple] = {}
        for name, newer_than in requests:
            if on_access is not None:
                on_access("r")
            gid = registry_get(name)
            if gid is None or gid >= known or gen_col[gid] < 0:
                continue
            record = app_col[gid]
            blobs[name] = (
                gen_col[gid], hb_col[gid],
                () if newer_than >= record.max_app else
                tuple(entry for entry in record.wire
                      if entry[2] > newer_than))
        return blobs
