"""``TokenMetadata``: the ring table each node maintains.

This mirrors Cassandra's ``TokenMetadata``: normal token ownership plus
in-flight membership state (bootstrapping tokens, leaving endpoints) and the
computed *pending ranges*.  Two details exist specifically because of the
bugs under study:

* :meth:`TokenMetadata.clone_only_token_map` -- the CASSANDRA-5456 fix
  clones the ring table so the pending-range calculation can release the
  shared lock early;
* ``content_hash`` -- an incrementally maintained, order-independent,
  process-stable hash of the membership-relevant content.  It is the
  memoization key for the pending-range calculation (the paper's
  "deterministic output on a given input" rule): two nodes whose ring tables
  have converged to the same content produce identical pending ranges, so
  one recorded computation serves the whole cluster.

The same convergence makes the two token maps one object per distinct
content: each map is a :class:`TokenTable` interned in a pool (one per
cluster) under its per-kind XOR hash, shared copy-on-write by every table
holding that content.  A change first looks its resulting hash up in the
pool and adopts the table found there; only a miss writes, in place when no
other table holds the map and into a copy otherwise.

Membership questions (who owns tokens, who is bootstrapping, is this a fresh
bootstrap) are answered from per-endpoint token counts kept next to the two
token maps, in O(endpoints) rather than O(tokens): every node asks them on
every calculation trigger.
"""

from __future__ import annotations

from functools import lru_cache
from typing import (Dict, FrozenSet, Iterable, List, MutableMapping, Optional,
                    Set, Tuple)
from weakref import WeakValueDictionary

from .tokens import Ring, TokenRange, stable_hash64


def _entry_hash(kind: str, token: int, endpoint: str) -> int:
    return stable_hash64(f"{kind}:{token}:{endpoint}")


def _endpoint_hash(kind: str, endpoint: str) -> int:
    return stable_hash64(f"{kind}:{endpoint}")


@lru_cache(maxsize=256)
def _set_hash(kind: str, endpoint: str, tokens: FrozenSet[int]) -> int:
    """XOR of :func:`_entry_hash` over ``tokens``, computed once per process.

    Every node learns the same token sets from gossip, so without the memo a
    cluster of N nodes hashes each set N times.  At 256 vnodes a key holds
    ~8 kB, so a full memo stays near 2 MB.
    """
    value = 0
    for token in tokens:
        value ^= _entry_hash(kind, token, endpoint)
    return value


class TokenTable:
    """One token map and its per-endpoint counts, shared by content.

    ``holders`` counts the :class:`TokenMetadata` holding the table (never
    fewer than are alive); the maps are written only while it is 1.  The
    sorted :class:`~repro.cassandra.tokens.Ring` snapshot of ``owners`` is
    built on first use and dropped by a write.
    """

    __slots__ = ("owners", "counts", "holders", "_ring", "__weakref__")

    def __init__(self, owners: Dict[int, str], counts: Dict[str, int]) -> None:
        self.owners = owners
        self.counts = counts
        self.holders = 0
        self._ring: Optional[Ring] = None

    def ring(self) -> Ring:
        """The shared, read-only snapshot of ``owners``."""
        if self._ring is None:
            self._ring = Ring(self.owners.items())
        return self._ring


#: ``(kind, per-kind hash) -> TokenTable``; a table no metadata holds drops
#: out by itself.
TablePool = MutableMapping[Tuple[str, int], TokenTable]


def new_table_pool() -> TablePool:
    """An empty pool: one per cluster, handed to every table it builds."""
    return WeakValueDictionary()


class TokenMetadata:
    """Ring table: normal/bootstrapping/leaving membership state."""

    def __init__(self, pool: Optional[TablePool] = None) -> None:
        self.token_to_endpoint: Dict[int, str] = {}
        self.bootstrap_tokens: Dict[int, str] = {}
        self.leaving_endpoints: Set[str] = set()
        #: endpoint -> its pending (incoming) ranges; set by the calculator.
        self.pending_ranges: Dict[str, List[TokenRange]] = {}
        #: endpoint -> number of tokens it owns in ``token_to_endpoint`` /
        #: ``bootstrap_tokens``; only endpoints owning at least one appear.
        self._normal_counts: Dict[str, int] = {}
        self._boot_counts: Dict[str, int] = {}
        #: XOR hashes of the two maps and of the leaving set.
        self._normal_hash = self._boot_hash = self._leaving_hash = 0
        self._pool = pool if pool is not None else new_table_pool()
        #: The pooled tables behind the two maps; None while a map is this
        #: table's own (a fresh one, or one the sanitizer tracks).
        self._normal: Optional[TokenTable] = None
        self._boot: Optional[TokenTable] = None

    # -- content hash ---------------------------------------------------------

    @property
    def content_hash(self) -> int:
        """Order-independent hash of membership-relevant content.

        XOR of per-entry stable hashes, maintained incrementally (O(1) per
        mutation).  Stable across processes and runs, unlike ``hash()``.
        """
        return self._normal_hash ^ self._boot_hash ^ self._leaving_hash

    # -- the pooled maps --------------------------------------------------------

    def _state(self, kind: str) -> Tuple[Optional[TokenTable], Dict[int, str],
                                         Dict[str, int], int]:
        """``(table, map, counts, hash)`` of the ``kind`` map."""
        if kind == "normal":
            return (self._normal, self.token_to_endpoint, self._normal_counts,
                    self._normal_hash)
        return (self._boot, self.bootstrap_tokens, self._boot_counts,
                self._boot_hash)

    def _set(self, kind: str, table: Optional[TokenTable],
             owners: Dict[int, str], counts: Dict[str, int],
             value: int) -> None:
        """Make ``owners``/``counts`` (``table``'s, if any) the ``kind`` map."""
        held = self._normal if kind == "normal" else self._boot
        if held is not table:
            if held is not None:
                held.holders -= 1
            if table is not None:
                table.holders += 1
        if kind == "normal":
            self._normal, self.token_to_endpoint = table, owners
            self._normal_counts, self._normal_hash = counts, value
        else:
            self._boot, self.bootstrap_tokens = table, owners
            self._boot_counts, self._boot_hash = counts, value

    def _writable(self, kind: str, delta: int
                  ) -> Optional[Tuple[Dict[int, str], Dict[str, int]]]:
        """Prepare the ``kind`` map for a change that moves its hash by
        ``delta``: the ``(map, counts)`` to write it into, or None when the
        pool already holds the changed content (that table is adopted, and
        nothing is copied).

        Otherwise the change is written in place if no other table holds
        the map, and into a copy if one does; either way the result is
        pooled under its new hash before the caller writes it.  A map that
        is not a plain ``dict`` (the sanitizer's tracked wrapper) is never
        pooled, published or replaced: it is written in place.
        """
        table, owners, counts, old = self._state(kind)
        value = old ^ delta
        if type(owners) is not dict:
            self._set(kind, None, owners, counts, value)
            return owners, counts
        pool = self._pool
        found = pool.get((kind, value))
        if found is not None:
            self._set(kind, found, found.owners, found.counts, value)
            return None
        if table is None:
            table = TokenTable(owners, counts)
        elif table.holders == 1 and pool.get((kind, old)) is table:
            del pool[kind, old]
            table._ring = None
        else:
            table = TokenTable(dict(owners), dict(counts))
        pool[kind, value] = table
        self._set(kind, table, table.owners, table.counts, value)
        return table.owners, table.counts

    # -- mutation --------------------------------------------------------------

    def update_normal_tokens(self, endpoint: str, tokens: Iterable[int]) -> None:
        """Make ``endpoint`` the normal owner of ``tokens``.

        Clears any bootstrap/leaving state for the endpoint first, mirroring
        Cassandra's handling of a node reaching NORMAL status.
        """
        self.remove_bootstrap_tokens_for(endpoint)
        self.remove_leaving_endpoint(endpoint)
        self._add_tokens("normal", self.token_to_endpoint, endpoint, tokens)

    def _add_tokens(self, kind: str, owners: Dict[int, str], endpoint: str,
                    tokens: Iterable[int]) -> None:
        """Make ``endpoint`` the owner of ``tokens`` in ``owners``.

        A set none of whose tokens has an owner yet (a status learned for
        the first time) is inserted whole and hashed through the memo;
        otherwise each token is moved on its own, as ownership transfers
        need.  XOR is order-independent, so both give the same hash.
        """
        added = dict.fromkeys(tokens, endpoint)
        if not added:
            return
        if owners.keys().isdisjoint(added):
            maps = self._writable(
                kind, _set_hash(kind, endpoint, frozenset(added)))
            if maps is not None:
                owners, counts = maps
                owners.update(added)
                counts[endpoint] = counts.get(endpoint, 0) + len(added)
            return
        moves = [(token, owners.get(token)) for token in added]
        moves = [(token, previous) for token, previous in moves
                 if previous != endpoint]
        delta = 0
        for token, previous in moves:
            if previous is not None:
                delta ^= _entry_hash(kind, token, previous)
            delta ^= _entry_hash(kind, token, endpoint)
        maps = self._writable(kind, delta) if moves else None
        if maps is None:
            return
        owners, counts = maps
        for token, previous in moves:
            if previous is not None:
                if counts[previous] == 1:
                    del counts[previous]
                else:
                    counts[previous] -= 1
            owners[token] = endpoint
            counts[endpoint] = counts.get(endpoint, 0) + 1

    def _remove_tokens(self, kind: str, owners: Dict[int, str],
                       counts: Dict[str, int], endpoint: str) -> None:
        """Drop every token ``endpoint`` owns in ``owners`` (O(1) if none)."""
        if endpoint not in counts:
            return
        tokens = [t for t, e in owners.items() if e == endpoint]
        maps = self._writable(
            kind, _set_hash(kind, endpoint, frozenset(tokens)))
        if maps is None:
            return
        owners, counts = maps
        for token in tokens:
            del owners[token]
        del counts[endpoint]

    def load_normal_ring(self, ring: "TokenMetadata") -> None:
        """Adopt the normal ownership of ``ring``, a table holding only that.

        For a table holding nothing but normal tokens that ``ring`` holds
        too (a node that so far knows its own): equivalent to
        :meth:`update_normal_tokens` per endpoint in ``ring``, with the
        content hash equal to ``ring``'s.  The map becomes ``ring``'s
        pooled table, index included: N tables loaded from one template
        hold one map, not N.  A tracked map is filled in place instead.
        """
        if self.bootstrap_tokens or self.leaving_endpoints:
            raise ValueError("bulk ring load onto in-flight membership state")
        if not self.token_to_endpoint.keys() <= ring.token_to_endpoint.keys():
            raise ValueError("bulk ring load onto tokens the ring lacks")
        if type(self.token_to_endpoint) is dict:
            table, owners, counts, value = ring._state("normal")
            if table is None or table.owners is not owners:
                table, owners, counts = None, dict(owners), dict(counts)
            self._set("normal", table, owners, counts, value)
            return
        self.token_to_endpoint.update(ring.token_to_endpoint)
        self._set("normal", None, self.token_to_endpoint,
                  dict(ring._normal_counts), ring._normal_hash)

    def add_bootstrap_tokens(self, endpoint: str, tokens: Iterable[int]) -> None:
        """Mark ``tokens`` as being bootstrapped by ``endpoint``."""
        self._add_tokens("boot", self.bootstrap_tokens, endpoint, tokens)

    def remove_bootstrap_tokens_for(self, endpoint: str) -> None:
        """Clear all bootstrap tokens owned by ``endpoint``."""
        self._remove_tokens("boot", self.bootstrap_tokens, self._boot_counts,
                            endpoint)

    def add_leaving_endpoint(self, endpoint: str) -> None:
        """Mark ``endpoint`` as leaving the ring."""
        if endpoint not in self.leaving_endpoints:
            self.leaving_endpoints.add(endpoint)
            self._leaving_hash ^= _endpoint_hash("leaving", endpoint)

    def remove_leaving_endpoint(self, endpoint: str) -> None:
        """Clear ``endpoint``'s leaving mark."""
        if endpoint in self.leaving_endpoints:
            self.leaving_endpoints.discard(endpoint)
            self._leaving_hash ^= _endpoint_hash("leaving", endpoint)

    def remove_endpoint(self, endpoint: str) -> None:
        """Remove all trace of ``endpoint`` (it has LEFT the ring)."""
        self._remove_tokens("normal", self.token_to_endpoint,
                            self._normal_counts, endpoint)
        self.remove_bootstrap_tokens_for(endpoint)
        self.remove_leaving_endpoint(endpoint)
        if endpoint in self.pending_ranges:
            # Rebound, not popped: the map may be a calculation output
            # shared with other nodes and the output cache.
            self.pending_ranges = {e: ranges for e, ranges
                                   in self.pending_ranges.items()
                                   if e != endpoint}

    def set_pending_ranges(self, pending: Dict[str, List[TokenRange]]) -> None:
        """Install calculator output (pending ranges are derived state and do
        not feed the content hash).  ``pending`` is shared, not copied: the
        same output is installed on every node with the same ring, so this
        table never mutates it."""
        self.pending_ranges = pending

    # -- queries ----------------------------------------------------------------

    def ring(self) -> Ring:
        """Snapshot of current normal ownership: the pooled table's, shared
        and read-only, unless the map is this table's own."""
        table = self._normal
        if table is not None and table.owners is self.token_to_endpoint:
            return table.ring()
        return Ring(self.token_to_endpoint.items())

    def future_ring(self) -> Ring:
        """The ring after all in-flight operations complete: bootstrapping
        endpoints own their tokens, leaving endpoints are gone."""
        future: Dict[int, str] = {
            token: endpoint
            for token, endpoint in self.token_to_endpoint.items()
            if endpoint not in self.leaving_endpoints
        }
        future.update(self.bootstrap_tokens)
        return Ring(future.items())

    def normal_endpoints(self) -> List[str]:
        """Sorted endpoints with normal token ownership."""
        return sorted(self._normal_counts)

    def bootstrapping_endpoints(self) -> List[str]:
        """Sorted endpoints currently bootstrapping."""
        return sorted(self._boot_counts)

    def node_count(self) -> int:
        """Distinct endpoints owning a normal or a bootstrap token."""
        return len(self._normal_counts.keys() | self._boot_counts.keys())

    def is_fresh_bootstrap(self) -> bool:
        """True when tokens are bootstrapping and every normal owner is
        leaving: no established ring survives (the CASSANDRA-6127 trigger)."""
        return (bool(self._boot_counts)
                and self.leaving_endpoints.issuperset(self._normal_counts))

    def endpoint_tokens(self, endpoint: str) -> List[int]:
        """Sorted tokens normally owned by ``endpoint``."""
        if endpoint not in self._normal_counts:
            return []
        return sorted(t for t, e in self.token_to_endpoint.items() if e == endpoint)

    def has_pending_changes(self) -> bool:
        """True while any membership operation is in flight."""
        return bool(self.bootstrap_tokens) or bool(self.leaving_endpoints)

    def token_count(self) -> int:
        """Number of normal tokens in the ring."""
        return len(self.token_to_endpoint)

    def pending_range_count(self) -> int:
        """Total pending ranges across all endpoints."""
        return sum(len(r) for r in self.pending_ranges.values())

    # -- cloning (the C5456 fix) -------------------------------------------------

    def clone_only_token_map(self) -> "TokenMetadata":
        """Deep-copy membership state (not pending ranges).

        This is the fix for CASSANDRA-5456: the pending-range calculation
        works on a clone so the shared ring lock can be released immediately
        instead of being held for the whole calculation.  The copies are
        the clone's own maps; they join the pool at their first write.
        """
        clone = TokenMetadata(self._pool)
        clone.token_to_endpoint = dict(self.token_to_endpoint)
        clone.bootstrap_tokens = dict(self.bootstrap_tokens)
        clone.leaving_endpoints = set(self.leaving_endpoints)
        clone._normal_counts = dict(self._normal_counts)
        clone._boot_counts = dict(self._boot_counts)
        clone._normal_hash = self._normal_hash
        clone._boot_hash = self._boot_hash
        clone._leaving_hash = self._leaving_hash
        return clone

    def recomputed_content_hash(self) -> int:
        """Recompute the content hash from scratch (invariant checking)."""
        value = 0
        for token, endpoint in self.token_to_endpoint.items():
            value ^= _entry_hash("normal", token, endpoint)
        for token, endpoint in self.bootstrap_tokens.items():
            value ^= _entry_hash("boot", token, endpoint)
        for endpoint in self.leaving_endpoints:
            value ^= _endpoint_hash("leaving", endpoint)
        return value
