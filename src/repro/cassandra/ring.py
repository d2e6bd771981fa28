"""``TokenMetadata``: the mutable ring table each node maintains.

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
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from .tokens import Ring, TokenRange, stable_hash64


def _entry_hash(kind: str, token: int, endpoint: str) -> int:
    return stable_hash64(f"{kind}:{token}:{endpoint}")


def _endpoint_hash(kind: str, endpoint: str) -> int:
    return stable_hash64(f"{kind}:{endpoint}")


class TokenMetadata:
    """Ring table: normal/bootstrapping/leaving membership state."""

    def __init__(self) -> None:
        self.token_to_endpoint: Dict[int, str] = {}
        self.bootstrap_tokens: Dict[int, str] = {}
        self.leaving_endpoints: Set[str] = set()
        #: endpoint -> its pending (incoming) ranges; set by the calculator.
        self.pending_ranges: Dict[str, List[TokenRange]] = {}
        self._content_hash = 0

    # -- content hash ---------------------------------------------------------

    @property
    def content_hash(self) -> int:
        """Order-independent hash of membership-relevant content.

        XOR of per-entry stable hashes, maintained incrementally (O(1) per
        mutation).  Stable across processes and runs, unlike ``hash()``.
        """
        return self._content_hash

    def __memo_key__(self) -> str:
        """Content key used by PIL instrumentation (:mod:`repro.core.pilfunc`)."""
        return f"ring:{self._content_hash:016x}"

    # -- mutation --------------------------------------------------------------

    def update_normal_tokens(self, endpoint: str, tokens: Iterable[int]) -> None:
        """Make ``endpoint`` the normal owner of ``tokens``.

        Clears any bootstrap/leaving state for the endpoint first, mirroring
        Cassandra's handling of a node reaching NORMAL status.
        """
        self.remove_bootstrap_tokens_for(endpoint)
        self.remove_leaving_endpoint(endpoint)
        for token in tokens:
            previous = self.token_to_endpoint.get(token)
            if previous == endpoint:
                continue
            if previous is not None:
                self._content_hash ^= _entry_hash("normal", token, previous)
            self.token_to_endpoint[token] = endpoint
            self._content_hash ^= _entry_hash("normal", token, endpoint)

    def load_normal_ring(self, ring: "TokenMetadata") -> None:
        """Adopt the normal ownership of ``ring``, a table holding only that.

        For a table holding nothing but normal tokens that ``ring`` holds
        too (a node that so far knows its own): equivalent to
        :meth:`update_normal_tokens` per endpoint in ``ring``'s order, as
        one dict update.  Entries already here keep their position and the
        rest follow in ``ring``'s order; the content hash is an XOR over the
        entries, hence equal to ``ring``'s.
        """
        if self.bootstrap_tokens or self.leaving_endpoints:
            raise ValueError("bulk ring load onto in-flight membership state")
        self.token_to_endpoint.update(ring.token_to_endpoint)
        if len(self.token_to_endpoint) != len(ring.token_to_endpoint):
            raise ValueError("bulk ring load onto tokens the ring lacks")
        self._content_hash = ring._content_hash

    def add_bootstrap_tokens(self, endpoint: str, tokens: Iterable[int]) -> None:
        """Mark ``tokens`` as being bootstrapped by ``endpoint``."""
        for token in tokens:
            previous = self.bootstrap_tokens.get(token)
            if previous == endpoint:
                continue
            if previous is not None:
                self._content_hash ^= _entry_hash("boot", token, previous)
            self.bootstrap_tokens[token] = endpoint
            self._content_hash ^= _entry_hash("boot", token, endpoint)

    def remove_bootstrap_tokens_for(self, endpoint: str) -> None:
        """Clear all bootstrap tokens owned by ``endpoint``."""
        for token in [t for t, e in self.bootstrap_tokens.items() if e == endpoint]:
            self._content_hash ^= _entry_hash("boot", token, endpoint)
            del self.bootstrap_tokens[token]

    def add_leaving_endpoint(self, endpoint: str) -> None:
        """Mark ``endpoint`` as leaving the ring."""
        if endpoint not in self.leaving_endpoints:
            self.leaving_endpoints.add(endpoint)
            self._content_hash ^= _endpoint_hash("leaving", endpoint)

    def remove_leaving_endpoint(self, endpoint: str) -> None:
        """Clear ``endpoint``'s leaving mark."""
        if endpoint in self.leaving_endpoints:
            self.leaving_endpoints.discard(endpoint)
            self._content_hash ^= _endpoint_hash("leaving", endpoint)

    def remove_endpoint(self, endpoint: str) -> None:
        """Remove all trace of ``endpoint`` (it has LEFT the ring)."""
        for token in [t for t, e in self.token_to_endpoint.items() if e == endpoint]:
            self._content_hash ^= _entry_hash("normal", token, endpoint)
            del self.token_to_endpoint[token]
        self.remove_bootstrap_tokens_for(endpoint)
        self.remove_leaving_endpoint(endpoint)
        self.pending_ranges.pop(endpoint, None)

    def set_pending_ranges(self, pending: Dict[str, List[TokenRange]]) -> None:
        """Install calculator output (pending ranges are derived state and do
        not feed the content hash)."""
        self.pending_ranges = pending

    # -- queries ----------------------------------------------------------------

    def ring(self) -> Ring:
        """Snapshot of current normal ownership."""
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
        return sorted(set(self.token_to_endpoint.values()))

    def bootstrapping_endpoints(self) -> List[str]:
        """Sorted endpoints currently bootstrapping."""
        return sorted(set(self.bootstrap_tokens.values()))

    def endpoint_tokens(self, endpoint: str) -> List[int]:
        """Sorted tokens normally owned by ``endpoint``."""
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
        instead of being held for the whole calculation.
        """
        clone = TokenMetadata()
        clone.token_to_endpoint = dict(self.token_to_endpoint)
        clone.bootstrap_tokens = dict(self.bootstrap_tokens)
        clone.leaving_endpoints = set(self.leaving_endpoints)
        clone._content_hash = self._content_hash
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
