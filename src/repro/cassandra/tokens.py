"""Tokens, ranges, and the consistent-hashing ring.

A Cassandra-style cluster assigns each node one or more *tokens* on a ring of
64-bit values; a node owns the range between its predecessor's token
(exclusive) and its own token (inclusive).  With virtual nodes (vnodes,
CASSANDRA-3881 era) each physical node takes ``P`` tokens, multiplying the
ring population from ``N`` to ``N x P`` -- which is exactly how the fix for
CASSANDRA-3831 stopped scaling.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import FrozenInstanceError
from functools import total_ordering
from typing import Iterable, List, Sequence, Tuple

#: Tokens live on a ring modulo 2**63 (mirrors Murmur3Partitioner's range
#: magnitude without negative values, which keeps arithmetic simple).
TOKEN_SPACE = 2 ** 63


def stable_hash64(text: str) -> int:
    """A process-independent 63-bit hash (SHA-256 based).

    ``hash()`` is randomized per interpreter run; memoization keys and token
    assignments must be stable across runs for replay to work, so all hashing
    goes through this function.
    """
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % TOKEN_SPACE


def token_for_key(key: str) -> int:
    """Partitioner: map a partition key to its ring token."""
    return stable_hash64("key:" + key)


def tokens_for_node(node_id: str, vnodes: int) -> List[int]:
    """Deterministic token assignment for ``node_id`` with ``vnodes`` tokens.

    Matches Cassandra's random token selection in effect (uniform spread)
    while staying reproducible.
    """
    if vnodes <= 0:
        raise ValueError("vnodes must be positive")
    return sorted(stable_hash64(f"token:{node_id}:{i}") for i in range(vnodes))


@total_ordering
class TokenRange:
    """A half-open ring range ``(left, right]``; wraps when left >= right.

    An immutable record with slots and no per-instance ``__dict__``: a
    pending-range output holds one per range, and a scale check keeps every
    output it computed or replayed.  Equality, ordering, hash and ``repr``
    are the frozen dataclass's it replaced: by ``(left, right)``, and only
    against another ``TokenRange``.
    """

    __slots__ = ("left", "right")

    left: int
    right: int

    def __init__(self, left: int, right: int) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return TokenRange, (self.left, self.right)

    def __repr__(self) -> str:
        return f"TokenRange(left={self.left!r}, right={self.right!r})"

    def __hash__(self) -> int:
        return hash((self.left, self.right))

    def __eq__(self, other):
        if other.__class__ is not TokenRange:
            return NotImplemented
        return (self.left, self.right) == (other.left, other.right)

    def __lt__(self, other):
        if other.__class__ is not TokenRange:
            return NotImplemented
        return (self.left, self.right) < (other.left, other.right)

    @property
    def wraps(self) -> bool:
        """True when the range crosses the ring origin."""
        return self.left >= self.right

    def contains(self, token: int) -> bool:
        """True when ``token`` lies in the half-open range (left, right]."""
        if self.wraps:
            return token > self.left or token <= self.right
        return self.left < token <= self.right

    def width(self) -> int:
        """Size of the range in token units."""
        if self.wraps:
            return TOKEN_SPACE - self.left + self.right
        return self.right - self.left

    def unwrap(self) -> List["TokenRange"]:
        """Split a wrapping range into at most two non-wrapping ranges."""
        if not self.wraps:
            return [self]
        parts = []
        if self.left < TOKEN_SPACE - 1:
            parts.append(TokenRange(self.left, TOKEN_SPACE - 1))
        parts.append(TokenRange(-1, self.right))
        return parts


class Ring:
    """A sorted view over ``token -> endpoint`` assignments.

    Pure data structure: no membership semantics, no pending state.  Those
    live in :class:`repro.cassandra.ring.TokenMetadata`, which produces
    ``Ring`` snapshots for range math.  A snapshot is shared by every table
    holding the same token map, so no caller writes to one.
    """

    def __init__(self, token_to_endpoint: Iterable[Tuple[int, str]]) -> None:
        items = sorted(token_to_endpoint)
        self.tokens: List[int] = [t for t, __ in items]
        self.endpoints: List[str] = [e for __, e in items]
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("duplicate tokens in ring")

    def __len__(self) -> int:
        return len(self.tokens)

    def __bool__(self) -> bool:
        return bool(self.tokens)

    def distinct_endpoints(self) -> List[str]:
        """Sorted distinct endpoints on the ring."""
        return sorted(set(self.endpoints))

    def successor_index(self, token: int) -> int:
        """Index of the first ring token >= ``token`` (wrapping)."""
        if not self.tokens:
            raise ValueError("empty ring")
        idx = bisect.bisect_left(self.tokens, token)
        return idx % len(self.tokens)

    def primary_endpoint(self, token: int) -> str:
        """The endpoint owning ``token`` (its successor on the ring)."""
        return self.endpoints[self.successor_index(token)]

    def natural_endpoints(self, token: int, rf: int) -> List[str]:
        """SimpleStrategy replica placement: walk clockwise collecting
        ``rf`` *distinct* endpoints starting at the owning token."""
        if not self.tokens:
            return []
        return self.replicas_from(self.successor_index(token), rf)

    def replicas_from(self, index: int, rf: int) -> List[str]:
        """The SimpleStrategy walk: the first ``rf`` distinct endpoints
        clockwise from ring position ``index`` (all of them when the ring
        holds fewer)."""
        endpoints = self.endpoints
        head = endpoints[index:index + rf]
        if len(set(head)) == rf:       # the common case: no repeat, no wrap
            return head
        n = len(endpoints)
        result: List[str] = []
        seen = set()
        for step in range(n):
            endpoint = endpoints[(index + step) % n]
            if endpoint not in seen:
                seen.add(endpoint)
                result.append(endpoint)
                if len(result) == rf:
                    break
        return result

    def ranges(self) -> List[TokenRange]:
        """All primary ranges, one per token, in token order."""
        n = len(self.tokens)
        if n == 0:
            return []
        if n == 1:
            # a single token owns the whole ring
            return [TokenRange(self.tokens[0], self.tokens[0])]
        return [
            TokenRange(self.tokens[(i - 1) % n], self.tokens[i]) for i in range(n)
        ]

    def range_to_endpoints(self, rf: int) -> List[Tuple[TokenRange, Tuple[str, ...]]]:
        """Each primary range with its replica set under SimpleStrategy."""
        return [(rng, tuple(self.replicas_from(i, rf)))
                for i, rng in enumerate(self.ranges())]

    def ranges_for_endpoint(self, endpoint: str, rf: int) -> List[TokenRange]:
        """All ranges replicated (not just owned) by ``endpoint``."""
        return [rng for rng, reps in self.range_to_endpoints(rf) if endpoint in reps]


def ownership_fraction(ring: Ring, endpoint: str) -> float:
    """Fraction of the token space primarily owned by ``endpoint``."""
    total = 0
    for i, rng in enumerate(ring.ranges()):
        if ring.endpoints[i] == endpoint:
            total += rng.width()
    return total / TOKEN_SPACE
