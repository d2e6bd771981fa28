"""Pending key-range calculation, in every historical flavor.

When membership changes are in flight (nodes bootstrapping or leaving), each
node computes *pending ranges*: for every endpoint, the token ranges it will
newly replicate once the change completes.  This is Cassandra's
``calculatePendingRanges`` -- the function at the center of the paper's bug
narrative (section 2):

* CASSANDRA-3831: the original implementation is O(M * N^3 * log^3 N) in
  cluster size N and change-list length M; at 200+ nodes it monopolizes the
  GossipStage and live nodes get declared dead.
* The 3831 fix brought it to O(M * N^2 * log^2 N) -- but vnodes
  (CASSANDRA-3881) multiply the token population to N*P, so the same code
  became O(M * (NP)^2 * log^2(NP)) and broke again.
* The 3881 redesign achieves O(M * NP * log^2(NP)).
* CASSANDRA-6127: bootstrapping a large cluster *from scratch* takes a
  different, branch-guarded code path that performs a fresh ring
  construction with O(M * T^2) cost.

This module provides one *semantically correct* computation
(:func:`compute_pending_ranges`) plus a cost model
(:class:`CalculatorVariant`, :func:`calc_cost`) that charges each historical
variant's complexity in virtual time.  The simulator executes the efficient
code for the output (outputs are identical across variants -- that is what
made the fixes possible) while the CPU model is charged the variant's cost;
a PIL replay hit substitutes the memoized output and does not execute it.
An output is held in one compact form (:data:`PendingRanges`) from the
calculation to the replay; its JSON codec is used only on disk.
Literal naive-loop implementations, used as the program-analysis corpus and
as differential-test oracles, live in :mod:`repro.cassandra.legacy_calc`.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain
from typing import Dict, Iterator, List, Tuple

from ..annotations import declare_cost
from .ring import TokenMetadata
from .tokens import Ring, TokenRange

# Cost-model bridge for the static analysis: calc_cost charges virtual CPU
# demand arithmetically (``m * tokens ** 2``), which loop analysis cannot
# see.  The declaration carries the *worst* modeled variant's degrees
# (V1/V3: O(M·T^2)) so any caller invoking the calculation under a lock is
# attributed scale-dependent work.  Per-variant drift checking against the
# exact formulas lives in :mod:`repro.analysis.drift`.
declare_cost("calc_cost", M=1, T=2,
             note="modeled pending-range calculation demand (worst variant)")

#: A calculation output: per endpoint, its pending ``(left, right]`` ranges
#: sorted by ``(left, right)`` and flattened into one ``array('q')``,
#: ``[left0, right0, left1, right1, ...]`` (16 bytes a range).  The ranges
#: of one endpoint are disjoint, so only the last can wrap the origin.
PendingRanges = Dict[str, array]

#: The simulated keyspace's replication factor (SimpleStrategy): every
#: node's calculation and every coordinator's replica walk use it.
REPLICATION_FACTOR = 3


def compute_pending_ranges(metadata: TokenMetadata, rf: int) -> PendingRanges:
    """Correct pending-range computation (reference implementation).

    Replica sets are piecewise-constant between ring-token boundaries, but
    the *current* and *future* rings have different boundary sets (a
    leaving node's tokens exist only in the current ring, a bootstrapping
    node's only in the future one), so the two are compared at the
    **union** of both boundary sets.  A boundary ``u``'s replicas in a ring
    are the SimpleStrategy walk from ``u``'s successor there; any endpoint
    in the future walk but not the current one gains ``u``'s range.

    Only the boundaries whose walk can meet a change are compared.  A
    token is *unchanged* when it sits in both rings with the same owner;
    the *changed* positions are a leaving endpoint's tokens in the current
    ring and every bootstrap token in the future ring.  Proof sketch: take
    a boundary ``u`` and walk both rings from its successors in lockstep.
    While both walks stand on unchanged tokens they stand on the same one:
    a token that is next in one ring and unchanged is in the other too, so
    neither ring has an earlier next token unless that token is changed.
    So the walks read the same owners, and collect the same replicas,
    until one of them meets a token that is not unchanged.  In the
    current ring that is a leaving endpoint's token or a token a joiner
    takes over, and the latter is a bootstrap token the future walk meets
    at the same step.  So if neither walk meets a changed position, ``u``
    gains nothing.  The walk from position ``q`` reaches ``p`` exactly
    when fewer than ``rf`` distinct endpoints sit at ``q..p-1``, so walking
    back from each changed position until ``rf`` distinct endpoints are
    seen gives the positions, and so the token arc of boundaries, whose
    walk can reach it (the whole ring when the ring holds fewer than
    ``rf`` distinct endpoints).  Only the merged arcs are swept: O(changed
    tokens x rf) walks, not one per ring token.

    Pure function of ring content: same input content hash => same output,
    which is exactly the memoizability property PIL relies on.

    Each arc is one merge pass: each ring keeps a forward pointer to the
    successor of the current boundary, and a ring's replica walk is redone
    only when that successor changes.  The arcs are swept in token order,
    so the output is the one a sweep of the whole union would give.  Each
    endpoint's ranges are sorted once and packed into one array
    (:data:`PendingRanges`), the only form the output takes in memory.
    """
    if rf <= 0:
        raise ValueError("replication factor must be positive")
    if not metadata.has_pending_changes():
        return {}
    current = metadata.ring()
    future = metadata.future_ring()
    if not future:
        return {}
    current_tokens, future_tokens = current.tokens, future.tokens
    n_current, n_future = len(current_tokens), len(future_tokens)
    changed_current = metadata.leaving_positions()
    changed_future = [bisect_left(future_tokens, token)
                      for token in metadata.bootstrap_tokens]
    spans = _merged_spans(_reaching_arcs(current, changed_current, rf)
                          + _reaching_arcs(future, changed_future, rf))
    # A span's first range starts at the union token before it, or wraps
    # from the last one.
    last = [max(current_tokens[-1:] + future_tokens[-1:])]
    pending: Dict[str, List[Tuple[int, int]]] = {}
    for lo, hi in spans:
        ci = bisect_right(current_tokens, lo)    # ring tokens below the
        fi = bisect_right(future_tokens, lo)     # span's first boundary
        left = max(current_tokens[ci - 1:ci] + future_tokens[fi - 1:fi]
                   or last)
        boundaries = sorted({
            *current_tokens[ci:bisect_right(current_tokens, hi, ci)],
            *future_tokens[fi:bisect_right(future_tokens, hi, fi)]})
        future_at = -1           # the pointer value the cached walk is for
        current_at = -1 if n_current else 0   # an empty ring's walk stays []
        current_replicas: List[str] = []
        future_replicas: List[str] = []
        for token in boundaries:
            if fi < n_future and future_tokens[fi] < token:
                fi += 1
            if fi != future_at:
                future_at = fi
                future_replicas = future.replicas_from(fi % n_future, rf)
            if ci < n_current and current_tokens[ci] < token:
                ci += 1
            if ci != current_at:
                current_at = ci
                current_replicas = current.replicas_from(ci % n_current, rf)
            if future_replicas != current_replicas:
                bounds = (left, token)
                for endpoint in future_replicas:
                    if endpoint not in current_replicas:
                        pending.setdefault(endpoint, []).append(bounds)
            left = token
    compact = {}
    for endpoint, ranges in pending.items():
        ranges.sort()
        compact[endpoint] = array("q", chain.from_iterable(ranges))
    return compact


#: A span of boundaries ``(lo, hi]``; an open end is an infinity.
Span = Tuple[float, float]

_WHOLE_RING: List[Span] = [(-math.inf, math.inf)]


def _reaching_arcs(ring: Ring, positions: List[int], rf: int) -> List[Span]:
    """The boundary spans whose walk in ``ring`` reaches one of the changed
    ``positions``: for ``p``, back from ``p`` until ``rf`` distinct
    endpoints are seen.  A span that wraps the origin is split in two, and
    a walk that can reach ``p`` from anywhere makes it the whole ring."""
    tokens, endpoints = ring.tokens, ring.endpoints
    arcs: List[Span] = []
    for position in positions:
        seen = set()
        for back in range(1, len(endpoints)):
            seen.add(endpoints[position - back])
            if len(seen) == rf:
                break
        else:
            return _WHOLE_RING
        lo, hi = tokens[position - back], tokens[position]
        if lo < hi:
            arcs.append((lo, hi))
        else:
            arcs += ((lo, math.inf), (-math.inf, hi))
    return arcs


def _merged_spans(spans: List[Span]) -> List[Span]:
    """``spans`` merged where they touch, in token order."""
    merged: List[Span] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


class CalculatorVariant(str, Enum):
    """Historical implementations of the pending-range calculation."""

    #: Pre-3831-fix: O(M * N^3 * log^3 N), N = physical nodes.
    V0_C3831 = "v0-c3831"
    #: The 3831 fix: O(M * T^2 * log^2 T), T = tokens.  With vnodes
    #: (T = N*P) this is the CASSANDRA-3881 bug.
    V1_C3881 = "v1-c3881"
    #: The 3881 redesign: O(M * T * log^2 T).
    V2_VNODE_FIX = "v2-vnode-fix"
    #: The CASSANDRA-6127 fresh-bootstrap path: O(M * T^2).
    V3_BOOTSTRAP_C6127 = "v3-bootstrap-c6127"


@dataclass
class CostConstants:
    """Per-variant cost coefficients (virtual seconds per abstract op).

    Defaults are calibrated so that per-invocation durations land in the
    paper's observed 0.001s-4s band across 32-256 nodes (section 3: "ranges
    from 0.001 to 4 seconds in our test").  The benchmark calibration module
    may override them.
    """

    k0_c3831: float = 4.5e-10
    k1_c3881: float = 3.0e-12
    k2_vnode_fix: float = 2.0e-8
    k3_bootstrap: float = 7.0e-13
    #: Floor so a calculation is never free (parsing, allocation, ...).
    floor: float = 1e-4
    # Ported-fault coefficients (loop-literal corpus in
    # repro.cassandra.ported_faults; runtime charges in repro.cassandra.node).
    # Calibrated for paper scales: latent below ~N=100, manifest at N=256.
    #: zkclose -- per (close message x session-table entry) scan cost.
    k_close_scan: float = 5.4e-4
    #: rhandoff -- per ring-token pair scanned per gossip round.
    k_handoff_scan: float = 4.5e-8
    #: retryamp -- per (retry attempt x digest entry) resend cost.
    k_retry: float = 4.6e-5


DEFAULT_COSTS = CostConstants()


def _log2(x: int) -> float:
    return math.log2(x) if x >= 2 else 1.0


def calc_cost(
    variant: CalculatorVariant,
    nodes: int,
    tokens: int,
    changes: int,
    constants: CostConstants = DEFAULT_COSTS,
) -> float:
    """Virtual-time CPU demand of one calculation.

    Parameters mirror the complexity formulas: ``nodes`` is the physical
    cluster size N, ``tokens`` the ring token population T (= N*P with
    vnodes), ``changes`` the length M of the in-flight change list.
    """
    nodes = max(1, nodes)
    tokens = max(1, tokens)
    m = max(1, changes)
    if variant is CalculatorVariant.V0_C3831:
        cost = constants.k0_c3831 * m * nodes ** 3 * _log2(nodes) ** 3
    elif variant is CalculatorVariant.V1_C3881:
        cost = constants.k1_c3881 * m * tokens ** 2 * _log2(tokens) ** 2
    elif variant is CalculatorVariant.V2_VNODE_FIX:
        cost = constants.k2_vnode_fix * m * tokens * _log2(tokens) ** 2
    elif variant is CalculatorVariant.V3_BOOTSTRAP_C6127:
        cost = constants.k3_bootstrap * m * tokens ** 2
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown variant {variant!r}")
    return max(cost, constants.floor)


def pending_ranges_input_key(metadata: TokenMetadata, rf: int,
                             variant: CalculatorVariant) -> str:
    """Stable memoization key: ring content + parameters.

    Ring tables across nodes converge to identical content during gossip, so
    one recorded (input, output, duration) triple serves every node whose
    table matches -- the reason pre-memoization of one colocated run is
    enough (section 5's "order determinism" bounds the input space; content
    keying collapses identical states).
    """
    return _intern_input_key(variant.value, rf, metadata.content_hash)


@lru_cache(maxsize=4096)
def _intern_input_key(variant_value: str, rf: int, ring_hash: int) -> str:
    """Interned key strings: converged rings hash alike, so replay asks for
    the same handful of keys thousands of times; formatting (and allocating)
    the string once per distinct ring keeps it off the hot path."""
    return f"pending-ranges:{variant_value}:rf={rf}:ring={ring_hash:016x}"


def bounds_contain(bounds: array, token: int) -> bool:
    """True when ``token`` lies in one of the ``(left, right]`` ranges of
    an endpoint's ``bounds`` (see :data:`PendingRanges`): a binary search
    that builds no object per range.

    Apart from a wrapping last range, the bounds are a non-decreasing run,
    and ``token`` lies inside a range exactly when an odd number of them
    are below it.
    """
    end = len(bounds)
    if end and bounds[end - 2] >= bounds[end - 1]:
        end -= 2
        if token > bounds[end] or token <= bounds[end + 1]:
            return True
    return bisect_left(bounds, token, 0, end) % 2 == 1


def _pairs(bounds: array) -> Iterator[Tuple[int, int]]:
    it = iter(bounds)
    return zip(it, it)


def token_ranges(pending: PendingRanges) -> Dict[str, List[TokenRange]]:
    """The ``TokenRange`` form of a calculation output, the form the
    literal calculators of :mod:`repro.cassandra.legacy_calc` return."""
    return {endpoint: [TokenRange(left, right)
                       for left, right in _pairs(bounds)]
            for endpoint, bounds in pending.items()}


# The disk boundary: a recording stores an output as
# ``{endpoint: [[left, right], ...]}`` JSON, and a memo DB converts it with
# this codec when it saves or loads, never per replay hit.

def serialize_pending(pending: PendingRanges) -> Dict[str, List[List[int]]]:
    """The JSON form of a calculation output (how a recording stores it)."""
    return {endpoint: [[left, right] for left, right in _pairs(bounds)]
            for endpoint, bounds in pending.items()}


def deserialize_pending(data: Dict[str, List[List[int]]]) -> PendingRanges:
    """Inverse of :func:`serialize_pending`."""
    return {endpoint: array("q", chain.from_iterable(ranges))
            for endpoint, ranges in data.items()}


#: ``(serialize, deserialize)`` of a pending-range output.
PENDING_CODEC = (serialize_pending, deserialize_pending)
