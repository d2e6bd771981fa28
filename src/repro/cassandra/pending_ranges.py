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
Literal naive-loop implementations, used as the program-analysis corpus and
as differential-test oracles, live in :mod:`repro.cassandra.legacy_calc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from typing import Dict, List

from ..annotations import declare_cost
from .ring import TokenMetadata
from .tokens import TokenRange

# Cost-model bridge for the static analysis: calc_cost charges virtual CPU
# demand arithmetically (``m * tokens ** 2``), which loop analysis cannot
# see.  The declaration carries the *worst* modeled variant's degrees
# (V1/V3: O(M·T^2)) so any caller invoking the calculation under a lock is
# attributed scale-dependent work.  Per-variant drift checking against the
# exact formulas lives in :mod:`repro.analysis.drift`.
declare_cost("calc_cost", M=1, T=2,
             note="modeled pending-range calculation demand (worst variant)")

#: Sort key for pending ranges: plain tuples compare faster than
#: ``TokenRange.__lt__``.
_range_bounds = attrgetter("left", "right")


def compute_pending_ranges(metadata: TokenMetadata, rf: int) -> Dict[str, List[TokenRange]]:
    """Correct pending-range computation (reference implementation).

    Replica sets are piecewise-constant between ring-token boundaries, but
    the *current* and *future* rings have different boundary sets (a
    leaving node's tokens exist only in the current ring, a bootstrapping
    node's only in the future one).  Diffing at the **union** of both
    boundary sets is therefore required: evaluating only at future
    boundaries silently misses the sub-ranges a departing token used to
    delimit (keys previously owned by a leaving node would get no pending
    gainer).  For every union sub-range, any endpoint replicating it in
    the future but not today gains it as a pending range.

    Pure function of ring content: same input content hash => same output,
    which is exactly the memoizability property PIL relies on.

    One merge pass over the sorted union: each ring keeps a forward pointer
    to the successor of the current boundary, and a ring's replica walk is
    redone only when that successor changes.  Every ring token is itself a
    boundary, so a pointer moves at most one step per boundary.
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
    # Two sorted runs merge in linear time; fromkeys drops shared tokens.
    boundaries = list(dict.fromkeys(sorted(current_tokens + future_tokens)))
    n_current, n_future = len(current_tokens), len(future_tokens)
    pending: Dict[str, List[TokenRange]] = {}
    ci = fi = 0                  # ring tokens below the boundary
    future_at = -1               # the pointer value the cached walk is for
    current_at = -1 if n_current else 0   # an empty ring's walk stays []
    current_replicas: List[str] = []
    future_replicas: List[str] = []
    left = boundaries[-1]        # the first range wraps
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
            rng = TokenRange(left, token)
            for endpoint in future_replicas:
                if endpoint not in current_replicas:
                    pending.setdefault(endpoint, []).append(rng)
        left = token
    for ranges in pending.values():
        ranges.sort(key=_range_bounds)
    return pending


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


def serialize_pending(pending: Dict[str, List[TokenRange]]) -> Dict[str, List[List[int]]]:
    """JSON-friendly form of a pending-ranges map (for the memo DB)."""
    return {
        endpoint: [[rng.left, rng.right] for rng in ranges]
        for endpoint, ranges in pending.items()
    }


def deserialize_pending(data: Dict[str, List[List[int]]]) -> Dict[str, List[TokenRange]]:
    """Inverse of :func:`serialize_pending`."""
    return {
        endpoint: [TokenRange(int(left), int(right)) for left, right in ranges]
        for endpoint, ranges in data.items()
    }
