"""The phi accrual failure detector (Hayashibara et al., SRDS '04).

Cassandra adopted the accrual detector for its scalable design (the paper's
section 3 notes the irony: the *design* was proved scalable, but the proof
"did not account gossip processing time during bootstrap/cluster-rescale").
Each observed endpoint has a sliding window of heartbeat inter-arrival
times; suspicion ``phi`` grows with time since the last arrival, scaled by
the observed mean interval.  Conviction happens when phi crosses a threshold
(Cassandra default: 8).

The detector is *observer-local*: node X runs one instance and feeds it
arrivals for every peer Y as gossip delivers fresher heartbeats about Y.
When the gossip stage is wedged by a pending-range calculation, arrivals
stop flowing, phi climbs, and X convicts perfectly healthy peers -- the
flapping mechanism of every bug in the paper's section 2.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Optional, Sequence

from .state_columnar import SharedClusterState

#: Cassandra's PHI_FACTOR: 1 / ln(10).  With an exponential arrival model,
#: phi = -log10(P(no arrival for t)) = t / (mean * ln 10).
PHI_FACTOR = 1.0 / math.log(10.0)

#: Cassandra's default conviction threshold.
DEFAULT_PHI_THRESHOLD = 8.0

#: Default sliding-window size (Cassandra: 1000 samples).
DEFAULT_WINDOW_SIZE = 1000

_NAN = float("nan")


@dataclass
class FailureDetectorStats:
    """Counters for analysis and tests."""

    reports: int = 0
    convictions: int = 0
    max_phi_seen: float = 0.0


class PhiAccrualFailureDetector:
    """Observer-local accrual detector over dense per-target columns.

    Targets are rows indexed by the cluster-wide gid of ``shared`` (a
    private registry when none is given).  Each row keeps its last
    arrival, interval sum and window count; a row is known while its
    count is nonzero, and the mean is the division ``interval_sum /
    count`` wherever it is read.  The last arrival is ``arrivals``, a
    column the owner may hand in: a gossiper passes its store's row
    timestamps, so the two are one column, and :meth:`report` is the only
    writer of a peer's row -- it reads the previous arrival before it
    writes the new one.

    The interval windows share one sample pool per detector: ``_pool``
    holds the samples and ``_next`` links each slot to the next newer
    one of its window (-1 ends a chain); ``_head``/``_tail`` give each
    row's oldest and newest slot (-1: no chain).  A row's first sample is
    always the bootstrap interval and stays implicit until a second one
    arrives, so the 4.2M bootstrap-only pairs of a large established
    cluster cost 20 bytes of detector columns each (plus the shared
    arrival) and no pool slot.  A full window slides by overwriting its
    head slot and relinking it as the tail; :meth:`forget` returns a
    chain to the free list (``_free``, linked through ``_next``), so the
    pool never holds more slots than the live windows' samples and the
    free ones.
    """

    def __init__(
        self,
        phi_threshold: float = DEFAULT_PHI_THRESHOLD,
        window_size: int = DEFAULT_WINDOW_SIZE,
        expected_interval: float = 1.0,
        shared: Optional[SharedClusterState] = None,
        arrivals: Optional[array] = None,
    ) -> None:
        self.shared = shared if shared is not None else SharedClusterState()
        self.phi_threshold = phi_threshold
        self.window_size = window_size
        self.expected_interval = expected_interval
        self.stats = FailureDetectorStats()
        self._bootstrap = expected_interval / 2.0
        #: Grown in place, never rebound: it may be the owner's column.
        self._arrivals = arrivals if arrivals is not None else array("d")
        self._interval_sum = array("d")
        self._count = array("i")
        self._head = array("i")
        self._tail = array("i")
        self._pool = array("d")
        self._next = array("i")
        self._free = -1

    def _ensure_capacity(self, gid: int) -> None:
        missing = gid + 1 - len(self._count)
        if missing > 0:
            self._interval_sum.extend(array("d", (0.0,)) * missing)
            self._count.extend(array("i", (0,)) * missing)
            self._head.extend(array("i", (-1,)) * missing)
            self._tail.extend(array("i", (-1,)) * missing)
        missing = gid + 1 - len(self._arrivals)
        if missing > 0:
            self._arrivals.extend(array("d", (0.0,)) * missing)

    def report(self, endpoint: str, now: float) -> None:
        """Feed one heartbeat arrival for ``endpoint``."""
        self.stats.reports += 1
        gid = self.shared.registry.get(endpoint)
        if gid is None:
            gid = self.shared.gid(endpoint)
        if gid >= len(self._count):
            self._ensure_capacity(gid)
        count = self._count[gid]
        if count == 0:
            interval = self._bootstrap
        else:
            interval = now - self._arrivals[gid]
            if interval < 0:
                raise ValueError("arrival time went backwards")
        self._arrivals[gid] = now
        if count < self.window_size:
            if count >= 1:
                links = self._next
                tail = self._tail[gid]
                if tail < 0:
                    tail = self._head[gid] = self._slot(self._bootstrap)
                if self._free < 0:     # the common case, inlined: a new slot
                    slot = len(links)
                    self._pool.append(interval)
                    links.append(-1)
                else:
                    slot = self._slot(interval)
                links[tail] = slot
                self._tail[gid] = slot
            self._count[gid] = count + 1
            self._interval_sum[gid] += interval
        else:
            slot = self._head[gid]
            if slot < 0:           # window_size == 1: only the deferred sample
                slot = self._head[gid] = self._tail[gid] = self._slot(
                    self._bootstrap)
            pool = self._pool
            self._interval_sum[gid] -= pool[slot]
            pool[slot] = interval
            tail = self._tail[gid]
            if slot != tail:       # the oldest slot becomes the newest
                links = self._next
                self._head[gid] = links[slot]
                links[slot] = -1
                links[tail] = slot
                self._tail[gid] = slot
            self._interval_sum[gid] += interval

    def _slot(self, sample: float) -> int:
        """A pool slot holding ``sample`` and linked to nothing: a free
        one when there is one, else a new one at the pool's end."""
        links = self._next
        slot = self._free
        if slot < 0:
            self._pool.append(sample)
            links.append(-1)
            return len(links) - 1
        self._free = links[slot]
        self._pool[slot] = sample
        links[slot] = -1
        return slot

    def report_first_arrivals(self, members: int, own_gid: int,
                              now: float) -> None:
        """Feed the first arrival, at ``now``, of a whole membership at once.

        Leaves an empty detector exactly as one :meth:`report` per member
        would, filling the columns by repetition instead of row by row.
        The members are gid rows ``0..members - 1`` minus ``own_gid``, the
        observer's own row, which stays unknown and keeps its arrival.
        """
        rows = members
        if self._count.count(0) != len(self._count):
            raise ValueError("bulk first arrivals need an empty detector")
        if own_gid == rows - 1:      # row-by-row would never have grown to it
            rows -= 1
        self._ensure_capacity(rows - 1)
        arrivals = self._arrivals
        own_arrival = arrivals[own_gid] if own_gid < rows else 0.0
        arrivals[:rows] = array("d", (now,)) * rows
        self._interval_sum[:rows] = array("d", (self._bootstrap,)) * rows
        self._count[:rows] = array("i", (1,)) * rows
        if own_gid < rows:
            arrivals[own_gid] = own_arrival
            self._interval_sum[own_gid] = 0.0
            self._count[own_gid] = 0
        self.stats.reports += members - 1

    def _known_gid(self, endpoint: str) -> int:
        """The gid of a currently known target, or -1."""
        gid = self.shared.registry.get(endpoint)
        if gid is None or gid >= len(self._count) or self._count[gid] == 0:
            return -1
        return gid

    def phi(self, endpoint: str, now: float) -> float:
        """Current suspicion level for ``endpoint`` at time ``now``."""
        gid = self._known_gid(endpoint)
        if gid < 0:
            return 0.0
        mean = self._interval_sum[gid] / self._count[gid]
        if mean < 1e-9:
            mean = 1e-9
        value = PHI_FACTOR * (now - self._arrivals[gid]) / mean
        self.stats.max_phi_seen = max(self.stats.max_phi_seen, value)
        return value

    def should_convict(self, endpoint: str, now: float) -> bool:
        """True when suspicion for ``endpoint`` exceeds the threshold.

        Inlines :meth:`phi` (same arithmetic, same ``max_phi_seen`` update).
        The gossiper's conviction sweep does not call this per peer: it
        asks :meth:`sweep`, which computes the same phi for a whole
        candidate list in one call.
        """
        gid = self._known_gid(endpoint)
        if gid < 0:
            value = 0.0
        else:
            mean = self._interval_sum[gid] / self._count[gid]
            if mean < 1e-9:
                mean = 1e-9
            value = PHI_FACTOR * (now - self._arrivals[gid]) / mean
        stats = self.stats
        if value > stats.max_phi_seen:
            stats.max_phi_seen = value
        convict = value > self.phi_threshold
        if convict:
            stats.convictions += 1
        return convict

    def sweep(self, gids: Sequence[int], now: float) -> List[int]:
        """The positions in ``gids`` whose phi exceeds the threshold.

        One :meth:`should_convict` per gid, fused: the same arithmetic in
        the same order (an unknown or forgotten row reads phi 0.0), and
        ``max_phi_seen`` and ``convictions`` left exactly as the per-gid
        calls would leave them -- but one Python call per sweep instead of
        one per peer.
        """
        count = self._count
        arrivals = self._arrivals
        interval_sum = self._interval_sum
        rows = len(count)
        threshold = self.phi_threshold
        stats = self.stats
        highest = stats.max_phi_seen
        convicted: List[int] = []
        for position, gid in enumerate(gids):
            if gid < rows and count[gid]:
                mean = interval_sum[gid] / count[gid]
                if mean < 1e-9:
                    mean = 1e-9
                value = PHI_FACTOR * (now - arrivals[gid]) / mean
            else:
                value = 0.0
            if value > highest:
                highest = value
            if value > threshold:
                convicted.append(position)
        stats.max_phi_seen = highest
        stats.convictions += len(convicted)
        return convicted

    def forget(self, endpoint: str) -> None:
        """Drop all state for a departed endpoint."""
        gid = self._known_gid(endpoint)
        if gid < 0:
            return
        self._count[gid] = 0
        self._interval_sum[gid] = 0.0
        head = self._head[gid]
        if head >= 0:
            self._next[self._tail[gid]] = self._free
            self._free = head
            self._head[gid] = self._tail[gid] = -1

    def known_endpoints(self) -> List[str]:
        """All endpoints with recorded state, sorted."""
        return sorted(compress(self.shared.names, self._count))

    def mean_interval(self, endpoint: str) -> float:
        """Mean heartbeat inter-arrival for ``endpoint`` (NaN if unknown)."""
        gid = self._known_gid(endpoint)
        if gid < 0:
            return _NAN
        return self._interval_sum[gid] / self._count[gid]

    def phis(self, now: float) -> Dict[str, float]:
        """Suspicion levels for every known endpoint at ``now``, in gid
        (registration) order.

        A read-only snapshot for observability: unlike :meth:`phi` it does
        not touch ``stats.max_phi_seen``, so sampling a run for metrics
        cannot perturb what the run itself would have recorded.
        """
        names = self.shared.names
        arrivals = self._arrivals
        interval_sum = self._interval_sum
        result = {}
        for gid, count in enumerate(self._count):
            if count:
                mean = max(interval_sum[gid] / count, 1e-9)
                result[names[gid]] = (
                    PHI_FACTOR * (now - arrivals[gid]) / mean)
        return result
