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
    arrival, interval sum and count; the mean is memoized as the exact
    division result -- never a rescaled form -- so cached and uncached
    phi are bit-identical.  The per-target interval window is a lazily
    created ``array('d')`` -- the window contents are only ever *read*
    when the window slides (the 1001st arrival for one target), so the
    4.2M bootstrap-only pairs of a large established cluster cost 32
    bytes of columns each and no buffer.
    """

    def __init__(
        self,
        phi_threshold: float = DEFAULT_PHI_THRESHOLD,
        window_size: int = DEFAULT_WINDOW_SIZE,
        expected_interval: float = 1.0,
        shared: Optional[SharedClusterState] = None,
    ) -> None:
        self.shared = shared if shared is not None else SharedClusterState()
        self.phi_threshold = phi_threshold
        self.window_size = window_size
        self.expected_interval = expected_interval
        self.stats = FailureDetectorStats()
        self._bootstrap = expected_interval / 2.0
        self._last_arrival = array("d")
        self._interval_sum = array("d")
        self._count = array("q")
        self._mean_cache = array("d")      # NaN == recompute
        self._samples: List[Optional[array]] = []
        self._ring_heads: Dict[int, int] = {}
        #: First-report order of currently known targets (the order
        #: ``phis`` reports them in).
        self._order: List[str] = []

    def _ensure_capacity(self, gid: int) -> None:
        missing = gid + 1 - len(self._count)
        if missing > 0:
            self._last_arrival.extend(array("d", (0.0,)) * missing)
            self._interval_sum.extend(array("d", (0.0,)) * missing)
            self._count.extend(array("q", (0,)) * missing)
            self._mean_cache.extend(array("d", (_NAN,)) * missing)
            self._samples.extend([None] * missing)

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
            self._order.append(endpoint)
        else:
            interval = now - self._last_arrival[gid]
            if interval < 0:
                raise ValueError("arrival time went backwards")
        self._last_arrival[gid] = now
        if count < self.window_size:
            if count >= 1:
                buffer = self._samples[gid]
                if buffer is None:
                    # The deferred first sample is always the bootstrap
                    # interval (targets start -- and restart after
                    # forget -- with it).
                    buffer = self._samples[gid] = array(
                        "d", (self._bootstrap,))
                buffer.append(interval)
            self._count[gid] = count + 1
            self._interval_sum[gid] += interval
        else:
            buffer = self._samples[gid]
            if buffer is None:     # window_size == 1: only the deferred sample
                buffer = self._samples[gid] = array("d", (self._bootstrap,))
            head = self._ring_heads.get(gid, 0)
            self._interval_sum[gid] -= buffer[head]
            buffer[head] = interval
            self._ring_heads[gid] = (head + 1) % self.window_size
            self._interval_sum[gid] += interval
        self._mean_cache[gid] = _NAN

    def report_first_arrivals(self, endpoints: Sequence[str], own_gid: int,
                              now: float) -> None:
        """Feed the first arrival, at ``now``, of a whole membership at once.

        Leaves an empty detector exactly as one :meth:`report` per endpoint
        would, filling the columns by repetition instead of row by row.
        ``endpoints`` (in the order :meth:`phis` should list them) must be
        the names of gid rows ``0..len(endpoints)`` minus ``own_gid``, the
        observer's own row, which stays unknown.
        """
        rows = len(endpoints) + 1
        if self._order:
            raise ValueError("bulk first arrivals need an empty detector")
        if own_gid == rows - 1:      # row-by-row would never have grown to it
            rows -= 1
        self._ensure_capacity(rows - 1)
        self._last_arrival[:rows] = array("d", (now,)) * rows
        self._interval_sum[:rows] = array("d", (self._bootstrap,)) * rows
        self._count[:rows] = array("q", (1,)) * rows
        if own_gid < rows:
            self._last_arrival[own_gid] = 0.0
            self._interval_sum[own_gid] = 0.0
            self._count[own_gid] = 0
        self._order.extend(endpoints)
        self.stats.reports += len(endpoints)

    def _known_gid(self, endpoint: str) -> int:
        """The gid of a currently known target, or -1."""
        gid = self.shared.registry.get(endpoint)
        if gid is None or gid >= len(self._count) or self._count[gid] == 0:
            return -1
        return gid

    def _mean(self, gid: int) -> float:
        mean = self._mean_cache[gid]
        if mean != mean:               # NaN: recompute the exact division
            mean = self._interval_sum[gid] / self._count[gid]
            self._mean_cache[gid] = mean
        return mean

    def phi(self, endpoint: str, now: float) -> float:
        """Current suspicion level for ``endpoint`` at time ``now``."""
        gid = self._known_gid(endpoint)
        if gid < 0:
            return 0.0
        mean = self._mean(gid)
        if mean < 1e-9:
            mean = 1e-9
        value = PHI_FACTOR * (now - self._last_arrival[gid]) / mean
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
            mean = self._mean_cache[gid]
            if mean != mean:
                mean = self._mean(gid)
            if mean < 1e-9:
                mean = 1e-9
            value = PHI_FACTOR * (now - self._last_arrival[gid]) / mean
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
        the same order (an unknown or forgotten row reads phi 0.0), the
        same mean-cache fill, and ``max_phi_seen`` and ``convictions``
        left exactly as the per-gid calls would leave them -- but one
        Python call per sweep instead of one per peer.
        """
        count = self._count
        last_arrival = self._last_arrival
        interval_sum = self._interval_sum
        mean_cache = self._mean_cache
        rows = len(count)
        threshold = self.phi_threshold
        stats = self.stats
        highest = stats.max_phi_seen
        convicted: List[int] = []
        for position, gid in enumerate(gids):
            if gid < rows and count[gid]:
                mean = mean_cache[gid]
                if mean != mean:
                    mean = mean_cache[gid] = interval_sum[gid] / count[gid]
                if mean < 1e-9:
                    mean = 1e-9
                value = PHI_FACTOR * (now - last_arrival[gid]) / mean
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
        self._mean_cache[gid] = _NAN
        self._samples[gid] = None
        self._ring_heads.pop(gid, None)
        self._order.remove(endpoint)

    def known_endpoints(self) -> List[str]:
        """All endpoints with recorded state, sorted."""
        return sorted(self._order)

    def mean_interval(self, endpoint: str) -> float:
        """Mean heartbeat inter-arrival for ``endpoint`` (NaN if unknown)."""
        gid = self._known_gid(endpoint)
        return self._mean(gid) if gid >= 0 else _NAN

    def phis(self, now: float) -> Dict[str, float]:
        """Suspicion levels for every known endpoint at ``now``.

        A read-only snapshot for observability: unlike :meth:`phi` it does
        not touch ``stats.max_phi_seen``, so sampling a run for metrics
        cannot perturb what the run itself would have recorded.
        """
        result = {}
        for endpoint in self._order:
            gid = self._known_gid(endpoint)
            mean = max(self._mean(gid), 1e-9)
            result[endpoint] = (
                PHI_FACTOR * (now - self._last_arrival[gid]) / mean)
        return result
