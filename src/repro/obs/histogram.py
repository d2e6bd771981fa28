"""The request-latency histogram the workload engine reports from."""

from __future__ import annotations

import math
from typing import Dict, List, Optional


class QuantileHistogram:
    """A fixed-geometry log-bucketed distribution with percentile queries.

    The user-visible symptom of a scalability bug is a *tail* (p99/p999)
    latency spike that a count/sum/max summary cannot resolve.  Buckets are
    geometric -- ``FLOOR * GROWTH**i`` -- so one fixed layout spans the
    five decades between a local read (~1e-4 s) and an rpc-timeout
    (~seconds) with bounded relative error (= ``GROWTH - 1``).

    Observations carry an optional *weight*: the workload layer's user
    shards fold millions of logical requests into a few representative
    ones per tick, each standing for ``weight`` real requests, so the
    percentiles reflect the full population at thousands-of-events cost.

    All math is pure arithmetic over the fixed layout, which keeps
    quantiles byte-identical across runs and worker processes (the
    determinism contract RunReport digests rely on).
    """

    #: Lower bound of the first finite bucket (seconds).
    FLOOR = 1e-4
    #: Geometric bucket growth (25% relative resolution).
    GROWTH = 1.25
    #: Bucket count: FLOOR * GROWTH**96 ~ 2e6 s, far past any timeout.
    BUCKETS = 96

    _LOG_GROWTH = math.log(GROWTH)

    def __init__(self) -> None:
        self.counts: List[float] = [0.0] * self.BUCKETS
        self.count = 0.0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None

    @classmethod
    def bucket_index(cls, value: float) -> int:
        """The bucket holding ``value`` (clamped to the fixed layout)."""
        if value <= cls.FLOOR:
            return 0
        index = int(math.log(value / cls.FLOOR) / cls._LOG_GROWTH) + 1
        return min(index, cls.BUCKETS - 1)

    @classmethod
    def bucket_bound(cls, index: int) -> float:
        """Upper bound of bucket ``index`` (the quantile estimate)."""
        return cls.FLOOR * cls.GROWTH ** (index + 1)

    def observe(self, value: float, weight: float = 1.0) -> None:
        """Fold ``weight`` observations of ``value`` in."""
        if weight <= 0:
            return
        value = float(value)
        self.counts[self.bucket_index(value)] += weight
        self.count += weight
        self.total += value * weight
        self.vmin = value if self.vmin is None else min(self.vmin, value)
        self.vmax = value if self.vmax is None else max(self.vmax, value)

    def quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile estimate, or None when nothing was observed.

        Returning None (never raising, never 0.0) on the empty
        distribution is load-bearing: a run where no request completed
        must not report a fake perfect latency.
        """
        if self.count <= 0:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        target = q * self.count
        cumulative = 0.0
        for index, weight in enumerate(self.counts):
            cumulative += weight
            if cumulative >= target and weight > 0:
                bound = self.bucket_bound(index)
                # Clamp to the observed extremes: a single-valued
                # distribution then reports that value, not a bucket edge.
                if self.vmax is not None:
                    bound = min(bound, self.vmax)
                if self.vmin is not None:
                    bound = max(bound, self.vmin)
                return bound
        return self.vmax  # pragma: no cover - cumulative covers count

    def mean(self) -> Optional[float]:
        """Weighted mean observation (None when empty)."""
        return self.total / self.count if self.count > 0 else None

    def percentiles(self) -> Dict[str, Optional[float]]:
        """The headline latency triple (each None when empty)."""
        return {
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }
