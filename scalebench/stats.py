"""Small-sample statistics the ledger reports (no third-party imports)."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> Optional[float]:
    """The ``pct``-th percentile (nearest rank), or None when unsupported.

    The rule from the metrics guide: a percentile is reported only when at
    least ``MIN_BEYOND`` samples lie beyond it, so a p90 needs 100 samples
    and a p99 needs 1000.  The median is exempt (it is the headline figure).
    """
    if not values:
        return None
    if pct != 50 and len(values) * (100.0 - pct) / 100.0 < MIN_BEYOND:
        return None
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil, nearest-rank
    return float(ordered[int(rank) - 1])


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative = better)."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
