"""The deterministic replayer (step (e)/(f) of Figure 2).

Builds a PIL-infused cluster from a memoization database and re-runs the
recorded scenario: offending calculations become contention-free sleeps with
memoized outputs, and (optionally) message deliveries are released in the
recorded global order ("order determinism").

Order enforcement needs a liveness escape hatch: if the replayed code has
changed (the whole point of debugging is to change it), some recorded
messages may never be produced and a strict enforcer would deadlock.  The
:class:`ReplayHarness` therefore runs a watchdog process that detects a
stalled enforcer and skips past missing keys after a grace period.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..cassandra.cluster import Mode
from ..cassandra.metrics import RunReport
from ..cassandra.workloads import ScenarioParams
from ..faults.injector import install_faults
from ..faults.schedule import FaultSchedule
from ..sim.kernel import Timeout
from ..sim.network import OrderEnforcer
from .memoization import MemoDB
from .pil import PilReplayExecutor
from .target import CASSANDRA, Target


@dataclass
class ReplayResult:
    """A completed replay with its determinism diagnostics.

    ``hit_rate`` is derived from ``hits``/``misses`` rather than stored, so
    it can never disagree with the counts and never divides by zero: a
    replay over an empty recording (zero lookups) reports a rate of 0.0.
    """

    report: RunReport
    hits: int
    misses: int
    order_enforced: bool
    order_released: int = 0
    order_skipped: int = 0
    order_parked_at_end: int = 0
    hit_rate: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        total = self.hits + self.misses
        self.hit_rate = self.hits / total if total else 0.0

    # -- serialization (sweep workers ship results across processes) --------------

    def to_dict(self, with_report: bool = True) -> Dict[str, Any]:
        """Dict form; ``with_report=False`` leaves the report to the caller."""
        data = {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "order_enforced": self.order_enforced,
            "order_released": self.order_released,
            "order_skipped": self.order_skipped,
            "order_parked_at_end": self.order_parked_at_end,
        }
        if with_report:
            data["report"] = self.report.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any],
                  report: Optional[RunReport] = None) -> "ReplayResult":
        """Inverse of :meth:`to_dict` (pass ``report`` if not embedded)."""
        if report is None:
            report = RunReport.from_dict(data["report"])
        return cls(
            report=report,
            hits=int(data["hits"]),
            misses=int(data["misses"]),
            order_enforced=bool(data["order_enforced"]),
            order_released=int(data.get("order_released", 0)),
            order_skipped=int(data.get("order_skipped", 0)),
            order_parked_at_end=int(data.get("order_parked_at_end", 0)),
        )


class ReplayHarness:
    """Runs PIL-infused replays of a recorded scenario.

    ``config`` is a PIL-mode config of ``target``'s system (a Cassandra
    :class:`~repro.cassandra.cluster.ClusterConfig` by default).
    """

    def __init__(
        self,
        db: MemoDB,
        config,
        params: Optional[ScenarioParams] = None,
        enforce_order: bool = False,
        faults: Optional[FaultSchedule] = None,
        target: Target = CASSANDRA,
    ) -> None:
        if config.mode is not Mode.PIL:
            raise ValueError("replay requires a PIL-mode cluster config")
        self.db = db
        self.config = config
        self.target = target
        self.params = params or ScenarioParams()
        self.enforce_order = enforce_order
        self.faults = faults

    @staticmethod
    def _watchdog(enforcer: OrderEnforcer):
        """Skip past recorded-but-missing messages when replay stalls
        (checked once per virtual second).

        A replay that diverges from the recording (changed code, different
        timing) keeps producing messages the recording never saw while
        some recorded keys never materialize; skipping eagerly on every
        stalled tick keeps gossip live instead of strangling it behind a
        head-of-line blockage.
        """
        while True:
            yield Timeout(1.0)
            if enforcer.stalled:
                enforcer.skip_stalled()

    def replay(self) -> ReplayResult:
        """Run one PIL-infused replay and return the result."""
        target = self.target
        enforcer = OrderEnforcer(self.db.message_order) if self.enforce_order else None
        cluster = target.cluster(self.config, order_enforcer=enforcer)
        executor = PilReplayExecutor(self.db, cluster.sim,
                                     func_id=target.func_id,
                                     codec=target.codec)
        cluster.executor = executor
        install_faults(cluster, self.faults)
        if enforcer is not None:
            cluster.sim.spawn(self._watchdog(enforcer),
                              name="order-watchdog")
        report = target.run(cluster, self.params)
        stats = executor.stats()
        return ReplayResult(
            report=report,
            hits=int(stats["hits"]),
            misses=int(stats["misses"]),
            order_enforced=self.enforce_order,
            order_released=enforcer.released_in_order if enforcer else 0,
            order_skipped=enforcer.skips if enforcer else 0,
            order_parked_at_end=enforcer.parked_count if enforcer else 0,
        )
