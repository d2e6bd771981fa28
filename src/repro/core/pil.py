"""The processing illusion: simulator-integrated executors (steps d-f).

Two :class:`~repro.cassandra.node.CalcExecutor` implementations plug into
the node's calculation seam:

* :class:`MemoizingExecutor` -- used during the one-time basic-colocation
  run.  Executes the calculation live (charging the contended shared CPU)
  while recording ``(input, output, duration)`` into a
  :class:`~repro.core.memoization.MemoDB`.  The recorded duration is the
  *intrinsic* CPU demand (what per-thread CPU-time accounting measures on a
  real machine) perturbed by configurable measurement noise -- not the
  contention-stretched wall time, which is exactly why PIL replay can be
  accurate even though memoization ran slow.
* :class:`PilReplayExecutor` -- used during replay.  Replaces the
  calculation with ``sleep(duration)`` on a :class:`~repro.sim.cpu.PilCpu`
  (consuming no machine capacity) and substitutes the memoized output; on
  a hit the replaced function is not run at all, not even on the host.  On
  a miss it sleeps the analytic cost model's estimate on the same
  :class:`~repro.sim.cpu.PilCpu` and computes the output on the host.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from ..cassandra.node import CalcExecutor, CalcRequest
from ..cassandra.pending_ranges import deserialize_pending, serialize_pending
from ..sim.cpu import PilCpu
from ..sim.kernel import Compute, Simulator
from .memoization import MemoLruFront

#: The function identity under which pending-range calculations are
#: memoized.  Integrating another target system supplies its own func_id
#: and output codec (the HDFS model does exactly this).
CALC_FUNC_ID = "cassandra.calculatePendingRanges"


class MemoizingExecutor(CalcExecutor):
    """Record (input, output, duration) while running live (step d)."""

    def __init__(self, db, noise_sigma: float = 0.02,
                 func_id: str = CALC_FUNC_ID,
                 serialize: Callable = serialize_pending) -> None:
        self.db = db
        self.noise_sigma = noise_sigma
        self.func_id = func_id
        self.serialize = serialize
        self.recorded = 0
        #: ``id(output) -> (output, serialized)``: converged nodes share one
        #: output object, which is serialized once.  Holding the output
        #: keeps its id from being reused by another object.
        self._serialized: Dict[int, Tuple[Any, Any]] = {}

    def execute(self, node, request: CalcRequest):
        """Execute."""
        output = request.compute_output()
        elapsed = yield Compute(node.cpu, request.demand,
                                tag=f"memoize:{node.node_id}")
        duration = request.demand
        if self.noise_sigma > 0:
            noise = node.sim.rng.gauss("memo-noise", 0.0, self.noise_sigma)
            duration = max(request.demand * (1.0 + noise), 0.0)
        entry = self._serialized.get(id(output))
        if entry is None:
            entry = self._serialized[id(output)] = (output,
                                                    self.serialize(output))
        self.db.put(
            func_id=self.func_id,
            input_key=request.input_key,
            output=entry[1],
            duration=duration,
            node_id=node.node_id,
            time=request.time,
        )
        self.recorded += 1
        return output, elapsed

    def stats(self) -> Dict[str, float]:
        """Executor statistics for reports."""
        return {
            "recorded": self.recorded,
            "distinct": len(self.db),
            "conflicts": getattr(self.db, "conflicts", 0),
        }


class PilReplayExecutor(CalcExecutor):
    """Substitute sleep(t) + memoized output for the calculation (step f)."""

    def __init__(self, db, sim: Simulator,
                 func_id: str = CALC_FUNC_ID,
                 deserialize: Callable = deserialize_pending) -> None:
        self.db = db
        self.pil_cpu = PilCpu(sim, name="pil")
        self.func_id = func_id
        #: Content keys repeat heavily across converged nodes; the LRU
        #: front serves them without re-deserializing the recorded output.
        self.lru = MemoLruFront(db, deserialize)
        self._pil_tags: Dict[str, str] = {}
        self.hits = 0
        self.misses = 0

    def execute(self, node, request: CalcRequest):
        """Execute."""
        record, output = self.lru.get(self.func_id, request.input_key)
        if record is not None:
            self.hits += 1
            node_id = node.node_id
            tag = self._pil_tags.get(node_id)
            if tag is None:
                tag = self._pil_tags[node_id] = f"pil:{node_id}"
            elapsed = yield Compute(self.pil_cpu, record.duration, tag=tag)
            return output, elapsed
        self.misses += 1
        # Trust the analytic cost model for the duration and compute the
        # real output on the host (it costs no virtual time).
        output = request.compute_output()
        elapsed = yield Compute(self.pil_cpu, request.demand,
                                tag=f"pil-miss-model:{node.node_id}")
        return output, elapsed

    def stats(self) -> Dict[str, float]:
        """Executor statistics for reports."""
        total = self.hits + self.misses
        stats = {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "slept_seconds": self.pil_cpu.slept_seconds,
        }
        stats.update(self.lru.stats())
        return stats
