"""The processing illusion: simulator-integrated executors (steps d-f).

Two :class:`~repro.cassandra.node.CalcExecutor` implementations plug into
the node's calculation seam:

* :class:`MemoizingExecutor` -- used during the one-time basic-colocation
  run.  Executes the calculation live (charging the contended shared CPU)
  while recording ``(input, output, duration)`` into a
  :class:`~repro.core.memoization.MemoDB`.  The recorded duration is the
  *intrinsic* CPU demand (what per-thread CPU-time accounting measures on a
  real machine) perturbed by :data:`NOISE_SIGMA` measurement noise -- not the
  contention-stretched wall time, which is exactly why PIL replay can be
  accurate even though memoization ran slow.  The record holds the output
  object the run computed; its JSON form is made only when the database is
  saved.
* :class:`PilReplayExecutor` -- used during replay.  Replaces the
  calculation with ``sleep(duration)`` on a :class:`~repro.sim.cpu.PilCpu`
  (consuming no machine capacity; bound to the simulator of the first node
  it serves) and substitutes the memoized output object; on a hit the
  replaced function is not run at all, not even on the host, and nothing
  is deserialized.  A hit needs a record: an output the store holds
  unrecorded is a miss.  On a miss it sleeps the analytic cost model's
  estimate on the same :class:`~repro.sim.cpu.PilCpu` and resolves the
  output as a live run does (computed only if the store lacks it).

Both count what they did in plain attributes (``hits``/``misses`` on
replay, ``conflicts`` on recording) that the cluster's report reads.
"""

from __future__ import annotations

from typing import Optional

from ..cassandra.node import CalcExecutor, CalcRequest
from ..cassandra.pending_ranges import PENDING_CODEC
from ..sim.cpu import PilCpu
from ..sim.kernel import Compute
from .memoization import Codec, MemoLruFront

#: The function identity under which pending-range calculations are
#: memoized.  Integrating another target system supplies its own func_id
#: and output codec (the HDFS model does exactly this).
CALC_FUNC_ID = "cassandra.calculatePendingRanges"

#: Relative standard deviation of the measurement noise a recorded duration
#: carries (drawn from the ``memo-noise`` stream).
NOISE_SIGMA = 0.02


class MemoizingExecutor(CalcExecutor):
    """Record (input, output, duration) while running live (step d)."""

    def __init__(self, db, *, func_id: str = CALC_FUNC_ID,
                 codec: Codec = PENDING_CODEC) -> None:
        self.db = db
        self.func_id = func_id
        db.hold_outputs(func_id, codec)

    @property
    def conflicts(self) -> int:
        """PIL-safety violations the recording has counted so far."""
        return self.db.conflicts

    def execute(self, node, request: CalcRequest):
        """Execute."""
        output = request.compute_output()
        elapsed = yield Compute(node.cpu, request.demand,
                                tag=f"memoize:{node.node_id}")
        noise = node.sim.rng.gauss("memo-noise", 0.0, NOISE_SIGMA)
        self.db.put(
            func_id=self.func_id,
            input_key=request.input_key,
            output=output,
            duration=max(request.demand * (1.0 + noise), 0.0),
            node_id=node.node_id,
            time=request.time,
        )
        return output, elapsed


class PilReplayExecutor(CalcExecutor):
    """Substitute sleep(t) + memoized output for the calculation (step f)."""

    def __init__(self, db, *, func_id: str = CALC_FUNC_ID,
                 codec: Codec = PENDING_CODEC) -> None:
        self.db = db
        self.pil_cpu: Optional[PilCpu] = None
        self.func_id = func_id
        #: A recording loaded from disk is converted here, once.
        db.hold_outputs(func_id, codec)
        #: Content keys repeat heavily across converged nodes; the LRU
        #: front serves them and counts the repeats.
        self.lru = MemoLruFront(db)
        self.hits = 0
        self.misses = 0

    def execute(self, node, request: CalcRequest):
        """Execute."""
        if self.pil_cpu is None:
            self.pil_cpu = PilCpu(node.sim, name="pil")
        record, output = self.lru.get(self.func_id, request.input_key)
        if record is not None:
            self.hits += 1
            elapsed = yield Compute(self.pil_cpu, record.duration,
                                    tag=f"pil:{node.node_id}")
            return output, elapsed
        self.misses += 1
        # Trust the analytic cost model for the duration and resolve the
        # real output on the host (it costs no virtual time).
        output = request.compute_output()
        elapsed = yield Compute(self.pil_cpu, request.demand,
                                tag=f"pil-miss-model:{node.node_id}")
        return output, elapsed
