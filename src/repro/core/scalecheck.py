"""The scale-check pipeline orchestrator (the paper's Figure 2, end to end).

:class:`ScaleCheck` ties every stage together for one (bug, cluster size)
scenario:

* step (a) -- the substrate's data structures are annotated in
  :mod:`repro.cassandra.legacy_calc`;
* step (b) -- :meth:`ScaleCheck.find_offenders` runs the program analysis
  over the calculation corpus;
* steps (c)+(d) -- :meth:`ScaleCheck.memoize` executes the protocol once
  under basic colocation with recording executors, producing a
  :class:`~repro.core.memoization.MemoDB` (including the message order);
* steps (e)+(f) -- :meth:`ScaleCheck.replay` runs fast PIL-infused replays.

For the paper's accuracy evaluation (Figure 3), :meth:`ScaleCheck.run_real`
and :meth:`ScaleCheck.run_colo` produce the "Real" and "Colo" baselines and
:meth:`ScaleCheck.compare_modes` yields all three series in one call.

Every method goes through the :class:`~repro.core.target.Target` the bug id
selects, so the same pipeline checks Cassandra's bugs and the HDFS
block-report storm (``ScaleCheck(HDFS_BUG_ID, ...)``, the paper's section 7).
"""

from __future__ import annotations

import dataclasses
import gc
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..cassandra import legacy_calc
from ..cassandra.bugs import BugConfig, get_bug
from ..cassandra.cluster import Cluster, MachineSpec, Mode
from ..cassandra.gossip import GossipConfig
from ..cassandra.metrics import RunReport, accuracy_error
from ..cassandra.node import CalcExecutor, NodeCosts, SharedOutputCache
from ..cassandra.pending_ranges import CostConstants
from ..cassandra.workloads import ScenarioParams
from ..faults.injector import install_faults
from ..faults.schedule import FaultSchedule
from ..sim.kernel import KernelObserver
from .finder import FinderReport, find_offending
from .memoization import MemoDB
from .pil import MemoizingExecutor
from .replayer import ReplayHarness, ReplayResult
from .target import Target, target_for


@dataclass
class ScaleCheckResult:
    """Output of a full memoize + replay pipeline run."""

    bug_id: str
    nodes: int
    memo_report: RunReport
    replay: ReplayResult
    db: MemoDB

    @property
    def replay_report(self) -> RunReport:
        """The PIL replay's run report."""
        return self.replay.report

    def speedup(self) -> float:
        """Wall-clock memoization/replay cost ratio (host seconds).

        0.0 when the memoization cost is unknown (e.g. the recording was
        loaded from disk, so no host time was spent); inf when replay was
        immeasurably fast.  The memoization seconds exclude rings an
        earlier run of the same :class:`ScaleCheck` already computed.
        """
        if self.memo_report.wall_seconds <= 0:
            return 0.0
        if self.replay_report.wall_seconds <= 0:
            return float("inf")
        return self.memo_report.wall_seconds / self.replay_report.wall_seconds


@dataclass
class ScaleCheck:
    """One scale-check scenario: a bug, a cluster size, and timing knobs.

    The Cassandra-only knobs (``cost_constants``, ``costs``, ``gossip``,
    ``rf``) are ignored by other targets.

    The runs one check builds (:meth:`run_real`, :meth:`run_colo`,
    :meth:`memoize`) share one
    :class:`~repro.cassandra.node.SharedOutputCache`, so each distinct ring
    is computed once per check, not once per run; replay keeps a cache of
    its own.  So :meth:`memoize`'s host seconds exclude the rings an
    earlier run of the same check computed.  Virtual time is charged per
    invocation as before, so reports do not depend on the sharing.  A
    check holds one cluster at a time: each run after the first collects
    the previous run's cluster before building its own.
    """

    bug_id: str
    nodes: int
    seed: int = 42
    params: ScenarioParams = field(default_factory=ScenarioParams)
    cost_constants: CostConstants = field(default_factory=CostConstants)
    costs: NodeCosts = field(default_factory=NodeCosts)
    machine: MachineSpec = field(default_factory=MachineSpec)
    gossip: GossipConfig = field(default_factory=GossipConfig)
    rf: int = 3
    #: Optional vnode-count override (affordability: large-N sweeps shrink
    #: the per-node token population the way ``repro doctor --vnodes`` does;
    #: blocks per datanode on HDFS).
    vnodes: Optional[int] = None
    #: Calculation outputs shared by every cluster this check builds.
    _outputs: SharedOutputCache = field(default_factory=SharedOutputCache,
                                        init=False, repr=False, compare=False)
    #: Clusters built so far (the first run has nothing to collect).
    _runs: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def target(self) -> Target:
        """The target system the bug id selects."""
        return target_for(self.bug_id)

    @property
    def bug(self) -> BugConfig:
        """The Cassandra bug configuration under check (vnodes override
        applied)."""
        bug = get_bug(self.bug_id)
        if self.vnodes is not None:
            bug = dataclasses.replace(bug, vnodes=self.vnodes)
        return bug

    def config(self, mode: Mode):
        """The target's cluster configuration for the given mode."""
        return self.target.config(self, mode)

    def _run(self, mode: Mode, faults: Optional[FaultSchedule],
             observer: Optional[KernelObserver] = None,
             executor: Optional[CalcExecutor] = None) -> Tuple[Any, RunReport]:
        """Build the target's cluster for ``mode`` and run its scenario;
        returns ``(cluster, report)``."""
        self._release_previous_cluster()
        target = self.target
        cluster = target.cluster(self.config(mode), observer=observer)
        if executor is not None:
            cluster.executor = executor
        if isinstance(cluster, Cluster):
            cluster.output_cache = self._outputs
        install_faults(cluster, faults)
        return cluster, target.run(cluster, self.params)

    def _release_previous_cluster(self) -> None:
        """Called before each run builds its cluster: the previous run's
        cluster is cyclic garbage by now, so collect it here and the check
        holds one cluster at a time."""
        if self._runs:
            gc.collect()
        self._runs += 1

    # -- step (b): program analysis ---------------------------------------------------

    def find_offenders(self) -> FinderReport:
        """Run the finder over the pending-range calculation corpus."""
        return find_offending(legacy_calc)

    # -- baselines ----------------------------------------------------------------------

    def run_real(self, faults: Optional[FaultSchedule] = None,
                 observer: Optional[KernelObserver] = None) -> RunReport:
        """Real-scale testing: every node on its own (simulated) machine."""
        return self._run(Mode.REAL, faults, observer)[1]

    def run_colo(self, faults: Optional[FaultSchedule] = None,
                 observer: Optional[KernelObserver] = None) -> RunReport:
        """Basic colocation: all nodes contend on one machine, no PIL."""
        return self._run(Mode.COLO, faults, observer)[1]

    # -- steps (c)+(d): memoization under basic colocation -------------------------------

    def memoize(self,
                faults: Optional[FaultSchedule] = None) -> ScaleCheckResult:
        """One-time recording run; returns result with replay not yet run."""
        db = MemoDB()
        target = self.target
        executor = MemoizingExecutor(db, func_id=target.func_id,
                                     serialize=target.serialize)
        cluster, report = self._run(Mode.COLO, faults, executor=executor)
        db.record_message_order(cluster.network.delivery_log)
        db.meta.update({
            "bug": self.bug_id,
            "nodes": self.nodes,
            "seed": self.seed,
            "func_id": target.func_id,
            "mode": "colo-memoize",
            "virtual_duration": report.duration,
            # Canonical (host-time-free) form so the recording run's report
            # survives persistence without perturbing the DB's digest.
            "memo_report": report.to_dict(canonical=True),
        })
        return ScaleCheckResult(
            bug_id=self.bug_id, nodes=self.nodes,
            memo_report=report,
            replay=ReplayResult(report=report, hits=0, misses=0,
                                order_enforced=False),
            db=db,
        )

    # -- steps (e)+(f): PIL-infused replay ----------------------------------------------

    def replay(
        self,
        db: MemoDB,
        enforce_order: bool = False,
        faults: Optional[FaultSchedule] = None,
    ) -> ReplayResult:
        """Switch to replay mode / perform a replay.

        Passing the same ``faults`` schedule used for the memoization run
        replays the chaos deterministically under PIL: the injector fires
        at identical virtual times in both runs.
        """
        self._release_previous_cluster()
        harness = ReplayHarness(
            db=db,
            config=self.config(Mode.PIL),
            params=self.params,
            enforce_order=enforce_order,
            faults=faults,
            target=self.target,
        )
        return harness.replay()

    # -- persistent-recording pipeline (the sweep engine's unit of work) ---------------

    def memoize_to(self, path,
                   faults: Optional[FaultSchedule] = None) -> ScaleCheckResult:
        """Memoize once and persist the database to ``path`` atomically
        (:meth:`MemoDB.save`)."""
        result = self.memoize(faults=faults)
        result.db.save(path)
        return result

    # -- the whole pipeline ----------------------------------------------------------------

    def check(self,
              faults: Optional[FaultSchedule] = None) -> ScaleCheckResult:
        """Memoize once, replay once: the paper's scale-check flow.

        ``faults`` subjects *both* runs to the same chaos schedule, so the
        memoized durations and the replay's symptom counts are produced
        under identical cluster weather.
        """
        result = self.memoize(faults=faults)
        result.replay = self.replay(result.db, faults=faults)
        return result

    # -- evaluation helper --------------------------------------------------------------------

    def compare_modes(self, faults: Optional[FaultSchedule] = None) -> Dict[str, RunReport]:
        """One Figure-3 data point: Real, Colo, and SC+PIL flap counts."""
        real = self.run_real(faults=faults)
        result = self.check(faults=faults)
        return {
            "real": real,
            "colo": result.memo_report,
            "pil": result.replay_report,
        }

    @staticmethod
    def accuracy(reports: Dict[str, RunReport]) -> Dict[str, float]:
        """Relative flap errors of colo and PIL against the real run."""
        return {
            "colo_error": accuracy_error(reports["real"], reports["colo"]),
            "pil_error": accuracy_error(reports["real"], reports["pil"]),
        }

    @staticmethod
    def divergence(reports: Dict[str, RunReport]) -> Dict[str, Dict]:
        """Attribute each mode's divergence from the real run to a stage.

        Uses the per-stage lateness every :class:`RunReport` now carries
        (:func:`repro.obs.doctor.attribute_divergence`): the stage whose
        lateness exceeds the real run's the most is named as the cause of
        the mode's distorted symptom counts.
        """
        from ..obs.doctor import attribute_divergence
        return attribute_divergence(reports)
