"""The scale-check pipeline orchestrator (the paper's Figure 2, end to end).

:class:`ScaleCheck` ties every stage together for one (bug, cluster size)
scenario:

* step (a) -- the substrate's data structures are annotated in
  :mod:`repro.cassandra.legacy_calc`;
* step (b) -- :meth:`ScaleCheck.find_offenders` runs the program analysis
  over the calculation corpus;
* steps (c)+(d) -- :meth:`ScaleCheck.memoize` executes the protocol once
  under basic colocation with recording executors, producing a
  :class:`Recording`: a :class:`~repro.core.memoization.MemoDB` of in-situ
  durations and outputs, and the colocated run's report;
* steps (e)+(f) -- :meth:`ScaleCheck.replay` runs fast PIL-infused replays:
  offending calculations become contention-free sleeps with memoized
  outputs.  The message order is not recorded: releasing deliveries in the
  colocated run's global order made a replay flap far more than the real
  run it stands in for (EXPERIMENTS.md, X-ORDER).

For the paper's accuracy evaluation (Figure 3), :meth:`ScaleCheck.run_real`
and :meth:`ScaleCheck.run_colo` produce the "Real" and "Colo" baselines and
:meth:`ScaleCheck.compare_modes` yields all three series in one call.  Every
run, replay included, is built by one method, ``ScaleCheck._run``.

Every method goes through the :class:`~repro.core.target.Target` the bug id
selects, so the same pipeline checks Cassandra's bugs and the HDFS
block-report storm (``ScaleCheck(HDFS_BUG_ID, ...)``, the paper's section 7).
"""

from __future__ import annotations

import dataclasses
import gc
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..cassandra import legacy_calc
from ..cassandra.bugs import BugConfig, get_bug
from ..cassandra.cluster import Cluster, MachineSpec, Mode
from ..cassandra.metrics import RunReport, accuracy_error
from ..cassandra.node import CalcExecutor
from ..cassandra.pending_ranges import CostConstants
from ..cassandra.workloads import ScenarioParams
from ..faults.injector import install_faults
from ..faults.schedule import FaultSchedule
from ..sim.kernel import KernelObserver
from .finder import FinderReport, find_offending
from .memoization import MemoDB
from .pil import MemoizingExecutor, PilReplayExecutor
from .target import Target, target_for


@dataclass
class ReplayResult:
    """A completed replay and its memo lookup counts.

    ``hit_rate`` is derived from ``hits``/``misses`` rather than stored, so
    it can never disagree with the counts and never divides by zero: a
    replay over an empty recording (zero lookups) reports a rate of 0.0.
    """

    report: RunReport
    hits: int
    misses: int
    hit_rate: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        total = self.hits + self.misses
        self.hit_rate = self.hits / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Dict form without the report (sweep workers ship the report
        next to it)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }


@dataclass
class Recording:
    """What a memoize run made: the recording and the colocated run's
    report.  There is no replay yet; :meth:`ScaleCheck.check` makes one."""

    db: MemoDB
    memo_report: RunReport


@dataclass
class ScaleCheckResult(Recording):
    """Output of a full memoize + replay pipeline run: a recording and its
    replay."""

    bug_id: str
    nodes: int
    replay: ReplayResult

    @property
    def replay_report(self) -> RunReport:
        """The PIL replay's run report."""
        return self.replay.report

    def modes(self, real: RunReport) -> Dict[str, RunReport]:
        """The :meth:`ScaleCheck.compare_modes` dict of this check and the
        ``real`` run: a caller that needs the recording too runs the three
        modes once."""
        return {"real": real, "colo": self.memo_report,
                "pil": self.replay_report}

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
    """One scale-check scenario: a bug, a cluster size, a seed, the
    scenario window (``params``), the calculation cost constants, the
    colocation host and an optional vnode count.  That is all a check can
    be told: the replication factor, the gossip timing and the costs of
    the live operations are constants of the model (DESIGN.md, "What a run
    can be told").  ``cost_constants`` is Cassandra-only; other targets
    ignore it.

    The runs one check builds (:meth:`run_real`, :meth:`run_colo`,
    :meth:`memoize`, :meth:`replay`) resolve Cassandra outputs through one
    store, a :class:`~repro.core.memoization.MemoDB`, so each distinct ring
    is computed once per check, not once per run, and a replay miss on a
    ring an earlier run met computes nothing.  So :meth:`memoize`'s host
    seconds exclude the rings an earlier run of the same check computed.
    :meth:`memoize` records into a new store that keeps the outputs so
    far, and :meth:`replay` makes the recording it replays the store;
    other runs add outputs, never records.  HDFS computes live: a block
    report reads the namenode's block map, so its output is not a function
    of its key.  Virtual time is charged per invocation, so reports do not
    depend on the sharing.  A check holds one cluster at a time: each run
    after the first collects the previous run's cluster before building
    its own.
    """

    bug_id: str
    nodes: int
    seed: int = 42
    params: ScenarioParams = field(default_factory=ScenarioParams)
    cost_constants: CostConstants = field(default_factory=CostConstants)
    machine: MachineSpec = field(default_factory=MachineSpec)
    #: Optional vnode-count override (affordability: large-N sweeps shrink
    #: the per-node token population the way ``repro doctor --vnodes`` does;
    #: blocks per datanode on HDFS).
    vnodes: Optional[int] = None
    #: The output store every cluster this check builds resolves through.
    _store: MemoDB = field(default_factory=MemoDB, init=False, repr=False,
                           compare=False)
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
             executor: Optional[CalcExecutor] = None) -> RunReport:
        """Build the target's cluster for ``mode`` and run its scenario."""
        self._release_previous_cluster()
        target = self.target
        cluster = target.cluster(self.config(mode), observer=observer)
        if executor is not None:
            cluster.executor = executor
        if isinstance(cluster, Cluster):
            cluster.outputs = self._store.outputs(target.func_id)
        install_faults(cluster, faults)
        return target.run(cluster, self.params)

    def _adopt(self, db: MemoDB) -> None:
        """Make ``db`` the check's store, holding the outputs so far."""
        if db is not self._store:
            db.take_outputs(self._store)
            self._store = db

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
        return self._run(Mode.REAL, faults, observer)

    def run_colo(self, faults: Optional[FaultSchedule] = None,
                 observer: Optional[KernelObserver] = None) -> RunReport:
        """Basic colocation: all nodes contend on one machine, no PIL."""
        return self._run(Mode.COLO, faults, observer)

    # -- steps (c)+(d): memoization under basic colocation -------------------------------

    def memoize(self, faults: Optional[FaultSchedule] = None) -> Recording:
        """One-time recording run: the recording and the colocated report."""
        db = MemoDB()
        self._adopt(db)
        target = self.target
        executor = MemoizingExecutor(db, func_id=target.func_id,
                                     codec=target.codec)
        report = self._run(Mode.COLO, faults, executor=executor)
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
        return Recording(db=db, memo_report=report)

    # -- steps (e)+(f): PIL-infused replay ----------------------------------------------

    def replay(
        self,
        db: MemoDB,
        faults: Optional[FaultSchedule] = None,
    ) -> ReplayResult:
        """Switch to replay mode / perform a replay.

        Passing the same ``faults`` schedule used for the memoization run
        replays the chaos deterministically under PIL: the injector fires
        at identical virtual times in both runs.  A lookup hits only a
        record; an output ``db`` holds unrecorded is a miss, served from it
        without computing.
        """
        self._adopt(db)
        target = self.target
        executor = PilReplayExecutor(db, func_id=target.func_id,
                                     codec=target.codec)
        report = self._run(Mode.PIL, faults, executor=executor)
        return ReplayResult(report=report, hits=executor.hits,
                            misses=executor.misses)

    # -- the whole pipeline ----------------------------------------------------------------

    def check(self,
              faults: Optional[FaultSchedule] = None) -> ScaleCheckResult:
        """Memoize once, replay once: the paper's scale-check flow.

        ``faults`` subjects *both* runs to the same chaos schedule, so the
        memoized durations and the replay's symptom counts are produced
        under identical cluster weather.
        """
        recording = self.memoize(faults=faults)
        return ScaleCheckResult(
            db=recording.db, memo_report=recording.memo_report,
            bug_id=self.bug_id, nodes=self.nodes,
            replay=self.replay(recording.db, faults=faults))

    # -- evaluation helper --------------------------------------------------------------------

    def compare_modes(self, faults: Optional[FaultSchedule] = None) -> Dict[str, RunReport]:
        """One Figure-3 data point: Real, Colo, and SC+PIL flap counts."""
        real = self.run_real(faults=faults)
        return self.check(faults=faults).modes(real)

    @staticmethod
    def accuracy(reports: Dict[str, RunReport]) -> Dict[str, float]:
        """Relative flap errors of colo and PIL against the real run."""
        return {
            "colo_error": accuracy_error(reports["real"], reports["colo"]),
            "pil_error": accuracy_error(reports["real"], reports["pil"]),
        }
