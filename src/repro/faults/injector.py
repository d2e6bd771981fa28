"""The fault injector: enact a schedule inside the simulator.

The :class:`Injector` expands a :class:`~repro.faults.schedule.
FaultSchedule` into a timeline of actions (including the automatic
*restore* actions implied by duration-bounded degradations), then runs as
one simulator process that sleeps to each action's virtual time and applies
it through a :class:`FaultTarget` adapter.

Everything is deterministic: actions fire at exact virtual times, CPU-hog
antagonists are plain simulated processes, and probabilistic link drops
draw from the cluster's named RNG streams -- so the same (seed, schedule)
pair produces an identical run, which is what lets PIL-infused replay be
subjected to the *same* chaos as the memoization run it replays.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from ..sim.kernel import Compute, Simulator, Timeout
from .primitives import (
    CpuStress,
    DiskDegrade,
    Fault,
    Heal,
    LinkDegrade,
    NodeCrash,
    NodeRestart,
    PartitionCut,
)
from .schedule import FaultSchedule

#: Demand of one CPU-hog compute slice; small enough that a hog yields the
#: CPU frequently, large enough to keep the event count modest.
_HOG_SLICE = 0.05


class FaultTarget:
    """Adapter interface between the injector and a cluster under test.

    Every method returns True when the action was applied and False when
    the target cannot apply it (unknown node, no disk, ...); the injector
    records unapplied actions in :attr:`Injector.skipped` rather than
    failing the run -- a chaos schedule generated for one topology should
    degrade gracefully on another.
    """

    def crash(self, node: str) -> bool:
        """Crash."""
        raise NotImplementedError

    def restart(self, node: str) -> bool:
        """Restart."""
        raise NotImplementedError

    def partition(self, side_a: Tuple[str, ...], side_b: Tuple[str, ...]) -> bool:
        """Partition."""
        raise NotImplementedError

    def heal(self, side_a: Tuple[str, ...], side_b: Tuple[str, ...]) -> bool:
        """Heal."""
        raise NotImplementedError

    def degrade_link(self, src: str, dst: str, drop_p: float,
                     latency_mult: float, symmetric: bool) -> bool:
        """Degrade link."""
        raise NotImplementedError

    def degrade_disk(self, node: str, bandwidth_factor: float) -> bool:
        """Degrade disk."""
        raise NotImplementedError

    def restore_disk(self, node: str) -> bool:
        """Restore disk."""
        raise NotImplementedError

    def cpu_for(self, node: str):
        """The node's CPU model for stress antagonists (None if unknown)."""
        raise NotImplementedError


class ClusterFaultTarget(FaultTarget):
    """Duck-typed adapter for the Cassandra-like and HDFS-like clusters.

    Requires the cluster to expose ``network``, ``crash_node(node_id)``,
    and ``restart_node(node_id)``; disk and CPU lookups go through the
    optional ``fault_disk(node_id)`` / ``fault_cpu(node_id)`` hooks, so one
    adapter serves both target systems.
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self._saved_bandwidth = {}

    def crash(self, node: str) -> bool:
        """Crash."""
        return bool(self.cluster.crash_node(node))

    def restart(self, node: str) -> bool:
        """Restart."""
        return bool(self.cluster.restart_node(node))

    def partition(self, side_a: Tuple[str, ...], side_b: Tuple[str, ...]) -> bool:
        """Partition."""
        if not side_a or not side_b:
            return False
        self.cluster.network.partition(list(side_a), list(side_b))
        return True

    def heal(self, side_a: Tuple[str, ...], side_b: Tuple[str, ...]) -> bool:
        """Heal."""
        if side_a and side_b:
            self.cluster.network.heal(list(side_a), list(side_b))
        else:
            self.cluster.network.heal()
        return True

    def degrade_link(self, src: str, dst: str, drop_p: float,
                     latency_mult: float, symmetric: bool) -> bool:
        """Degrade link."""
        self.cluster.network.degrade(src, dst, drop_p, latency_mult)
        if symmetric:
            self.cluster.network.degrade(dst, src, drop_p, latency_mult)
        return True

    def _disk(self, node: str):
        lookup = getattr(self.cluster, "fault_disk", None)
        return lookup(node) if lookup is not None else None

    def degrade_disk(self, node: str, bandwidth_factor: float) -> bool:
        """Degrade disk."""
        disk = self._disk(node)
        if disk is None:
            return False
        if node not in self._saved_bandwidth:
            self._saved_bandwidth[node] = disk.bandwidth
        disk.bandwidth = max(1, int(self._saved_bandwidth[node]
                                    * bandwidth_factor))
        return True

    def restore_disk(self, node: str) -> bool:
        """Restore disk."""
        disk = self._disk(node)
        saved = self._saved_bandwidth.pop(node, None)
        if disk is None or saved is None:
            return False
        disk.bandwidth = saved
        return True

    def cpu_for(self, node: str):
        """The node's CPU model for stress antagonists (None if unknown)."""
        lookup = getattr(self.cluster, "fault_cpu", None)
        return lookup(node) if lookup is not None else None


class Injector:
    """Enacts a :class:`FaultSchedule` at virtual times inside a simulator.

    Usage::

        injector = Injector(schedule, ClusterFaultTarget(cluster))
        injector.install(cluster.sim)
        run_workload(cluster, ...)      # faults fire during the run

    ``enacted`` / ``skipped`` record what actually happened, timestamped in
    virtual time, for reports and tests.
    """

    def __init__(self, schedule: FaultSchedule, target: FaultTarget) -> None:
        self.schedule = schedule
        self.target = target
        self.enacted: List[Tuple[float, str]] = []
        self.skipped: List[Tuple[float, str]] = []
        self._installed = False
        #: Timeline entries not yet enacted (filled by :meth:`bind`).
        self._pending: Deque[Tuple[float, int, str, Callable]] = deque()

    # -- timeline expansion ---------------------------------------------------

    def _timeline(self) -> List[Tuple[float, int, str, Callable[[], bool]]]:
        """(time, tiebreak, label, action) tuples in enactment order.

        Duration-bounded degradations contribute their restore action as a
        second timeline entry; the tiebreak keeps expansion order stable
        for simultaneous events.
        """
        entries: List[Tuple[float, int, str, Callable[[], bool]]] = []
        for order, event in enumerate(self.schedule.sorted_events()):
            entries.extend(self._expand(event, order))
        entries.sort(key=lambda e: (e[0], e[1]))
        return entries

    def _expand(self, event: Fault, order: int):
        if isinstance(event, NodeCrash):
            yield (event.time, order, event.describe(),
                   lambda e=event: self.target.crash(e.node))
        elif isinstance(event, NodeRestart):
            yield (event.time, order, event.describe(),
                   lambda e=event: self.target.restart(e.node))
        elif isinstance(event, PartitionCut):
            yield (event.time, order, event.describe(),
                   lambda e=event: self.target.partition(e.side_a, e.side_b))
        elif isinstance(event, Heal):
            yield (event.time, order, event.describe(),
                   lambda e=event: self.target.heal(e.side_a, e.side_b))
        elif isinstance(event, LinkDegrade):
            yield (event.time, order, event.describe(),
                   lambda e=event: self.target.degrade_link(
                       e.src, e.dst, e.drop_p, e.latency_mult, e.symmetric))
            if event.duration > 0:
                restore = (f"t={event.time + event.duration:.2f} "
                           f"link-restore(src={event.src!r}, dst={event.dst!r})")
                yield (event.time + event.duration, order, restore,
                       lambda e=event: self.target.degrade_link(
                           e.src, e.dst, 0.0, 1.0, e.symmetric))
        elif isinstance(event, DiskDegrade):
            yield (event.time, order, event.describe(),
                   lambda e=event: self.target.degrade_disk(
                       e.node, e.bandwidth_factor))
            if event.duration > 0:
                restore = (f"t={event.time + event.duration:.2f} "
                           f"disk-restore(node={event.node!r})")
                yield (event.time + event.duration, order, restore,
                       lambda e=event: self.target.restore_disk(e.node))
        elif isinstance(event, CpuStress):
            yield (event.time, order, event.describe(),
                   lambda e=event: self._start_stress(e))
        else:  # pragma: no cover - registry and expansion kept in sync
            raise TypeError(f"injector cannot enact {type(event).__name__}")

    # -- the injector process --------------------------------------------------

    def install(self, sim: Simulator) -> None:
        """Spawn the injector process into ``sim`` (once): it sleeps to
        each action's exact virtual time."""
        self.bind(sim)
        sim.spawn(self._run(), name="fault-injector")

    def bind(self, sim: Simulator) -> None:
        """Attach to ``sim`` (once) without spawning the process, for a
        caller that stops ``sim`` at its own barriers and calls
        :meth:`enact_due` there (the lockstep runner's shards)."""
        if self._installed:
            raise RuntimeError("injector already installed")
        self._installed = True
        self._sim = sim
        self._pending = deque(self._timeline())

    def _run(self):
        while self._pending:
            delay = self._pending[0][0] - self._sim.now
            if delay > 0:
                yield Timeout(delay)
            self.enact_due()

    def enact_due(self) -> None:
        """Enact, in timeline order, every pending action whose time has
        come (``<= sim.now``)."""
        sim = self._sim
        while self._pending and self._pending[0][0] <= sim.now:
            __, __, label, action = self._pending.popleft()
            applied = action()
            record = (sim.now, label)
            if applied:
                self.enacted.append(record)
            else:
                self.skipped.append(record)

    def _start_stress(self, event: CpuStress) -> bool:
        cpu = self.target.cpu_for(event.node)
        if cpu is None or event.duration <= 0 or event.hogs <= 0:
            return False
        until = self._sim.now + event.duration
        for i in range(event.hogs):
            self._sim.spawn(self._hog(cpu, until),
                            name=f"cpu-hog:{event.node}#{i}")
        return True

    def _hog(self, cpu, until: float):
        while self._sim.now < until:
            yield Compute(cpu, min(_HOG_SLICE, max(until - self._sim.now, 1e-6)),
                          tag="chaos-hog")

    # -- diagnostics -----------------------------------------------------------

    def summary(self) -> str:
        """One-line account of what the injector did."""
        return (f"injector: {len(self.enacted)} enacted, "
                f"{len(self.skipped)} skipped "
                f"of {len(self.schedule)} scheduled events")


def install_faults(cluster, faults: Optional[FaultSchedule]) -> Optional[Injector]:
    """Attach an injector for ``faults`` to ``cluster`` (None passes through).

    The one-line integration used by :class:`~repro.core.scalecheck.
    ScaleCheck`, the replay harness, and the workload-level helpers.
    """
    if faults is None or not len(faults):
        return None
    injector = Injector(faults, ClusterFaultTarget(cluster))
    injector.install(cluster.sim)
    return injector
