"""HDFS-like cluster assembly, execution modes, and workloads.

Mirrors :mod:`repro.cassandra.cluster` for the second target system: the
same three execution modes (real scale / basic colocation / PIL replay)
plus the Exalt data-emulation axis on the colocation host's disk.

The headline symptom is **false-dead datanodes**: live datanodes declared
dead because block-report processing wedged the namenode's lock -- the
HDFS analogue of Cassandra's flaps, counted by the same
:class:`~repro.cassandra.metrics.FlapCounter`.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cassandra.cluster import MachineSpec, Mode
from ..cassandra.metrics import CalcRecord, FlapCounter, RunReport
from ..cassandra.node import CalcExecutor
from ..obs.doctor import stage_lateness
from ..sim.cpu import DedicatedCpu, SharedCpu
from ..sim.disk import DataEmulationPolicy, Disk
from ..sim.kernel import KernelObserver, Simulator
from ..sim.memory import GB, MB
from ..sim.network import LatencyModel, Network
from .datanode import DataNode
from .namenode import NameNode

#: The bug id of the block-report storm: every HDFS report carries it, and
#: it selects the HDFS target wherever a bug id is asked for.
HDFS_BUG_ID = "hdfs-blockreport"

#: Datanodes send their first block report at a seeded time in
#: ``[0, REPORT_STAGGER)`` seconds after start.
REPORT_STAGGER = 5.0


def datanode_name(index: int) -> str:
    """Canonical datanode id for ``index``."""
    return f"dn-{index:03d}"


@dataclass
class HdfsConfig:
    """Everything a caller can tell an HDFS-like cluster run.  The CPU
    costs (:class:`~repro.hdfs.namenode.HdfsCosts`,
    :class:`~repro.hdfs.datanode.DataNodeCosts`), the heartbeat and
    block-report periods and :data:`REPORT_STAGGER` are constants."""

    datanodes: int
    blocks_per_datanode: int = 10000
    block_size: int = 1 * MB          # CI-friendly default; HDFS uses 128 MB
    mode: Mode = Mode.REAL
    seed: int = 42
    machine: MachineSpec = field(default_factory=MachineSpec)
    host_disk_bytes: int = 200 * GB   # colocation host's disk
    disk_bandwidth: int = 400 * MB    # host disk bandwidth (bytes/sec)
    emulation: Optional[DataEmulationPolicy] = None  # None = faithful
    dead_timeout: float = 10.0
    store_data: bool = False          # write blocks to disk (Exalt workloads)


class HdfsCluster:
    """A namenode plus N datanodes under one execution mode.

    Offers the seam scale-check uses on a Cassandra cluster: a settable
    :attr:`executor` (the namenode's block-report processing).
    """

    def __init__(self, config: HdfsConfig,
                 executor: Optional[CalcExecutor] = None,
                 observer: Optional[KernelObserver] = None) -> None:
        self.config = config
        self.sim = Simulator(seed=config.seed)
        if observer is not None:
            observer.attach(self.sim)
        self.network = Network(self.sim, latency=LatencyModel())
        self.flaps = FlapCounter()
        self.calc_records: List[CalcRecord] = []
        self._shared_cpu: Optional[SharedCpu] = None
        self._host_disk: Optional[Disk] = None
        self._wall_started = 0.0
        self.namenode = NameNode(
            sim=self.sim,
            network=self.network,
            cpu=self._cpu_for("namenode", cores=8),
            flaps=self.flaps,
            executor=executor,
            calc_records=self.calc_records,
            dead_timeout=config.dead_timeout,
        )
        self.datanodes: Dict[str, DataNode] = {}

    @property
    def executor(self) -> CalcExecutor:
        """The executor block-report processing runs through."""
        return self.namenode.executor

    @executor.setter
    def executor(self, executor: CalcExecutor) -> None:
        self.namenode.executor = executor

    # -- placement ------------------------------------------------------------------

    def _cpu_for(self, node_id: str, cores: int = 2):
        if self.config.mode is Mode.REAL:
            return DedicatedCpu(self.sim, cores=cores, name=f"cpu:{node_id}")
        if self._shared_cpu is None:
            self._shared_cpu = SharedCpu(
                self.sim,
                cores=self.config.machine.cores,
                context_switch_coeff=self.config.machine.context_switch_coeff,
                name="colo-machine",
            )
        return self._shared_cpu

    def _disk_for(self, node_id: str) -> Disk:
        """Real scale: every datanode has its own disk.  Colocation: all
        datanodes share the host's disk, optionally Exalt-emulated."""
        if self.config.mode is Mode.REAL:
            return Disk(self.sim, capacity_bytes=self.config.host_disk_bytes,
                        bandwidth_bytes_per_sec=self.config.disk_bandwidth,
                        emulation=self.config.emulation,
                        name=f"disk:{node_id}")
        if self._host_disk is None:
            self._host_disk = Disk(
                self.sim, capacity_bytes=self.config.host_disk_bytes,
                bandwidth_bytes_per_sec=self.config.disk_bandwidth,
                emulation=self.config.emulation, name="host-disk")
        return self._host_disk

    @property
    def host_disk(self) -> Optional[Disk]:
        """The shared colocation-host disk, if any."""
        return self._host_disk

    # -- assembly --------------------------------------------------------------------

    def build(self) -> None:
        """Create the namenode and datanodes (does not start datanodes)."""
        self.namenode.start()
        for i in range(self.config.datanodes):
            name = datanode_name(i)
            self.datanodes[name] = DataNode(
                sim=self.sim,
                node_id=name,
                network=self.network,
                cpu=self._cpu_for(name),
                disk=self._disk_for(name),
                block_count=self.config.blocks_per_datanode,
                block_size=self.config.block_size,
                store_data=self.config.store_data,
            )

    def start_all(self) -> None:
        """Start every datanode with a staggered initial report."""
        for i, node in enumerate(self.datanodes.values()):
            delay = self.sim.rng.uniform_once(
                f"report-stagger:{node.node_id}", 0.0, REPORT_STAGGER)
            node.start(initial_report_delay=delay)

    def run(self, until: float) -> None:
        """Advance the simulation to virtual time ``until``."""
        if self._wall_started == 0.0:
            self._wall_started = _time.perf_counter()
        self.sim.run(until=until)

    # -- fault injection (the repro.faults seam) ----------------------------------

    def crash_node(self, node_id: str) -> bool:
        """Hard-kill a datanode; the namenode's heartbeat monitor must
        notice the silence on its own.  Returns False for unknown/dead."""
        node = self.datanodes.get(node_id)
        if node is None or not node.running:
            return False
        self.network.crash(node_id)
        node.stop()
        return True

    def restart_node(self, node_id: str) -> bool:
        """Re-register a crashed datanode: it re-announces itself and sends
        a fresh full block report, as a restarted HDFS daemon would."""
        old = self.datanodes.get(node_id)
        if old is None:
            return False
        if old.running:
            old.stop()
        self.network.recover(node_id)
        node = DataNode(
            sim=self.sim,
            node_id=node_id,
            network=self.network,
            cpu=old.cpu,
            disk=old.disk,
            block_count=0,
            block_size=self.config.block_size,
            store_data=False,  # its data already sits on the same disk
        )
        node.blocks = old.blocks
        self.datanodes[node_id] = node
        node.start()
        return True

    def fault_cpu(self, node_id: str):
        """The CPU chaos antagonists should stress for ``node_id``."""
        if node_id == "namenode":
            return self.namenode.cpu
        node = self.datanodes.get(node_id)
        return node.cpu if node is not None else None

    def fault_disk(self, node_id: str):
        """The disk a chaos DiskDegrade should throttle for ``node_id``."""
        node = self.datanodes.get(node_id)
        return node.disk if node is not None else None

    # -- metrics -----------------------------------------------------------------------

    def false_dead_events(self, observe_from: float = 0.0) -> List:
        """Convictions of datanodes that were actually alive and running."""
        return [
            event for event in self.flaps.flaps
            if event.time >= observe_from
            and event.target in self.datanodes
            and self.datanodes[event.target].running
        ]

    def report(self, observe_from: float = 0.0) -> RunReport:
        """Build/return the report for this run or mode."""
        events = self.false_dead_events(observe_from)
        cpu = (self._shared_cpu if self._shared_cpu is not None
               else self.namenode.cpu)
        report = RunReport(
            mode=self.config.mode.value,
            bug=HDFS_BUG_ID,
            nodes=self.config.datanodes,
            vnodes=self.config.blocks_per_datanode,
            duration=self.sim.now,
            flaps=len(events),
            recoveries=self.flaps.recoveries,
            flap_events=events,
            calc_records=[r for r in self.calc_records
                          if r.time >= observe_from],
            messages_sent=self.network.sent,
            messages_delivered=self.network.delivered,
            messages_dropped=self.network.dropped,
            dropped_down=self.network.dropped_down,
            dropped_cut=self.network.dropped_cut,
            dropped_unknown_dst=self.network.dropped_unknown_dst,
            dropped_degraded=self.network.dropped_degraded,
            cpu_utilization=cpu.utilization(),
            cpu_peak_utilization=getattr(cpu, "peak_utilization", 0.0),
            mean_stretch=(cpu.mean_stretch()
                          if hasattr(cpu, "mean_stretch") else 1.0),
            max_stage_wait=self.namenode.inbox.max_wait,
            mean_stage_wait=self.namenode.inbox.mean_wait(),
            lock_max_hold=self.namenode.fsn_lock.max_hold,
            lock_max_wait=self.namenode.fsn_lock.max_wait,
            wall_seconds=(_time.perf_counter() - self._wall_started
                          if self._wall_started else 0.0),
        )
        executor = self.namenode.executor
        report.memo_hits = getattr(executor, "hits", 0)
        report.memo_misses = getattr(executor, "misses", 0)
        report.memo_conflicts = getattr(executor, "conflicts", 0)
        report.stage_lateness = stage_lateness(self)
        report.extra["reports_processed"] = float(
            self.namenode.reports_processed)
        report.extra["total_blocks"] = float(self.namenode.total_blocks())
        report.extra["storage_failures"] = float(
            sum(1 for dn in self.datanodes.values() if dn.failed_storage))
        if self._host_disk is not None:
            report.extra["disk_physical_used"] = float(
                self._host_disk.physical_used)
            report.extra["disk_logical_stored"] = float(
                self._host_disk.logical_stored)
        return report


def run_cold_start(cluster: HdfsCluster, observe: float = 60.0) -> RunReport:
    """The block-report storm: register everything, watch the lock wedge.

    All datanodes boot together; initial full block reports arrive within
    the stagger window and serialize under the namesystem lock.  At scale
    the heartbeat monitor starts declaring live datanodes dead.
    """
    cluster.build()
    cluster.start_all()
    cluster.run(until=observe)
    return cluster.report(observe_from=0.0)


def run_decommission(cluster: HdfsCluster, victims: int = 1,
                     warmup: float = 20.0,
                     observe: float = 60.0) -> RunReport:
    """Decommission datanodes: the replication monitor's O(B) scans."""
    cluster.build()
    cluster.start_all()
    cluster.run(until=warmup)
    names = sorted(cluster.datanodes)[-victims:]
    for name in names:
        cluster.namenode.start_decommission(name)
    cluster.run(until=warmup + observe)
    return cluster.report(observe_from=warmup)
