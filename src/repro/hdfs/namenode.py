"""The namenode: global namesystem lock, block map, heartbeat monitor.

The HDFS-family scalability bugs in the study share one shape: an O(B) or
O(B*N) computation (full block-report processing, replication-monitor
scans) runs **under the global namesystem lock**, heartbeat handling queues
behind it, and the heartbeat monitor -- which keeps running -- declares
live datanodes dead.  This is the same global-cascade structure as
Cassandra's gossip bugs, with a lock instead of a single-threaded stage,
which is exactly why the paper argues the class generalizes across systems.

The block-report processing goes through the same executor seam as
Cassandra's pending-range calculation, so the scale-check machinery
(memoize -> PIL replay) applies unchanged -- the paper's section 7 goal of
"integrating the process to other distributed systems beyond Cassandra".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..annotations import lock_protects, scale_dependent
from ..cassandra.metrics import CalcRecord, FlapCounter
from ..cassandra.node import CalcExecutor, CalcRequest, DirectExecutor
from ..sim.cpu import CpuModel
from ..sim.kernel import Acquire, Channel, Compute, Get, Simulator, Timeout
from ..sim.network import Message, Network
from .blocks import BlockReport

# Scale annotations for the HDFS model: the block population B and the
# datanode population D are the axes the namenode's offending paths grow
# along.  ``blocks`` covers the per-report block lists (BlockReport.blocks)
# as well as the global map.
scale_dependent(
    "block_map",
    "blocks",
    var="B",
    note="block population: global block map / full block-report contents",
)
scale_dependent(
    "datanodes",
    var="D",
    note="registered datanode descriptors",
)
# The global namesystem lock owns both structures.  The heartbeat monitor's
# deliberately lock-free descriptor reads (the mechanism that lets wedged
# report processing flap healthy datanodes) are baseline-suppressed, not
# exempted.
lock_protects("fsn_lock", "block_map", "datanodes",
              note="global namesystem (FSNamesystem) lock")

# Message kinds.
REGISTER = "dn-register"
HEARTBEAT = "dn-heartbeat"
BLOCK_REPORT = "dn-block-report"

#: Identity under which block-report processing is memoized.
REPORT_FUNC_ID = "hdfs.processBlockReport"


def serialize_report_outcome(outcome: dict) -> dict:
    """Report-processing outputs are already JSON-safe."""
    return dict(outcome)


def deserialize_report_outcome(data: dict) -> dict:
    """Inverse of :func:`serialize_report_outcome`."""
    return dict(data)


@dataclass
class HdfsCosts:
    """CPU demand of namenode operations (seconds)."""

    heartbeat_process: float = 2e-5
    register_process: float = 1e-4
    report_base: float = 2e-3
    #: Per-block processing cost of a full block report -- the offending,
    #: scale-dependent term (O(B) under the global lock).
    report_per_block: float = 8e-5
    monitor_base: float = 2e-5
    monitor_per_datanode: float = 5e-7
    #: Replication-monitor scan per known block while a decommission is in
    #: flight (the HDFS decommission bugs' O(B) term).
    replication_scan_per_block: float = 2e-6


@dataclass
class DatanodeDescriptor:
    """Namenode-side view of one datanode."""

    node_id: str
    registered_at: float
    last_heartbeat: float
    alive: bool = True
    decommissioning: bool = False
    blocks_reported: int = 0
    reports_processed: int = 0


class NameNode:
    """The metadata master.

    Exposes ``node_id`` / ``cpu`` / ``sim`` so the generic PIL executors
    treat it like any other node at the calculation seam.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        cpu: CpuModel,
        flaps: FlapCounter,
        executor: Optional[CalcExecutor] = None,
        costs: Optional[HdfsCosts] = None,
        calc_records: Optional[List[CalcRecord]] = None,
        dead_timeout: float = 10.0,
        heartbeat_interval: float = 1.0,
        node_id: str = "namenode",
    ) -> None:
        self.sim = sim
        self.network = network
        self.cpu = cpu
        self.flaps = flaps
        self.executor = executor if executor is not None else DirectExecutor()
        self.costs = costs or HdfsCosts()
        self.calc_records = calc_records if calc_records is not None else []
        self.dead_timeout = dead_timeout
        self.heartbeat_interval = heartbeat_interval
        self.node_id = node_id
        self.inbox: Channel = sim.channel("inbox:namenode")
        self.fsn_lock = sim.lock("fsn-lock")
        network.register(node_id, self.inbox)
        self.datanodes: Dict[str, DatanodeDescriptor] = {}
        #: block id -> (size, replica set)
        self.block_map: Dict[str, Tuple[int, Set[str]]] = {}
        self.running = False
        self._processes: List = []
        self.reports_processed = 0
        self.heartbeats_processed = 0

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Start the background process(es) (idempotent)."""
        if self.running:
            return
        self.running = True
        self._processes = [
            self.sim.spawn(self._service_loop(), name="nn-service"),
            self.sim.spawn(self._heartbeat_monitor(), name="nn-monitor"),
            self.sim.spawn(self._replication_monitor(), name="nn-replication"),
        ]

    def stop(self) -> None:
        """Stop the component and detach it from the network."""
        if not self.running:
            return
        self.running = False
        self.network.deregister(self.node_id)
        for process in self._processes:
            process.interrupt()
        self._processes = []

    # -- message handling ------------------------------------------------------------

    def _service_loop(self):
        """Single RPC-handler thread: everything serializes on the lock."""
        while self.running:
            message: Message = yield Get(self.inbox)
            if message.kind == REGISTER:
                yield from self._handle_register(message)
            elif message.kind == HEARTBEAT:
                yield from self._handle_heartbeat(message)
            elif message.kind == BLOCK_REPORT:
                yield from self._handle_block_report(message)

    def _handle_register(self, message: Message):
        yield Acquire(self.fsn_lock)
        yield Compute(self.cpu, self.costs.register_process, tag="nn-register")
        now = self.sim.now
        self.datanodes[message.src] = DatanodeDescriptor(
            node_id=message.src, registered_at=now, last_heartbeat=now)
        self.fsn_lock.release()

    def _handle_heartbeat(self, message: Message):
        yield Acquire(self.fsn_lock)
        yield Compute(self.cpu, self.costs.heartbeat_process, tag="nn-heartbeat")
        descriptor = self.datanodes.get(message.src)
        if descriptor is not None:
            descriptor.last_heartbeat = self.sim.now
            if not descriptor.alive:
                descriptor.alive = True
                self.flaps.record_recovery(self.sim.now, self.node_id,
                                           message.src)
        self.heartbeats_processed += 1
        self.fsn_lock.release()

    def _handle_block_report(self, message: Message):
        """The offending path: O(blocks) processing under the global lock."""
        report: BlockReport = message.payload
        yield Acquire(self.fsn_lock)
        demand = (self.costs.report_base
                  + self.costs.report_per_block * len(report))
        request = CalcRequest(
            node_id=self.node_id,
            variant=None,
            input_key=report.content_key(),
            demand=demand,
            changes=len(report),
            time=self.sim.now,
            compute_output=lambda: self._report_outcome(report),
        )
        result = yield from self.executor.execute(self, request)
        outcome, elapsed = result
        self._apply_report(report)
        self.calc_records.append(CalcRecord(
            time=request.time, node=self.node_id, variant="block-report",
            input_key=request.input_key, demand=demand, elapsed=elapsed,
            changes=len(report),
        ))
        self.reports_processed += 1
        self.fsn_lock.release()

    def _report_outcome(self, report: BlockReport) -> dict:
        """The memoizable output of report processing: a delta summary."""
        known = 0
        for block in report.blocks:
            if block.block_id in self.block_map:
                known += 1
        return {
            "datanode": report.datanode,
            "blocks": len(report),
            "new": len(report) - known,
            "bytes": report.total_bytes(),
        }

    def _apply_report(self, report: BlockReport) -> None:
        """Cheap state installation (kept live under PIL: not the cost)."""
        for block in report.blocks:
            size, replicas = self.block_map.get(block.block_id,
                                                (block.size, set()))
            replicas.add(report.datanode)
            self.block_map[block.block_id] = (size, replicas)
        descriptor = self.datanodes.get(report.datanode)
        if descriptor is not None:
            descriptor.blocks_reported = len(report)
            descriptor.reports_processed += 1

    # -- monitors ----------------------------------------------------------------------

    def _heartbeat_monitor(self):
        """Declares datanodes dead on heartbeat silence.

        Runs on its own task and does NOT need the lock to read descriptor
        timestamps (mirrors the monitor thread structure): it keeps firing
        while the service loop is wedged behind a block report -- which is
        precisely how healthy datanodes get declared dead at scale.
        """
        while self.running:
            cost = (self.costs.monitor_base
                    + self.costs.monitor_per_datanode * len(self.datanodes))
            yield Compute(self.cpu, cost, tag="nn-monitor")
            now = self.sim.now
            for descriptor in self.datanodes.values():
                if (descriptor.alive
                        and now - descriptor.last_heartbeat > self.dead_timeout):
                    descriptor.alive = False
                    self.flaps.record_conviction(now, self.node_id,
                                                 descriptor.node_id)
            yield Timeout(self.heartbeat_interval)

    def _replication_monitor(self):
        """O(B) block-map scan per tick while any decommission is pending."""
        while self.running:
            yield Timeout(3.0)
            if not any(d.decommissioning for d in self.datanodes.values()):
                continue
            yield Acquire(self.fsn_lock)
            demand = (self.costs.replication_scan_per_block
                      * max(1, len(self.block_map)))
            yield Compute(self.cpu, demand, tag="nn-replication-scan")
            for descriptor in self.datanodes.values():
                if not descriptor.decommissioning:
                    continue
                remaining = sum(
                    1 for __, replicas in self.block_map.values()
                    if descriptor.node_id in replicas)
                if remaining == 0:
                    descriptor.decommissioning = False
            self.fsn_lock.release()

    # -- operations -------------------------------------------------------------------------

    def start_decommission(self, datanode_id: str) -> None:
        """Mark ``datanode_id`` as decommissioning."""
        descriptor = self.datanodes.get(datanode_id)
        if descriptor is None:
            raise KeyError(datanode_id)
        descriptor.decommissioning = True

    # -- introspection ------------------------------------------------------------------------

    def live_datanodes(self) -> List[str]:
        """Sorted datanodes currently believed alive."""
        return sorted(d.node_id for d in self.datanodes.values() if d.alive)

    def dead_datanodes(self) -> List[str]:
        """Sorted datanodes currently believed dead."""
        return sorted(d.node_id for d in self.datanodes.values() if not d.alive)

    def total_blocks(self) -> int:
        """Number of distinct blocks in the block map."""
        return len(self.block_map)
