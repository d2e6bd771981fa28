"""Datanodes: heartbeats, block storage, and full block reports."""

from __future__ import annotations

from typing import List

from ..sim.cpu import CpuModel
from ..sim.disk import Disk, DiskFullError
from ..sim.kernel import Compute, Simulator, Timeout
from ..sim.network import Network
from .blocks import BlockReport, ReportedBlock, synthesize_blocks
from .namenode import (BLOCK_REPORT, HEARTBEAT, HEARTBEAT_INTERVAL,
                       NAMENODE_ID, REGISTER)


#: Period of a datanode's full block report.
REPORT_INTERVAL = 30.0


class DataNodeCosts:
    """CPU demand of datanode-side operations (seconds): constants, no run
    sets them."""

    heartbeat_send = 1e-5
    report_build_base = 5e-4
    report_build_per_block = 1e-6


class DataNode:
    """One storage node.

    Life cycle: register -> (optionally) write its block population to its
    disk -> initial full block report -> periodic heartbeats and re-reports.
    Writing data is where the Exalt axis bites: with faithful storage,
    colocated datanodes exhaust the host disk; with zero-byte emulation
    they do not (the section 4 comparison).
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        network: Network,
        cpu: CpuModel,
        disk: Disk,
        block_count: int,
        block_size: int,
        store_data: bool = True,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.network = network
        self.cpu = cpu
        self.disk = disk
        self.store_data = store_data
        self.blocks: List[ReportedBlock] = synthesize_blocks(
            node_id, block_count, block_size)
        self.running = False
        self.failed_storage = False
        self.reports_sent = 0
        self.heartbeats_sent = 0
        self._processes: List = []

    # -- lifecycle -----------------------------------------------------------------

    def start(self, initial_report_delay: float = 0.0) -> None:
        """Start the background process(es) (idempotent)."""
        if self.running:
            return
        self.running = True
        self._processes = [
            self.sim.spawn(self._boot(initial_report_delay),
                           name=f"dn-boot:{self.node_id}"),
            self.sim.spawn(self._heartbeat_task(),
                           name=f"dn-heartbeat:{self.node_id}"),
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

    # -- tasks ----------------------------------------------------------------------

    def _boot(self, initial_report_delay: float):
        self.network.send(self.node_id, NAMENODE_ID, REGISTER, None)
        if self.store_data:
            try:
                for block in self.blocks:
                    yield from self.disk.write(block.block_id, self.node_id,
                                               block.size)
            except DiskFullError:
                # Out of host storage: the node's data never materializes
                # (basic colocation of I/O-heavy nodes at work).
                self.failed_storage = True
                self.blocks = []
        if initial_report_delay > 0:
            yield Timeout(initial_report_delay)
        while self.running:
            yield from self._send_report()
            yield Timeout(REPORT_INTERVAL)

    def _send_report(self):
        cost = (DataNodeCosts.report_build_base
                + DataNodeCosts.report_build_per_block * len(self.blocks))
        yield Compute(self.cpu, cost, tag=f"dn-report:{self.node_id}")
        report = BlockReport(datanode=self.node_id, blocks=tuple(self.blocks))
        self.network.send(self.node_id, NAMENODE_ID, BLOCK_REPORT, report)
        self.reports_sent += 1

    def _heartbeat_task(self):
        while self.running:
            yield Compute(self.cpu, DataNodeCosts.heartbeat_send,
                          tag=f"dn-hb:{self.node_id}")
            self.network.send(self.node_id, NAMENODE_ID, HEARTBEAT, None)
            self.heartbeats_sent += 1
            yield Timeout(HEARTBEAT_INTERVAL)
