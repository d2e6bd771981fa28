"""Colocation bottleneck analysis (paper sections 6 and 8).

PIL removes CPU-contention distortion, but packing N nodes on one machine
still hits three walls before 100% CPU: **memory exhaustion** (managed-
runtime overhead, per-thread stacks, space-oblivious over-allocation),
**context-switch/queuing delays** (thousands of daemon threads), and
eventually **CPU saturation**.  Section 8 reports a maximum colocation
factor of 512 on a 16-core/32 GB machine, with 600-node attempts failing on
one of: CPU > 90%, out-of-memory crashes, or high event lateness.

This module provides:

* an analytic :class:`ColocationAnalyzer` -- closed-form per-factor probes
  and a binary search for the maximum factor, for both the per-process
  ("basic colocation") and single-process event-driven ("scale-checkable
  redesign") deployments;
* :func:`probe_colocation_sim` -- a short idle-cluster simulation that
  validates the analytic model at small factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..cassandra.cluster import Cluster, ClusterConfig, MachineSpec, Mode
from ..cassandra.node import NodeCosts
from ..cassandra.pending_ranges import CalculatorVariant, CostConstants, calc_cost
from ..sim.memory import GB, MB

# Bottleneck labels (the section 8 trio).
CPU_CONTENTION = "cpu-contention"
MEMORY_EXHAUSTION = "memory-exhaustion"
EVENT_LATENESS = "event-lateness"


@dataclass
class NodeFootprint:
    """Per-node memory model on the colocation host (bytes).

    Defaults model the paper's redesigned-for-scale-check node: runtime
    overhead well below the 70 MB/process JVM baseline, plus state that
    grows with cluster size (endpoint states, ring entries).
    """

    runtime_bytes: int = 45 * MB
    per_endpoint_state: int = 4096
    per_ring_entry: int = 64
    #: Per-daemon-thread stack; zero for the single-process redesign.
    per_thread: int = 512 * 1024
    threads: int = 8

    def bytes_for(self, cluster_size: int, vnodes: int) -> int:
        """Total bytes one node consumes at this cluster size."""
        return (
            self.runtime_bytes
            + self.threads * self.per_thread
            + cluster_size * self.per_endpoint_state
            + cluster_size * vnodes * self.per_ring_entry
        )


def per_process_footprint() -> NodeFootprint:
    """Basic colocation: one managed-runtime process per node (70 MB)."""
    return NodeFootprint(runtime_bytes=70 * MB, per_thread=512 * 1024, threads=8)


def single_process_footprint() -> NodeFootprint:
    """The section 6 redesign: all nodes in one process, global event loop."""
    return NodeFootprint(runtime_bytes=45 * MB, per_thread=0, threads=0)


@dataclass
class SpaceObliviousFootprint(NodeFootprint):
    """Section 6's third bottleneck: "developers sometimes write simple,
    but inefficient and space-oblivious code; for example, in a rebalance
    protocol, each node over-allocates (N-1) x P x 1.3 MB partition
    services while only needing P x 1.3 MB".

    Layered on a base footprint, this adds the over-allocation term during
    an active rebalance; :func:`space_oblivious_footprint` and the
    colocation analyzer quantify how much colocation head-room the fix
    (allocating only what is needed) recovers.
    """

    partition_service_bytes: int = int(1.3 * MB)
    #: True models the bug ((N-1) x P services); False models the fix
    #: (P services).
    over_allocates: bool = True

    def bytes_for(self, cluster_size: int, vnodes: int) -> int:
        """Total bytes one node consumes at this cluster size."""
        base = super().bytes_for(cluster_size, vnodes)
        if self.over_allocates:
            services = max(0, cluster_size - 1) * vnodes
        else:
            services = vnodes
        return base + services * self.partition_service_bytes


def space_oblivious_footprint(over_allocates: bool = True
                              ) -> SpaceObliviousFootprint:
    """A single-process footprint plus rebalance partition services.

    The partition-service multiplicity is the analyzer's ``vnodes``
    parameter (the paper's P); with the bug active even small clusters
    exhaust DRAM, which is the section 6 anecdote.
    """
    base = single_process_footprint()
    return SpaceObliviousFootprint(
        runtime_bytes=base.runtime_bytes,
        per_endpoint_state=base.per_endpoint_state,
        per_ring_entry=base.per_ring_entry,
        per_thread=base.per_thread,
        threads=base.threads,
        over_allocates=over_allocates,
    )


@dataclass
class DemandModel:
    """Per-node CPU demand per second of the live (non-PIL) operations, at
    the simulator's own :class:`~repro.cassandra.node.NodeCosts`."""

    gossip_interval: float = 1.0
    exchanges_per_second: float = 3.0
    entries_per_message: float = 8.0
    #: When the offending calculation is live (no PIL), how often each node
    #: recalculates during an active membership protocol.
    calcs_per_second: float = 1.0
    calc_variant: Optional[CalculatorVariant] = None
    calc_constants: CostConstants = field(default_factory=CostConstants)
    vnodes: int = 1

    def per_node_demand(self, cluster_size: int, pil: bool) -> float:
        """CPU-seconds of demand per node per wall second."""
        per_round = (NodeCosts.gossip_round_base
                     + NodeCosts.per_digest * cluster_size)
        per_check = (NodeCosts.check_base
                     + NodeCosts.per_liveness_check * cluster_size)
        per_message = (NodeCosts.message_base
                       + NodeCosts.per_entry * self.entries_per_message)
        demand = (per_round + per_check) / self.gossip_interval
        demand += per_message * self.exchanges_per_second
        if not pil and self.calc_variant is not None:
            cost = calc_cost(
                self.calc_variant, cluster_size,
                cluster_size * self.vnodes, 1, self.calc_constants,
            )
            demand += cost * self.calcs_per_second
        return demand


@dataclass
class ColocationProbe:
    """Feasibility of one colocation factor."""

    factor: int
    cpu_utilization: float
    memory_bytes: int
    memory_fraction: float
    event_lateness: float       # expected queueing delay, seconds
    threads: int
    bottlenecks: List[str]

    @property
    def ok(self) -> bool:
        """True when no bottleneck binds at this factor."""
        return not self.bottlenecks


class ColocationAnalyzer:
    """Closed-form colocation feasibility model."""

    def __init__(
        self,
        machine: Optional[MachineSpec] = None,
        footprint: Optional[NodeFootprint] = None,
        demand: Optional[DemandModel] = None,
        pil: bool = True,
        vnodes: int = 256,
        cpu_limit: float = 0.90,
        lateness_limit: float = 1.0,
        reserved_dram: int = 2 * GB,
        context_switch_coeff: float = 0.0002,
    ) -> None:
        self.machine = machine or MachineSpec()
        self.footprint = footprint or (
            single_process_footprint() if pil else per_process_footprint()
        )
        self.demand = demand or DemandModel(vnodes=vnodes)
        self.pil = pil
        self.vnodes = vnodes
        self.cpu_limit = cpu_limit
        self.lateness_limit = lateness_limit
        self.reserved_dram = reserved_dram
        self.context_switch_coeff = context_switch_coeff

    def probe(self, factor: int) -> ColocationProbe:
        """Evaluate one colocation factor against the three bottlenecks."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        memory = factor * self.footprint.bytes_for(factor, self.vnodes)
        available = self.machine.dram_bytes - self.reserved_dram
        threads = factor * self.footprint.threads
        # Context-switch efficiency loss once runnable threads exceed cores.
        excess = max(0, threads - self.machine.cores)
        efficiency = 1.0 / (1.0 + self.context_switch_coeff * excess)
        raw_demand = factor * self.demand.per_node_demand(factor, pil=self.pil)
        utilization = raw_demand / (self.machine.cores * efficiency)
        # M/M/1-flavoured queueing estimate for event lateness.
        service = self.demand.per_node_demand(factor, pil=self.pil)
        if utilization < 1.0:
            lateness = service * utilization / (1.0 - utilization)
        else:
            lateness = float("inf")
        bottlenecks = []
        if memory > available:
            bottlenecks.append(MEMORY_EXHAUSTION)
        if utilization > self.cpu_limit:
            bottlenecks.append(CPU_CONTENTION)
        if lateness > self.lateness_limit:
            bottlenecks.append(EVENT_LATENESS)
        return ColocationProbe(
            factor=factor,
            cpu_utilization=utilization,
            memory_bytes=memory,
            memory_fraction=memory / self.machine.dram_bytes,
            event_lateness=lateness,
            threads=threads,
            bottlenecks=bottlenecks,
        )

    def max_colocation_factor(self, hi: int = 4096) -> int:
        """Largest feasible factor (binary search; 0 if even 1 fails)."""
        if not self.probe(1).ok:
            return 0
        lo = 1
        while lo < hi and self.probe(hi).ok:
            lo, hi = hi, hi * 2
            if hi > 1 << 20:  # pragma: no cover - guard against bad models
                return lo
        # invariant: probe(lo).ok and not probe(hi).ok
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.probe(mid).ok:
                lo = mid
            else:
                hi = mid
        return lo


def probe_colocation_sim(
    factor: int,
    duration: float = 20.0,
    machine: Optional[MachineSpec] = None,
    seed: int = 11,
) -> ColocationProbe:
    """Short idle-cluster simulation probe (validates the analytic model).

    Runs ``factor`` established nodes in COLO mode with no membership
    operation and measures actual utilization, memory, and gossip-round
    lateness from the simulator.
    """
    config = ClusterConfig.for_bug("c3831-fixed", nodes=factor, mode=Mode.COLO,
                                   seed=seed)
    if machine is not None:
        config.machine = machine
    cluster = Cluster(config)
    cluster.build_established()
    cluster.run(until=duration)
    cpu = cluster._shared_cpu
    utilization = cpu.utilization() if cpu is not None else 0.0
    lateness = max(
        (node.round_lateness_max for node in cluster.nodes.values()), default=0.0
    )
    memory = cluster.memory.peak if cluster.memory else 0
    bottlenecks = []
    if cluster.crashed_for_oom:
        bottlenecks.append(MEMORY_EXHAUSTION)
    if utilization > 0.90:
        bottlenecks.append(CPU_CONTENTION)
    if lateness > 1.0:
        bottlenecks.append(EVENT_LATENESS)
    return ColocationProbe(
        factor=factor,
        cpu_utilization=utilization,
        memory_bytes=memory,
        memory_fraction=(memory / config.machine.dram_bytes),
        event_lateness=lateness,
        threads=0,
        bottlenecks=bottlenecks,
    )
