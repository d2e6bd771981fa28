"""Cluster assembly and the three scale-testing execution modes.

The paper's Figure 1 and Figure 3 compare three ways of running the same
N-node protocol test; :class:`Mode` makes them explicit:

* ``Mode.REAL`` -- real-scale testing: every node gets its own
  :class:`~repro.sim.cpu.DedicatedCpu` (2 cores, as on the paper's testbed).
* ``Mode.COLO`` -- basic colocation: all nodes share one
  :class:`~repro.sim.cpu.SharedCpu` machine (16 cores, 32 GB), so compute
  stretches under contention and flap counts are distorted.
* ``Mode.PIL`` -- PIL-infused replay: small live operations still share one
  machine, but the offending calculations are replaced with contention-free
  sleeps by a PIL executor (:mod:`repro.core.pil`).

A :class:`Cluster` owns the simulator, network, nodes, and metric sinks and
produces a :class:`~repro.cassandra.metrics.RunReport` when asked.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional

from ..sim.cpu import CpuModel, DedicatedCpu, SharedCpu
from ..sim.kernel import KernelObserver, Simulator
from ..sim.memory import GB, MachineMemory, NodeMemoryProfile, OutOfMemoryError, single_process_profile
from ..sim.network import LatencyModel, Network, OrderEnforcer
from .bugs import BugConfig, get_bug
from .gossip import GossipConfig
from .metrics import (
    CalcRecord,
    FlapCounter,
    NodeStats,
    RunParts,
    RunReport,
    assemble_report,
)
from .node import (
    CalcExecutor,
    DirectExecutor,
    Node,
    NodeCosts,
    SharedOutputCache,
)
from .pending_ranges import CostConstants
from .state import STATUS, STATUS_NORMAL, TOKENS
from .ring import TokenMetadata
from .state_columnar import EstablishedView, SharedClusterState
from .tokens import tokens_for_node


class Mode(str, Enum):
    """Execution mode of a scale test (Figure 1's three panels, plus the
    DieCast time-dilation baseline of section 4)."""

    REAL = "real"
    COLO = "colo"
    PIL = "pil"
    #: DieCast (Gupta et al., NSDI '08): colocate with a time-dilation
    #: factor -- every node's CPU is rate-capped to 1/TDF of real speed and
    #: all protocol timings stretch by TDF, so relative speeds (and hence
    #: behaviour) match real scale at the price of TDF x longer tests.
    DIECAST = "diecast"


@dataclass
class MachineSpec:
    """The colocation host (defaults: the paper's Nome machine)."""

    cores: int = 16
    dram_bytes: int = 32 * GB
    context_switch_coeff: float = 0.002


@dataclass
class ClusterConfig:
    """Everything needed to build a cluster for one scenario run."""

    bug: BugConfig
    nodes: int
    mode: Mode = Mode.REAL
    rf: int = 3
    seed: int = 42
    node_cores: int = 2
    machine: MachineSpec = field(default_factory=MachineSpec)
    gossip: GossipConfig = field(default_factory=GossipConfig)
    costs: NodeCosts = field(default_factory=NodeCosts)
    cost_constants: CostConstants = field(default_factory=CostConstants)
    latency: LatencyModel = field(default_factory=LatencyModel)
    #: Track memory on the colocation host (COLO/PIL modes).
    track_memory: bool = True
    #: DieCast time-dilation factor (only used in DIECAST mode).
    time_dilation: float = 1.0
    #: Attach the data path (read/write coordination) to every node.
    enable_storage: bool = False
    #: Node memory profile for COLO (one process per node).
    memory_profile: NodeMemoryProfile = field(default_factory=NodeMemoryProfile)

    @classmethod
    def for_bug(cls, bug_id: str, nodes: int, mode: Mode = Mode.REAL,
                **overrides) -> "ClusterConfig":
        """For bug."""
        return cls(bug=get_bug(bug_id), nodes=nodes, mode=mode, **overrides)


def node_name(index: int) -> str:
    """Canonical node id for ``index`` (``node-007`` style)."""
    return f"node-{index:03d}"


def phantom_blob(node_id: str, vnodes: int) -> tuple:
    """The gossip blob of an established-NORMAL remote peer.

    Bit-identical to ``own_state.to_blob()`` after
    :meth:`~repro.cassandra.node.Node.establish_normal` on a fresh node:
    generation 1, heartbeat version 0, TOKENS published at version 1 and
    STATUS NORMAL at version 2 (the partition suite pins the match).
    """
    tokens = tuple(tokens_for_node(node_id, vnodes))
    return (1, 0, ((STATUS, STATUS_NORMAL, 2, None),
                   (TOKENS, "", 1, tokens)))


class Cluster:
    """A simulated cluster plus all scale-check instrumentation hooks.

    Two seams let :mod:`repro.cassandra.partition` split one scenario
    across several clusters: ``network`` builds the fabric for this
    cluster's simulator (default: a :class:`~repro.sim.network.Network`
    honouring ``order_enforcer``) and ``hosts`` says which member ids
    live here.  The rest are *remote*: known through gossip state,
    reached through the fabric, never built, crashed or reported here.
    """

    def __init__(
        self,
        config: ClusterConfig,
        executor: Optional[CalcExecutor] = None,
        order_enforcer: Optional[OrderEnforcer] = None,
        observer: Optional[KernelObserver] = None,
        network: Optional[Callable[[Simulator], Network]] = None,
        hosts: Callable[[str], bool] = lambda node_id: True,
    ) -> None:
        self.config = config
        self.shared_state = SharedClusterState()
        self.sim = Simulator(seed=config.seed)
        if observer is not None:
            observer.attach(self.sim)
        self.network = (network(self.sim) if network is not None
                        else Network(self.sim, latency=config.latency,
                                     enforcer=order_enforcer))
        self.hosts = hosts
        self.flaps = FlapCounter()
        self.calc_records: List[CalcRecord] = []
        self.output_cache = SharedOutputCache()
        self.executor = executor if executor is not None else DirectExecutor()
        self.nodes: Dict[str, Node] = {}
        self.crashed_for_oom: List[str] = []
        self._shared_cpu: Optional[SharedCpu] = None
        self.memory: Optional[MachineMemory] = None
        if (config.mode in (Mode.COLO, Mode.PIL, Mode.DIECAST)
                and config.track_memory):
            self.memory = MachineMemory(config.machine.dram_bytes)
        self._wall_started = 0.0
        self.seeds = [node_name(i) for i in range(min(3, config.nodes))]
        #: Virtual time the scenario's operation started (set by workloads).
        self.op_started_at: Optional[float] = None
        #: Virtual time the membership operation fully converged cluster-wide
        #: (set by the workload's convergence monitor; None if censored).
        self.converged_at: Optional[float] = None

    # -- CPU placement ------------------------------------------------------------

    def _cpu_for_node(self, node_id: str) -> CpuModel:
        if self.config.mode is Mode.REAL:
            return DedicatedCpu(self.sim, cores=self.config.node_cores,
                                name=f"cpu:{node_id}")
        if self.config.mode is Mode.DIECAST:
            # Enforced per-node CPU share: 1/TDF of real speed.  No shared
            # machine object -- the share enforcement *is* the isolation
            # (validity requires N * node_cores / TDF <= machine cores).
            return DedicatedCpu(self.sim, cores=self.config.node_cores,
                                speed=1.0 / self.config.time_dilation,
                                name=f"dilated:{node_id}")
        if self._shared_cpu is None:
            self._shared_cpu = SharedCpu(
                self.sim,
                cores=self.config.machine.cores,
                context_switch_coeff=self.config.machine.context_switch_coeff,
                name="colo-machine",
            )
        return self._shared_cpu

    def _memory_profile(self) -> NodeMemoryProfile:
        if self.config.mode is Mode.PIL:
            # PIL replay runs the scale-checkable redesign: one process,
            # shared event loop (paper section 6).
            return single_process_profile(self.config.memory_profile)
        return self.config.memory_profile

    # -- node management ------------------------------------------------------------

    def add_node(self, node_id: str, generation: int = 1) -> Node:
        """Create (but do not start) a node."""
        if node_id in self.nodes:
            raise ValueError(f"duplicate node {node_id}")
        node = Node(
            sim=self.sim,
            node_id=node_id,
            network=self.network,
            cpu=self._cpu_for_node(node_id),
            seeds=self.seeds,
            tokens=tuple(tokens_for_node(node_id, self.config.bug.vnodes)),
            bug=self.config.bug,
            flaps=self.flaps,
            executor=self.executor,
            output_cache=self.output_cache,
            calc_records=self.calc_records,
            rf=self.config.rf,
            costs=self.config.costs,
            cost_constants=self.config.cost_constants,
            gossip_config=self.config.gossip,
            generation=generation,
            enable_storage=self.config.enable_storage,
            shared_state=self.shared_state,
        )
        self.nodes[node_id] = node
        return node

    def start_node(self, node: Node) -> bool:
        """Start a node, charging its memory footprint on the colocation
        host.  Returns False (node crashed) on OOM."""
        if self.memory is not None:
            profile = self._memory_profile()
            try:
                self.memory.allocate(node.node_id, profile.baseline(), "baseline")
                self.memory.allocate(
                    node.node_id,
                    profile.ring_table(self.config.nodes, self.config.bug.vnodes),
                    "ring-table",
                )
            except OutOfMemoryError:
                self.crashed_for_oom.append(node.node_id)
                self.network.deregister(node.node_id)
                return False
        node.start()
        return True

    def build_established(self) -> None:
        """Create the initial N nodes as an established, converged cluster.

        Every node already knows every other node's NORMAL state -- the
        long-running-cluster starting point of the decommission and
        scale-out scenarios.  What all observers would learn is the same,
        so it is built once -- the membership as gossip state
        (:class:`~repro.cassandra.state_columnar.EstablishedView`) and as
        ring -- and every node bulk-loads it, leaving stores, ring tables
        and failure detectors as the state-application path would, one
        peer at a time.  Only hosted members become nodes; they learn
        remote members from :func:`phantom_blob`.
        """
        names = [node_name(i) for i in range(self.config.nodes)]
        local = [name for name in names if self.hosts(name)]
        for name in local:
            self.add_node(name)
        for name in local:
            self.nodes[name].establish_normal()
        vnodes = self.config.bug.vnodes
        blobs = {
            name: (self.nodes[name].gossiper.own_state.to_blob()
                   if name in self.nodes else phantom_blob(name, vnodes))
            for name in names
        }
        view = EstablishedView(self.shared_state, blobs)
        ring = TokenMetadata(self.shared_state.token_tables)
        for name in names:
            ring.update_normal_tokens(name, view.tokens(name))
        for name in local:
            self.nodes[name].load_established(view, ring)
        for name in local:
            self.start_node(self.nodes[name])

    def build_unjoined(self) -> None:
        """Create N nodes that know only the seeds (fresh-bootstrap start)."""
        names = [node_name(i) for i in range(self.config.nodes)]
        for name in names:
            self.add_node(name)
        for name in names:
            self.start_node(self.nodes[name])

    # -- fault injection (the repro.faults seam) -----------------------------------

    def crash_node(self, node_id: str) -> bool:
        """Hard-kill a node: processes stop, traffic drops, memory is freed.

        Peers keep gossiping about the silent peer until their phi-accrual
        detectors convict it -- crash *detection* flows through the normal
        failure-detector path, not through any injector back-channel.
        Returns False for unknown or already-dead nodes, remote members
        included: the fabric consults down-ness only for a local source
        (send) or destination (arrival), so only the host has work to do.
        """
        node = self.nodes.get(node_id)
        if node is None or not node.running:
            return False
        self.network.crash(node_id)
        node.stop()
        if self.memory is not None:
            self.memory.free_owner(node_id)
        return True

    def restart_node(self, node_id: str) -> bool:
        """Boot a fresh incarnation of a crashed (or running) node.

        The replacement keeps the node id and token set but bumps the
        gossip generation, so peers observe a restart: their detectors see
        fresh heartbeats, record a recovery, and re-mark the node alive.
        Returns False when the node was never a member or OOMs on restart.
        """
        old = self.nodes.pop(node_id, None)
        if old is None:
            return False
        if old.running:  # a restart without a prior crash is a bounce
            old.stop()
            if self.memory is not None:
                self.memory.free_owner(node_id)
        self.network.recover(node_id)
        generation = old.gossiper.own_state.heartbeat.generation + 1
        node = self.add_node(node_id, generation=generation)
        node.establish_normal()
        return self.start_node(node)

    def fault_cpu(self, node_id: str) -> Optional[CpuModel]:
        """The CPU model chaos antagonists should stress for ``node_id``."""
        node = self.nodes.get(node_id)
        return node.cpu if node is not None else None

    def fault_disk(self, node_id: str):
        """Cassandra-model nodes have no per-node disk to throttle."""
        return None

    # -- execution ---------------------------------------------------------------------

    def run(self, until: float) -> None:
        """Advance the simulation to virtual time ``until``."""
        if self._wall_started == 0.0:
            self._wall_started = _time.perf_counter()
        self.sim.run(until=until)

    # -- reporting ---------------------------------------------------------------------

    def harvest(self) -> RunParts:
        """Snapshot every metric sink into picklable :class:`RunParts`,
        rows in ``self.nodes`` order."""
        reports_utilization = self.config.mode is not Mode.DIECAST
        seen = set()
        rows: Dict[str, NodeStats] = {}
        for name, node in self.nodes.items():
            cpu = node.cpu
            first = id(cpu) not in seen
            seen.add(id(cpu))
            reported = first and reports_utilization
            rows[name] = NodeStats(
                # Settles the CPU's integrator: first, and only if reported.
                utilization=cpu.utilization() if reported else None,
                peak_utilization=cpu.peak_utilization,
                stretch=(cpu.mean_stretch()
                         if reported and cpu.completed_jobs > 0 else None),
                cpu_contention=cpu.contention_seconds if first else None,
                inbox_max_wait=node.inbox.max_wait,
                inbox_mean_wait=node.inbox.mean_wait(),
                inbox_total_wait=node.inbox.total_wait,
                calcq_total_wait=node.calc_queue.total_wait,
                ring_total_wait=node.ring_lock.total_wait,
                ring_max_hold=node.ring_lock.max_hold,
                ring_max_wait=node.ring_lock.max_wait,
            )
        network = self.network
        memo = getattr(self.executor, "stats", dict)()
        counts = {
            "recoveries": self.flaps.recoveries,
            "messages_sent": network.sent,
            "messages_delivered": network.delivered,
            "dropped_down": network.dropped_down,
            "dropped_cut": network.dropped_cut,
            "dropped_unknown_dst": network.dropped_unknown_dst,
            "dropped_degraded": network.dropped_degraded,
            "memory_peak_bytes": self.memory.peak if self.memory else 0,
            "oom_count": len(self.crashed_for_oom),
            "memo_hits": int(memo.get("hits", 0)),
            "memo_misses": int(memo.get("misses", 0)),
            "memo_conflicts": int(memo.get("conflicts", 0)),
        }
        return RunParts(self.sim.now, self.sim.steps, counts,
                        list(self.flaps.flaps), list(self.calc_records), rows)

    def report(self, observe_from: float = 0.0) -> RunReport:
        """Snapshot all metrics into a :class:`RunReport`.

        ``observe_from`` excludes warm-up flaps (before the protocol under
        test started) from the headline count.
        """
        report = assemble_report(self.config, self.harvest(), observe_from)
        if self._wall_started:
            report.wall_seconds = _time.perf_counter() - self._wall_started
        if self.op_started_at is not None:
            # Protocol completion time: the DES analogue of the paper's
            # run-duration comparison (memoization slow, replay ~ real).
            # Censored at the observation window when never converged.
            if self.converged_at is not None:
                report.extra["protocol_time"] = (
                    self.converged_at - self.op_started_at)
                report.extra["converged"] = 1.0
            else:
                report.extra["protocol_time"] = self.sim.now - self.op_started_at
                report.extra["converged"] = 0.0
        if self.sim.observer is not None:
            report.extra.update(self.sim.observer.metrics())
        return report
