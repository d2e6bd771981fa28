"""Scenario drivers: the membership protocols exercised at scale.

The paper stresses (section 3) that scalability correctness is not only
about data paths: the studied bugs lived in *bootstrap, scale-out,
decommission, rebalance, and failover* protocols.  Each driver here runs
one of those protocols against a :class:`~repro.cassandra.cluster.Cluster`
and returns the :class:`~repro.cassandra.metrics.RunReport` used by the
figures:

* :func:`run_decommission` -- CASSANDRA-3831's trigger;
* :func:`run_scale_out`   -- CASSANDRA-3881 / 5456's trigger;
* :func:`run_bootstrap`   -- CASSANDRA-6127's fresh-bootstrap trigger;
* :func:`run_failover`    -- kill nodes, watch detection (sanity scenario).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from ..sim.kernel import Timeout
from ..sim.memory import OutOfMemoryError
from .bugs import Workload
from .cluster import Cluster, node_name
from .metrics import RunReport
from .node import Node
from .state import STATUS_BOOT, STATUS_LEAVING, STATUS_LEFT, STATUS_NORMAL


@dataclass(frozen=True)
class ScenarioParams:
    """Timing knobs shared by all scenarios (virtual seconds)."""

    #: Converged-cluster running time before the operation starts; lets
    #: failure-detector windows fill so warm-up artifacts do not count.
    warmup: float = 60.0
    #: Observation window after the operation starts (flaps are counted
    #: within it).
    observe: float = 240.0
    #: Streaming time between LEAVING and LEFT for a decommission.
    leaving_duration: float = 30.0
    #: Streaming time between BOOT and NORMAL for a join.
    join_duration: float = 30.0
    #: How many nodes join during scale-out (default: nodes // 4).
    join_count: Optional[int] = None
    #: Delay between consecutive join starts.
    join_stagger: float = 2.0
    #: Stagger window for fresh-bootstrap node starts.
    bootstrap_stagger: float = 5.0
    #: Nodes crashed by the failover scenario.
    crash_count: int = 1

    def scaled(self, factor: float) -> "ScenarioParams":
        """A time-scaled copy (shorter CI runs)."""
        return replace(
            self,
            warmup=self.warmup * factor,
            observe=self.observe * factor,
            leaving_duration=self.leaving_duration * factor,
            join_duration=self.join_duration * factor,
        )


def _membership_converged(cluster: Cluster, absent=(), normal=()) -> bool:
    """Cluster-wide convergence predicate for the monitor below."""
    for name in normal:
        if name not in cluster.nodes:
            return False
    for node in cluster.nodes.values():
        if not node.running:
            continue
        metadata = node.metadata
        if metadata.has_pending_changes():
            return False
        owners = set(metadata.token_to_endpoint.values())
        if any(endpoint in owners for endpoint in absent):
            return False
        if any(endpoint not in owners for endpoint in normal):
            return False
        if len(node.inbox) > 0 or len(node.calc_queue) > 0:
            return False
    return True


def _convergence_monitor(cluster: Cluster, absent=(), normal=(),
                         interval: float = 0.5):
    """Record when the membership operation has fully settled.

    Requires the predicate to hold on two consecutive ticks so a lull
    between in-flight messages is not mistaken for convergence.  The
    resulting ``protocol_time`` is the paper's run-duration metric: basic
    colocation converges late (or never, within the window), PIL replay
    converges like real-scale testing.
    """
    stable = 0
    while cluster.converged_at is None:
        if _membership_converged(cluster, absent, normal):
            stable += 1
            if stable >= 2:
                cluster.converged_at = cluster.sim.now
                return
        else:
            stable = 0
        yield Timeout(interval)


def _decommission_driver(node: Node, params: ScenarioParams,
                          delay: float = 0.0):
    """LEAVING -> (streaming) -> LEFT -> shutdown, announced via gossip."""
    if delay > 0.0:
        yield Timeout(delay)
    node.announce_status(STATUS_LEAVING)
    yield Timeout(params.leaving_duration)
    node.announce_status(STATUS_LEFT)
    # Keep gossiping LEFT for a grace period so the departure propagates.
    yield Timeout(10.0)
    node.stop()


def _join_driver(cluster: Cluster, node_id: str, delay: float,
                 params: ScenarioParams):
    """A new node appearing, bootstrapping, and reaching NORMAL."""
    yield Timeout(delay)
    node = cluster.add_node(node_id)
    if not cluster.start_node(node):
        return  # OOM on the colocation host
    node.announce_tokens()
    node.announce_status(STATUS_BOOT)
    yield Timeout(params.join_duration)
    node.announce_status(STATUS_NORMAL)


def spawn_decommission(cluster: Cluster, params: ScenarioParams,
                       delay: float = 0.0) -> str:
    """Decommission the highest-numbered initial member ``delay`` from now.

    The driver runs where the victim is hosted (everywhere, unless the
    scenario is split across clusters).  Returns the victim's id.
    """
    victim = node_name(cluster.config.nodes - 1)
    if cluster.hosts(victim):
        cluster.sim.spawn(
            _decommission_driver(cluster.nodes[victim], params, delay),
            name="decommission-driver")
    return victim


def spawn_scale_out(cluster: Cluster, params: ScenarioParams,
                    delay: float = 0.0) -> List[str]:
    """Start ``join_count`` (default: nodes // 4) staggered joins, the
    first ``delay`` from now, each where the joiner is hosted.  Returns
    the joiners' ids."""
    count = params.join_count
    if count is None:
        count = max(1, cluster.config.nodes // 4)
    joiners = [node_name(cluster.config.nodes + i) for i in range(count)]
    for i, new_id in enumerate(joiners):
        if cluster.hosts(new_id):
            cluster.sim.spawn(
                _join_driver(cluster, new_id,
                             delay + i * params.join_stagger, params),
                name=f"join-driver:{new_id}")
    return joiners


def _start_traffic(cluster: Cluster, traffic, params: ScenarioParams):
    """Attach a client-traffic engine for the observation window.

    ``traffic`` is a :class:`repro.workload.spec.WorkloadSpec`; the import
    is deferred because the workload package layers *above* this module.
    Returns the engine (to fill the report) or None when no traffic rides
    along.
    """
    if traffic is None:
        return None
    from ..workload.engine import WorkloadEngine
    engine = WorkloadEngine(cluster, traffic)
    engine.start(until=params.warmup + params.observe)
    return engine


def run_decommission(cluster: Cluster,
                     params: Optional[ScenarioParams] = None,
                     traffic=None) -> RunReport:
    """Decommission the highest-numbered node of an established cluster.

    ``traffic`` optionally runs a client workload (a ``WorkloadSpec``)
    concurrently with the membership change, so the report also shows the
    latency cost users pay during the decommission.
    """
    params = params or ScenarioParams()
    cluster.build_established()
    cluster.run(until=params.warmup)
    cluster.op_started_at = cluster.sim.now
    engine = _start_traffic(cluster, traffic, params)
    victim = spawn_decommission(cluster, params)
    cluster.sim.spawn(_convergence_monitor(cluster, absent=(victim,)),
                      name="convergence-monitor")
    cluster.run(until=params.warmup + params.observe)
    report = cluster.report(observe_from=params.warmup)
    if engine is not None:
        engine.fill_report(report)
    return report


def run_scale_out(cluster: Cluster,
                  params: Optional[ScenarioParams] = None) -> RunReport:
    """Add ``join_count`` new nodes to an established cluster."""
    params = params or ScenarioParams()
    cluster.build_established()
    cluster.run(until=params.warmup)
    cluster.op_started_at = cluster.sim.now
    joiners = spawn_scale_out(cluster, params)
    cluster.sim.spawn(_convergence_monitor(cluster, normal=tuple(joiners)),
                      name="convergence-monitor")
    cluster.run(until=params.warmup + params.observe)
    return cluster.report(observe_from=params.warmup)


def run_bootstrap(cluster: Cluster,
                  params: Optional[ScenarioParams] = None) -> RunReport:
    """Bootstrap the whole cluster from scratch (the CASSANDRA-6127 path).

    All nodes start knowing only the seeds; each announces BOOT within a
    stagger window and reaches NORMAL after its join duration.  With no
    established ring, the pending-range calculation takes the fresh
    ring-construction branch.
    """
    params = params or ScenarioParams()
    cluster.build_unjoined()

    def boot_driver(node: Node, delay: float):
        """Boot driver."""
        yield Timeout(delay)
        node.announce_tokens()
        node.announce_status(STATUS_BOOT)
        yield Timeout(params.join_duration)
        node.announce_status(STATUS_NORMAL)

    cluster.op_started_at = cluster.sim.now
    all_names = tuple(cluster.nodes)
    for i, node in enumerate(cluster.nodes.values()):
        delay = cluster.sim.rng.uniform(
            f"bootstamp:{node.node_id}", 0.0, params.bootstrap_stagger
        )
        cluster.sim.spawn(boot_driver(node, delay), name=f"boot:{node.node_id}")
    cluster.sim.spawn(_convergence_monitor(cluster, normal=all_names),
                      name="convergence-monitor")
    cluster.run(until=params.observe)
    return cluster.report(observe_from=0.0)


def run_failover(cluster: Cluster,
                 params: Optional[ScenarioParams] = None,
                 traffic=None) -> RunReport:
    """Crash ``crash_count`` nodes of an established cluster and observe
    detection.  Convictions of genuinely dead nodes are correct behaviour;
    the interesting signal is collateral flaps of *live* nodes.

    ``traffic`` optionally runs a client workload during the window: the
    crashed-but-unconvicted replicas then surface as rpc-timeout latency
    in the report's p99 -- the user-visible face of slow detection."""
    params = params or ScenarioParams()
    cluster.build_established()
    cluster.run(until=params.warmup)
    victims = [
        node_name(cluster.config.nodes - 1 - i) for i in range(params.crash_count)
    ]
    engine = _start_traffic(cluster, traffic, params)
    for victim in victims:
        cluster.network.crash(victim)
        cluster.nodes[victim].stop()
    cluster.run(until=params.warmup + params.observe)
    report = cluster.report(observe_from=params.warmup)
    if engine is not None:
        engine.fill_report(report)
    dead = set(victims)
    report.extra["collateral_flaps"] = float(
        sum(1 for e in report.flap_events if e.target not in dead)
    )
    report.extra["true_detections"] = float(
        sum(1 for e in report.flap_events if e.target in dead)
    )
    return report


def run_rebalance(cluster: Cluster,
                  params: Optional[ScenarioParams] = None,
                  space_oblivious: bool = True,
                  rebalance_duration: float = 20.0) -> RunReport:
    """The section 6 rebalance anecdote, executed.

    An established cluster starts a rebalance during which every node
    allocates partition services on the colocation host: the buggy,
    space-oblivious code allocates ``(N-1) x P x 1.3 MB`` per node while
    the fixed code allocates only ``P x 1.3 MB``.  Nodes whose allocation
    fails crash (OOM) -- on a memory-tracked (colocated) cluster the bug
    kills colocation at factors the fix handles easily.  The transient
    allocations are freed when the rebalance completes.
    """
    params = params or ScenarioParams()
    cluster.build_established()
    cluster.run(until=params.warmup)
    cluster.op_started_at = cluster.sim.now
    profile = cluster.config.memory_profile
    vnodes = cluster.config.bug.vnodes
    nodes = cluster.config.nodes

    def rebalance_driver(node):
        if cluster.memory is not None:
            if space_oblivious:
                size = profile.rebalance_overallocation(nodes, vnodes)
            else:
                size = profile.rebalance_needed(vnodes)
            try:
                allocation = cluster.memory.allocate(
                    node.node_id, size, "rebalance-services")
            except OutOfMemoryError:
                # OOM: the node crashes mid-rebalance (section 6's story).
                # Only allocation failure means "crash and keep going" --
                # anything else (a bad size, an accounting bug) must
                # propagate instead of masquerading as an OOM casualty.
                cluster.crashed_for_oom.append(node.node_id)
                cluster.network.crash(node.node_id)
                node.stop()
                return
            yield Timeout(rebalance_duration)
            cluster.memory.free(allocation)
        else:
            yield Timeout(rebalance_duration)

    for node in list(cluster.nodes.values()):
        cluster.sim.spawn(rebalance_driver(node),
                          name=f"rebalance:{node.node_id}")
    cluster.run(until=params.warmup + params.observe)
    report = cluster.report(observe_from=params.warmup)
    report.extra["rebalance_oom_crashes"] = float(len(cluster.crashed_for_oom))
    return report


def run_workload(cluster: Cluster, workload: Workload,
                 params: Optional[ScenarioParams] = None) -> RunReport:
    """Dispatch on :class:`~repro.cassandra.bugs.Workload`."""
    if workload is Workload.DECOMMISSION:
        return run_decommission(cluster, params)
    if workload is Workload.SCALE_OUT:
        return run_scale_out(cluster, params)
    if workload is Workload.REBALANCE:
        return run_rebalance(cluster, params)
    if workload is Workload.BOOTSTRAP:
        return run_bootstrap(cluster, params)
    if workload is Workload.FAILOVER:
        return run_failover(cluster, params)
    raise ValueError(f"unknown workload {workload!r}")
