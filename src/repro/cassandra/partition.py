"""Partitioned parallel simulation of the Cassandra model.

Breaks the single-simulator wall: the N nodes of one scenario are sharded
round-robin across K :class:`~repro.cassandra.cluster.Cluster` instances
that advance in conservative lockstep epochs (:mod:`repro.sim.partition`),
so one machine can run the N=2048 gossip scenarios the paper's section 8
colocation analysis asks about.  A shard is an ordinary ``Cluster`` given a
:class:`~repro.sim.partition.ShardFabric` as its network and told which
members it hosts; the builder, the scenario drivers, the fault model
(:class:`~repro.faults.FaultSchedule`) and the report assembly are the
classic runner's.  What lives here is what only a split run needs: the
spec, ownership, the lockstep coordinator, worker processes, and the merge.

The sharding is *deterministic by construction*: the same spec run with any
K -- including K=1, the serial baseline -- and with any worker count
produces a byte-identical canonical :class:`~repro.cassandra.metrics.
RunReport` (``tests/test_partition_determinism.py`` pins it):

* Node ``i`` lives in shard ``i % K``; every per-node random stream is
  derived from the root seed by name, so a node's draws do not depend on
  which shard hosts it.
* All messaging goes through the fabric: keyed (stateless) randomness, a
  latency floor of one epoch, and canonical ``(arrival, dst, key)``
  injection order at every barrier.
* Faults are quantized to the first barrier at or after their time and
  enacted in timeline order in every shard; cuts and degraded links are
  thereby replicated, node lifecycle happens where the node is hosted.
* The merged report is assembled in global sorted-node order regardless
  of K, so float accumulation order -- the usual parallel-reduction
  leak -- is fixed.

Against a classic run of the same scenario two fabric semantics differ
(identically for every K): message latency has a floor of one epoch, and
destination-down/unregistered drops are counted at arrival rather than at
send.  EXPERIMENTS.md tabulates the measured deviation.
"""

from __future__ import annotations

import time as _time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, List, Sequence

from ..faults import ClusterFaultTarget, FaultSchedule, Injector, LinkDegrade
from ..sim.partition import Flight, ShardFabric, fork_context
from .cluster import Cluster, ClusterConfig
from .metrics import RunParts, RunReport, assemble_report
from .workloads import ScenarioParams, spawn_decommission, spawn_scale_out

#: Scenario name -> the ``workloads`` function spawning its drivers.
_SCENARIOS = {
    "steady": None,
    "decommission": spawn_decommission,
    "join": spawn_scale_out,
}

#: Short membership timings sized for the few-virtual-second horizons
#: partitioned runs use; ``warmup`` is when the operation starts.
DEFAULT_PARAMS = ScenarioParams(warmup=2.0, leaving_duration=2.0,
                                join_duration=2.0, join_count=0,
                                join_stagger=0.5)


@dataclass(frozen=True)
class PartitionSpec:
    """Everything needed to run one partitioned scenario, picklable.

    ``workers`` is 0 (every shard in this process) or ``shards`` (one
    forked worker per shard); any other count is refused.
    """

    nodes: int
    shards: int = 1
    #: Lockstep window (virtual seconds); also the message-latency floor.
    epoch: float = 0.005
    #: The horizon.  The lockstep loop owns it: ``params.observe`` is unused.
    until: float = 8.0
    seed: int = 42
    bug: str = "c3831"
    workers: int = 0
    scenario: str = "steady"        # "steady" | "decommission" | "join"
    observe_from: float = 0.0
    params: ScenarioParams = DEFAULT_PARAMS
    #: Enacted at barriers, in every shard.
    faults: FaultSchedule = field(default_factory=FaultSchedule)

    def __post_init__(self) -> None:
        if self.nodes < self.shards or self.shards < 1:
            raise ValueError(
                f"need 1 <= shards <= nodes: {self.shards}/{self.nodes}")
        if self.workers not in (0, self.shards):
            raise ValueError(
                f"workers={self.workers} with shards={self.shards}: a forked "
                f"run has one worker per shard (use 0 or {self.shards})")
        if self.epoch <= 0.0 or self.until <= 0.0:
            raise ValueError("epoch and until must be positive")
        if self.scenario not in _SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        for event in self.faults:
            # A speed-up would let a message arrive before the next barrier
            # and break the conservative bound.
            if isinstance(event, LinkDegrade) and event.latency_mult < 1.0:
                raise ValueError("partitioned runs need latency_mult >= 1: "
                                 + event.describe())

    def cluster_config(self) -> ClusterConfig:
        """The :class:`ClusterConfig` every shard (and the merge) uses."""
        return ClusterConfig.for_bug(self.bug, nodes=self.nodes,
                                     seed=self.seed)


def owner_of(node_id: str, shards: int) -> int:
    """The shard owning ``node_id`` (round-robin over the node index)."""
    return int(node_id.split("-", 1)[1].split(":", 1)[0]) % shards


class Shard:
    """One :class:`Cluster` hosting ``nodes % K == index`` on a shard fabric.

    ``submit``/``result`` are the coordinator's handle protocol; an
    in-process shard does the work at ``submit``.
    """

    def __init__(self, spec: PartitionSpec, index: int) -> None:
        self.spec = spec
        self.index = index
        config = spec.cluster_config()
        self.cluster = Cluster(
            config,
            network=lambda sim: ShardFabric(sim, config.latency, spec.seed,
                                            spec.epoch),
            hosts=lambda node_id: owner_of(node_id, spec.shards) == index)
        self.cluster.build_established()
        spawn_drivers = _SCENARIOS[spec.scenario]
        if spawn_drivers is not None:
            spawn_drivers(self.cluster, spec.params, delay=spec.params.warmup)
        self.injector = Injector(spec.faults, ClusterFaultTarget(self.cluster))
        self.injector.bind(self.cluster.sim)
        #: Locally-addressed flights held for the next barrier's inject.
        self._local_hold: List[Flight] = []
        self._reply: Any = None

    def advance(self, inbound: List[Flight],
                next_barrier: float) -> List[Flight]:
        """One epoch: inject, enact due faults, run; return outbound flights.

        Called with the simulator sitting exactly at the previous barrier.
        Injection happens before faults so the per-barrier order is fixed;
        arrival-time fault checks read fabric state when the arrival event
        fires, so the relative order cannot leak into delivery outcomes.
        """
        fabric = self.cluster.network
        fabric.inject(self._local_hold + inbound)
        self._local_hold = []
        self.injector.enact_due()
        self.cluster.sim.run(until=next_barrier)
        outbound: List[Flight] = []
        shards = self.spec.shards
        for flight in fabric.collect():
            if owner_of(flight[1].dst, shards) == self.index:
                self._local_hold.append(flight)
            else:
                outbound.append(flight)
        return outbound

    def finish(self) -> RunParts:
        """Snapshot this shard's metrics for the merge."""
        return self.cluster.harvest()

    def submit(self, method: str, *args) -> None:
        """Run one lockstep command now and hold its reply."""
        self._reply = getattr(self, method)(*args)

    def result(self) -> Any:
        """The reply of the last submitted command."""
        return self._reply


# -- the merge ------------------------------------------------------------------


def merge_results(spec: PartitionSpec,
                  results: Sequence[RunParts]) -> RunReport:
    """Fold per-shard parts into one deterministic :class:`RunReport`.

    Everything is put in global sorted-node (or sorted-event) order before
    assembly, so the output -- float sums included -- is independent of how
    nodes were sharded and of which process produced each piece.
    """
    stats = {}
    counts: Counter = Counter()
    for result in results:
        stats.update(result.node_stats)
        counts.update(result.counts)
    merged = RunParts(
        duration=max(result.duration for result in results),
        steps=sum(result.steps for result in results),
        counts=counts,
        flap_events=sorted(
            (event for result in results for event in result.flap_events),
            key=lambda e: (e.time, e.observer, e.target)),
        # Stable, and one node's records all come from one shard: equal
        # (time, node) keys keep their recorded order.
        calc_records=sorted(
            (record for result in results for record in result.calc_records),
            key=lambda r: (r.time, r.node)),
        node_stats={name: stats[name] for name in sorted(stats)},
    )
    report = assemble_report(spec.cluster_config(), merged, spec.observe_from)
    # Deliberately no shard/worker count here: the canonical report must
    # be byte-identical across K.  The total step count *is* K-invariant
    # (every event fires in exactly one shard) and doubles as an extra
    # determinism witness.
    report.extra["epoch"] = spec.epoch
    report.extra["steps"] = float(merged.steps)
    return report


# -- lockstep coordination ------------------------------------------------------


def _barriers(spec: PartitionSpec) -> List[float]:
    """Barrier times: epoch multiples, the horizon always last."""
    barriers: List[float] = []
    k = 1
    while True:
        b = k * spec.epoch
        if b >= spec.until:
            break
        barriers.append(b)
        k += 1
    barriers.append(spec.until)
    return barriers


class ShardWorkerError(RuntimeError):
    """A shard's worker process failed; names the shard and the command."""


def _worker_main(conn, spec: PartitionSpec, index: int) -> None:
    """Worker-process loop: build one shard, serve lockstep commands.

    Any failure is shipped to the coordinator as ``("error", traceback)``
    in place of the pending reply, then the worker exits.
    """
    try:
        shard = Shard(spec, index)
        while True:
            method, args = conn.recv()
            shard.submit(method, *args)
            conn.send(("ok", shard.result()))
            if method == "finish":
                break
    except (EOFError, KeyboardInterrupt):
        pass  # the coordinator hung up
    except Exception:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


class _WorkerHandle:
    """Shard handle living in a forked worker process."""

    def __init__(self, ctx, spec: PartitionSpec, index: int) -> None:
        self._index = index
        self._command = "build"
        self._conn, child = ctx.Pipe(duplex=True)
        self._process = ctx.Process(
            target=_worker_main, args=(child, spec, index),
            name=f"shard-{index}", daemon=True)
        self._process.start()
        child.close()

    def submit(self, method: str, *args) -> None:
        self._command = f"{method}(until={args[-1]:g})" if args else method
        try:
            self._conn.send((method, args))
        except OSError:
            pass  # the worker is gone; result() reports why

    def result(self) -> Any:
        try:
            status, reply = self._conn.recv()
        except EOFError:
            self._process.join(timeout=5)
            status, reply = "error", (
                f"worker exited (code {self._process.exitcode}) "
                "without replying")
        if status == "error":
            raise ShardWorkerError(
                f"shard {self._index} failed, last command "
                f"{self._command}:\n{reply}")
        return reply

    def close(self) -> None:
        """Hang up and reap the worker.

        After ``finish`` it exits by itself.  Abandoned mid-run it may be
        inside an epoch, or blocked reading a pipe whose far end its
        forked siblings also hold, so it is terminated outright.
        """
        self._conn.close()
        if self._command != "finish":
            self._process.terminate()
        self._process.join(timeout=5)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join()


def _gather(handles: Sequence[Any]) -> List[Any]:
    return [handle.result() for handle in handles]


def _lockstep(spec: PartitionSpec, handles: Sequence[Any]) -> List[RunParts]:
    """Drive ``handles`` through every barrier; return their final parts.

    Each barrier scatters ``advance`` to every shard before gathering any
    reply, so worker processes run their epochs concurrently; replies are
    gathered and routed in shard order.
    """
    inbound: List[List[Flight]] = [[] for __ in range(spec.shards)]
    for barrier in _barriers(spec):
        for index, handle in enumerate(handles):
            handle.submit("advance", inbound[index], barrier)
        inbound = [[] for __ in range(spec.shards)]
        for outbound in _gather(handles):
            for flight in outbound:
                inbound[owner_of(flight[1].dst, spec.shards)].append(flight)
    for handle in handles:
        handle.submit("finish")
    return _gather(handles)


def run_partitioned(spec: PartitionSpec) -> RunReport:
    """Run one partitioned scenario end to end and merge the report.

    ``spec.workers == 0`` interleaves all shards in this process (the
    reference mode); ``spec.workers == spec.shards`` runs each shard in
    its own forked worker.  Both paths execute the identical per-barrier
    sequence, so their reports are byte-identical.
    """
    started = _time.perf_counter()
    ctx = fork_context() if spec.workers > 0 else None
    handles: List[Any] = []
    try:
        for index in range(spec.shards):
            handles.append(Shard(spec, index) if ctx is None
                           else _WorkerHandle(ctx, spec, index))
        results = _lockstep(spec, handles)
    finally:
        if ctx is not None:
            for handle in handles:
                handle.close()
    report = merge_results(spec, results)
    report.wall_seconds = _time.perf_counter() - started
    return report
