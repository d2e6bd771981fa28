"""Bridging the ad-hoc cluster statistics into the metrics registry.

The kernel's :class:`~repro.sim.kernel.Channel` / ``Lock``, the network's
per-reason drop counters, the CPU models, the gossiper, the failure
detector, and the memo DB each grew their own counters organically.  The
:class:`ClusterCollector` mirrors all of them into one
:class:`~repro.obs.registry.MetricsRegistry` under stable metric names, so
a run can be sampled per virtual-time window (``collect`` at interval
boundaries, then :meth:`window` for the delta) without any of those
subsystems knowing the registry exists.

Duck-typed over both cluster families, like the doctor and the fault
injector: the Cassandra family exposes ``nodes`` with per-node
``inbox``/``calc_queue``/``ring_lock``; the HDFS family exposes
``namenode``/``datanodes``.
"""

from __future__ import annotations

from typing import List, Optional

from .registry import MetricsRegistry, MetricsSnapshot


class ClusterCollector:
    """Samples one cluster's statistics into a metrics registry."""

    def __init__(self, cluster, registry: Optional[MetricsRegistry] = None) -> None:
        self.cluster = cluster
        self.registry = registry if registry is not None else MetricsRegistry()
        self.snapshots: List[MetricsSnapshot] = []

    # -- per-subsystem mirrors ----------------------------------------------

    def _mirror_queue(self, stage: str, channels) -> None:
        reg = self.registry
        reg.counter("queue.enqueued", stage=stage).set_total(
            sum(ch.total_enqueued for ch in channels))
        reg.counter("queue.wait_seconds", stage=stage).set_total(
            sum(ch.total_wait for ch in channels))
        reg.gauge("queue.depth", stage=stage).set(
            sum(len(ch) for ch in channels))
        reg.gauge("queue.max_depth", stage=stage).set(
            max((ch.max_depth for ch in channels), default=0))
        reg.gauge("queue.max_wait", stage=stage).set(
            max((ch.max_wait for ch in channels), default=0.0))

    def _mirror_lock(self, name: str, locks) -> None:
        reg = self.registry
        reg.counter("lock.hold_seconds", lock=name).set_total(
            sum(lk.total_hold for lk in locks))
        reg.counter("lock.wait_seconds", lock=name).set_total(
            sum(lk.total_wait for lk in locks))
        reg.counter("lock.contended_acquires", lock=name).set_total(
            sum(lk.contended_acquires for lk in locks))
        reg.counter("lock.forced_releases", lock=name).set_total(
            sum(getattr(lk, "forced_releases", 0) for lk in locks))
        reg.gauge("lock.max_hold", lock=name).set(
            max((lk.max_hold for lk in locks), default=0.0))

    def _mirror_network(self) -> None:
        net = getattr(self.cluster, "network", None)
        if net is None:
            return
        reg = self.registry
        reg.counter("net.sent").set_total(net.sent)
        reg.counter("net.delivered").set_total(net.delivered)
        reg.counter("net.batched_sends").set_total(
            getattr(net, "batched_sends", 0))
        reg.counter("net.batch_deliveries").set_total(
            getattr(net, "batch_deliveries", 0))
        reg.gauge("net.max_batch").set(getattr(net, "max_batch", 0))
        for reason, count in net.drop_reasons().items():
            reg.counter("net.dropped", reason=reason).set_total(count)

    def _mirror_scheduler(self) -> None:
        """Event-queue counters: compactions, stored and live entries."""
        sim = getattr(self.cluster, "sim", None)
        events = getattr(sim, "events", None)
        if events is None:
            return
        reg = self.registry
        reg.counter("sched.compactions").set_total(events.compactions)
        reg.gauge("sched.storage").set(events.storage_size())
        reg.gauge("sched.live").set(len(events))

    def _mirror_cpus(self, cpus) -> None:
        reg = self.registry
        for cpu in cpus:
            name = getattr(cpu, "name", "cpu")
            reg.gauge("cpu.utilization", cpu=name).set(cpu.utilization())
            reg.counter("cpu.busy_core_seconds", cpu=name).set_total(
                getattr(cpu, "busy_core_seconds", 0.0))
            reg.counter("cpu.contention_seconds", cpu=name).set_total(
                getattr(cpu, "contention_seconds", 0.0))
            reg.gauge("cpu.peak_jobs", cpu=name).set(
                getattr(cpu, "peak_jobs", 0))

    def _mirror_flaps(self) -> None:
        flaps = getattr(self.cluster, "flaps", None)
        if flaps is None:
            return
        self.registry.counter("flaps.total").set_total(flaps.total)
        self.registry.counter("flaps.recoveries").set_total(flaps.recoveries)

    def _mirror_gossip(self, nodes) -> None:
        gossipers = [n.gossiper for n in nodes if hasattr(n, "gossiper")]
        if not gossipers:
            return
        reg = self.registry
        reg.counter("gossip.rounds").set_total(
            sum(g.rounds for g in gossipers))
        reg.counter("gossip.states_applied").set_total(
            sum(g.states_applied for g in gossipers))
        reg.gauge("gossip.unreachable").set(
            sum(len(g.unreachable_endpoints) for g in gossipers))
        reg.counter("fd.reports").set_total(
            sum(g.fd.stats.reports for g in gossipers))
        reg.counter("fd.convictions").set_total(
            sum(g.fd.stats.convictions for g in gossipers))
        reg.gauge("fd.max_phi").set(
            max((g.fd.stats.max_phi_seen for g in gossipers), default=0.0))

    def _mirror_races(self) -> None:
        """Sanitizer counters (present only when a RaceTracker is attached)."""
        tracker = getattr(getattr(self.cluster, "sim", None),
                          "race_tracker", None)
        if tracker is None:
            return
        reg = self.registry
        reg.counter("race.pairs").set_total(tracker.race_pairs)
        reg.counter("race.accesses").set_total(tracker.accesses)
        reg.gauge("race.sites").set(len(tracker.site_races))
        reg.counter("race.forced_releases").set_total(
            len(tracker.forced_release_records))
        for kind, count in sorted(tracker.races_by_kind.items()):
            reg.counter("race.by_kind", kind=kind).set_total(count)

    def _mirror_memo(self) -> None:
        executor = getattr(self.cluster, "executor", None)
        db = getattr(executor, "db", None)
        if db is None or not hasattr(db, "hit_rate"):
            return
        reg = self.registry
        reg.counter("memo.lookups").set_total(db.lookups)
        reg.counter("memo.hits").set_total(db.hits)
        reg.counter("memo.conflicts").set_total(getattr(db, "conflicts", 0))
        reg.gauge("memo.hit_rate").set(db.hit_rate())
        reg.gauge("memo.records").set(len(db))
        lru = getattr(executor, "lru", None)
        if lru is not None:
            reg.counter("memo.lru_hits").set_total(lru.lru_hits)
            reg.counter("memo.lru_misses").set_total(lru.lru_misses)
            reg.counter("memo.lru_evictions").set_total(lru.evictions)
            reg.gauge("memo.lru_hit_rate").set(lru.hit_rate())
            reg.gauge("memo.lru_size").set(len(lru))

    # -- sampling -------------------------------------------------------------

    def collect(self) -> MetricsSnapshot:
        """Mirror every subsystem now; returns (and stores) the snapshot."""
        cluster = self.cluster
        namenode = getattr(cluster, "namenode", None)
        if namenode is not None:
            self._mirror_queue("namenode", [namenode.inbox])
            self._mirror_lock("fsn", [namenode.fsn_lock])
            cpus = {id(namenode.cpu): namenode.cpu}
            for dn in getattr(cluster, "datanodes", {}).values():
                cpus.setdefault(id(dn.cpu), dn.cpu)
            self._mirror_cpus(cpus.values())
        else:
            nodes = list(cluster.nodes.values())
            self._mirror_queue("gossip", [n.inbox for n in nodes])
            self._mirror_queue("calc", [n.calc_queue for n in nodes])
            self._mirror_lock("ring", [n.ring_lock for n in nodes])
            cpus = {}
            for node in nodes:
                cpus.setdefault(id(node.cpu), node.cpu)
            self._mirror_cpus(cpus.values())
            self._mirror_gossip(nodes)
        self._mirror_network()
        self._mirror_scheduler()
        self._mirror_flaps()
        self._mirror_memo()
        self._mirror_races()
        snapshot = self.registry.snapshot(now=cluster.sim.now)
        self.snapshots.append(snapshot)
        return snapshot

    def window(self) -> Optional[MetricsSnapshot]:
        """Delta between the two most recent snapshots (None until two exist)."""
        if len(self.snapshots) < 2:
            return None
        return self.snapshots[-1].delta(self.snapshots[-2])

    def sampler(self, interval: float):
        """A kernel process that collects every ``interval`` virtual seconds.

        Spawn with ``cluster.sim.spawn(collector.sampler(5.0), name="obs")``.
        """
        from ..sim.kernel import Timeout  # local import: no cycle at module load

        def _run():
            while True:
                yield Timeout(interval)
                self.collect()

        return _run()


def record_lint_findings(findings, suppressed: int = 0,
                         registry: Optional[MetricsRegistry] = None
                         ) -> MetricsRegistry:
    """Mirror ``repro lint`` findings into a metrics registry.

    One ``lint.findings{rule,severity}`` counter per finding plus a
    ``lint.suppressed`` total, so CI dashboards track finding drift with
    the same instrument vocabulary as the run-time collectors.
    """
    registry = registry if registry is not None else MetricsRegistry()
    for finding in findings:
        registry.counter("lint.findings", rule=finding.rule,
                         severity=finding.severity).inc()
    registry.counter("lint.suppressed").set_total(suppressed)
    return registry


class SweepCollector:
    """Mirrors sweep-engine progress into a metrics registry.

    The sweep executor reports every grid point (executed or served from
    the incremental cache) and every recording event (MemoDB built vs
    reloaded), so a CI run's registry snapshot answers "how warm was the
    cache?" with the same instrument vocabulary the cluster collectors use:

    * ``sweep.points{status=executed|cached}`` -- grid-point counters;
    * ``sweep.memo{event=built|reused}``       -- recording reuse counters;
    * ``sweep.point_seconds{mode=...}``        -- host wall time histogram
      of executed points, per run mode.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    def point_finished(self, mode: str, cached: bool,
                       wall_seconds: float = 0.0) -> None:
        """Record one resolved grid point."""
        status = "cached" if cached else "executed"
        self.registry.counter("sweep.points", status=status).inc()
        if not cached:
            self.registry.histogram("sweep.point_seconds",
                                    mode=mode).observe(wall_seconds)

    def memo_built(self) -> None:
        """Record one basic-colocation recording executed and persisted."""
        self.registry.counter("sweep.memo", event="built").inc()

    def memo_reused(self) -> None:
        """Record one replay that reloaded a persisted recording."""
        self.registry.counter("sweep.memo", event="reused").inc()

    def counts(self) -> dict:
        """Current counter values (testing/report convenience)."""
        snapshot = self.registry.snapshot()
        return {
            "executed": snapshot.get("sweep.points{status=executed}"),
            "cached": snapshot.get("sweep.points{status=cached}"),
            "memo_built": snapshot.get("sweep.memo{event=built}"),
            "memo_reused": snapshot.get("sweep.memo{event=reused}"),
        }
