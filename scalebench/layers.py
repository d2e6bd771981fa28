"""The layer map: which public callables are timed, and what is reported.

``install`` runs in the traced child only.  It imports public names of
``repro`` and hands them to :class:`scalebench.spans.Tracer`; nothing under
``src/`` is edited.  ``layer_metrics`` turns the tracer's totals into the
per-layer metrics of ``BENCHMARK.json`` (same names, same order).

Every ``*_s`` figure is *self* time: the span's duration minus what its
child spans cover.  Work that has no public seam is charged to the caller
that has one: network delivery callbacks and CPU-model completions fire from
the kernel loop and land in ``sim.kernel.self_s``; the node stage loops
(generator bodies) land in ``sim.kernel.resume_self_s``.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import sys
from typing import Dict, List, Tuple

from .spans import Tracer

#: (name, unit, better) of every per-layer metric, in report order.  A
#: workload that does not exercise a layer reports 0 for it.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sim.kernel.self_s", "s", "lower"),
    ("sim.kernel.resume_self_s", "s", "lower"),
    ("sim.kernel.events", "count", "lower"),
    ("sim.kernel.resumes", "count", "lower"),
    ("sim.kernel.slice_ms_p50", "ms", "lower"),
    ("sim.kernel.slice_ms_p90", "ms", "lower"),
    ("sim.events.self_s", "s", "lower"),
    ("sim.events.calls", "count", "lower"),
    ("sim.network.self_s", "s", "lower"),
    ("sim.network.sent", "count", "lower"),
    ("sim.network.delivered", "count", "lower"),
    ("sim.network.dropped", "count", "lower"),
    ("sim.network.delivery_ratio", "ratio", "higher"),
    ("sim.cpu.self_s", "s", "lower"),
    ("sim.cpu.calls", "count", "lower"),
    ("cassandra.gossip.handle_self_s", "s", "lower"),
    ("cassandra.gossip.round_self_s", "s", "lower"),
    ("cassandra.gossip.convict_self_s", "s", "lower"),
    ("cassandra.gossip.messages_handled", "count", "lower"),
    ("cassandra.gossip.rounds", "count", "lower"),
    ("cassandra.gossip.states_applied", "count", "lower"),
    ("cassandra.gossip.useful_message_ratio", "ratio", "higher"),
    ("cassandra.failure_detector.self_s", "s", "lower"),
    ("cassandra.failure_detector.calls", "count", "lower"),
    ("cassandra.failure_detector.convictions", "count", "lower"),
    ("cassandra.state.populate_s", "s", "lower"),
    ("cassandra.state.rss_kb_per_pair", "kB", "lower"),
    ("cassandra.cluster.build_s", "s", "lower"),
    ("cassandra.cluster.report_s", "s", "lower"),
    ("cassandra.metrics.digest_s", "s", "lower"),
    ("cassandra.pending_ranges.self_s", "s", "lower"),
    ("cassandra.pending_ranges.calls", "count", "lower"),
    ("core.pil.execute_self_s", "s", "lower"),
    ("core.pil.executes", "count", "lower"),
    ("core.pil.hit_ratio", "ratio", "higher"),
    ("core.memoization.self_s", "s", "lower"),
    ("core.memoization.get_calls", "count", "lower"),
    ("core.memoization.put_calls", "count", "lower"),
    ("core.memoization.records", "count", "lower"),
    ("core.memoization.samples", "count", "lower"),
    ("core.scalecheck.real_s", "s", "lower"),
    ("core.scalecheck.memoize_s", "s", "lower"),
    ("core.scalecheck.replay_s", "s", "lower"),
    ("core.scalecheck.pil_flap_error", "ratio", "lower"),
    ("core.scalecheck.colo_flap_error", "ratio", "lower"),
    ("workload.engine.self_s", "s", "lower"),
    ("workload.engine.requests", "count", "higher"),
    ("workload.engine.requests_per_s", "1/s", "higher"),
    ("cassandra.storage.coord_self_s", "s", "lower"),
    ("cassandra.storage.reads", "count", "lower"),
    ("cassandra.storage.writes", "count", "lower"),
    ("cassandra.storage.request_fail_ratio", "ratio", "lower"),
    ("cassandra.partition.shard_setup_s", "s", "lower"),
    ("cassandra.partition.advance_s", "s", "lower"),
    ("cassandra.partition.merge_s", "s", "lower"),
    ("cassandra.partition.route_s", "s", "lower"),
    ("cassandra.partition.barriers", "count", "lower"),
    ("sim.partition.flights", "count", "lower"),
    ("sim.partition.cross_shard_ratio", "ratio", "lower"),
    ("sweep.executor.self_s", "s", "lower"),
    ("sweep.executor.points", "count", "lower"),
    ("sweep.cache.self_s", "s", "lower"),
    ("sweep.cache.get_calls", "count", "lower"),
    ("sweep.cache.put_calls", "count", "lower"),
    ("sweep.cache.hit_ratio", "ratio", "higher"),
    ("sweep.cache.warm_resolve_ms", "ms", "lower"),
    ("core.curves.fit_s", "s", "lower"),
    ("ci.gate.fit_self_s", "s", "lower"),
    ("bench.unattributed_ratio", "ratio", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
]

#: One call in this many (on average) is timed on the hottest entry points
#: (see ``install``).
SAMPLE_EVERY = 16

_PAGE_KB = os.sysconf("SC_PAGE_SIZE") / 1024.0


def rss_kb() -> float:
    """Current resident set of this process in kB."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * _PAGE_KB


def _import_submodules(package) -> None:
    for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _classes_defining(package, *attrs: str) -> List[type]:
    """Classes of ``package``'s loaded modules that define all ``attrs``."""
    prefix = package.__name__ + "."
    found = []
    for name, module in sorted(sys.modules.items()):
        if not name.startswith(prefix) or module is None:
            continue
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == name
                    and all(attr in vars(value) for attr in attrs)):
                found.append(value)
    return found


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (traced child only)."""
    import repro.cassandra
    import repro.core
    import repro.sim
    from repro.cassandra.cluster import Cluster
    from repro.cassandra.gossip import Gossiper
    from repro.cassandra.metrics import RunReport
    from repro.cassandra.node import CalcExecutor
    from repro.cassandra.partition import Shard, merge_results, run_partitioned
    from repro.cassandra.pending_ranges import compute_pending_ranges
    from repro.cassandra.storage import StorageService
    from repro.ci.gate import fit_scenario
    from repro.core.curves import fit_flap_curve, fit_metric_curve
    from repro.core.memoization import MemoDB, MemoLruFront
    from repro.sim.cpu import CpuModel
    from repro.sim.events import make_queue
    from repro.sim.kernel import Process, Simulator
    from repro.sim.network import Network
    from repro.sim.partition import ShardFabric
    from repro.sweep.cache import SweepCache
    from repro.sweep.executor import run_sweep
    from repro.workload.engine import WorkloadEngine

    # Implementations are found through ``__subclasses__`` and by protocol,
    # so every module that may define one has to be loaded first (some are
    # imported lazily by the program).
    for package in (repro.sim, repro.cassandra, repro.core):
        _import_submodules(package)

    add = tracer.add

    # -- harvest hooks: public counters read where the work happens -------------

    def gossip_counters(nodes) -> None:
        for node in nodes:
            stats = node.gossiper.stats()
            add("gossip.rounds", stats["rounds"])
            add("gossip.states_applied", stats["states_applied"])
            add("fd.convictions", stats["fd_convictions"])

    def before_report(args):
        gossip_counters(args[0].nodes.values())

    def after_report(_token, _args, report):
        add("net.sent", report.messages_sent)
        add("net.delivered", report.messages_delivered)
        add("net.dropped", report.messages_dropped)

    def before_handle(args):
        return args[0].states_applied

    def after_handle(applied_before, args, _result):
        if args[0].states_applied > applied_before:
            add("gossip.useful_messages")

    def before_build(_args):
        return rss_kb()

    def after_cluster_build(rss_before, args, _result):
        add("state.rss_kb", rss_kb() - rss_before)
        add("state.pairs", len(args[0].nodes) ** 2)

    def after_shard_build(rss_before, args, _result):
        shard = args[0]
        add("state.rss_kb", rss_kb() - rss_before)
        add("state.pairs", len(shard.cluster.nodes) * shard.spec.nodes)

    # -- sim ---------------------------------------------------------------------
    # Per-event entry points take around a microsecond and run a few times
    # per event: sampled, so that tracing stays a small share of the run.
    tracer.wrap(Simulator, "run", "sim.kernel.run")
    tracer.wrap(Process, "resume", "sim.kernel.resume",
                sample_every=SAMPLE_EVERY)
    queue_class = type(make_queue())
    tracer.wrap(queue_class, "push", "sim.events", sample_every=SAMPLE_EVERY)
    tracer.wrap(queue_class, "pop_due", "sim.events",
                sample_every=SAMPLE_EVERY)
    tracer.wrap_implementations(Network, "send", "sim.network")
    tracer.wrap_implementations(CpuModel, "submit", "sim.cpu")

    # -- cassandra ---------------------------------------------------------------
    tracer.wrap_implementations(Gossiper, "handle_message",
                                "cassandra.gossip.handle",
                                before=before_handle, after=after_handle)
    tracer.wrap_implementations(Gossiper, "do_round", "cassandra.gossip.round")
    tracer.wrap_implementations(Gossiper, "check_convictions",
                                "cassandra.gossip.convict")
    tracer.wrap_implementations(Gossiper, "populate", "cassandra.state.populate",
                                sample_every=SAMPLE_EVERY)
    # Two detector classes exist (one per state backend) without a common
    # base, so they are found by the protocol they share.
    for detector in _classes_defining(repro.cassandra, "report",
                                      "should_convict"):
        for entry in ("report", "should_convict"):
            tracer.wrap(detector, entry, "cassandra.failure_detector",
                        sample_every=SAMPLE_EVERY)
    tracer.wrap(Cluster, "build_established", "cassandra.cluster.build",
                before=before_build, after=after_cluster_build)
    tracer.wrap(Cluster, "report", "cassandra.cluster.report",
                before=before_report, after=after_report)
    tracer.wrap(RunReport, "digest", "cassandra.metrics.digest")
    tracer.wrap_function(compute_pending_ranges, "cassandra.pending_ranges")
    tracer.wrap_implementations(CalcExecutor, "execute", "core.pil.execute",
                                generator=True)
    tracer.wrap(MemoDB, "get", "core.memoization.get")
    tracer.wrap(MemoDB, "put", "core.memoization.put")
    tracer.wrap(MemoLruFront, "get", "core.memoization.lru")
    tracer.wrap(StorageService, "coordinate_read", "cassandra.storage.read",
                generator=True)
    tracer.wrap(StorageService, "coordinate_write", "cassandra.storage.write",
                generator=True)
    tracer.wrap(WorkloadEngine, "issue", "workload.engine")
    tracer.wrap(WorkloadEngine, "perform", "workload.engine", generator=True)
    tracer.wrap(WorkloadEngine, "record", "workload.engine")

    # -- partitioned runner ------------------------------------------------------
    tracer.wrap(Shard, "__init__", "cassandra.partition.shard_setup",
                before=before_build, after=after_shard_build)
    tracer.wrap(Shard, "advance", "cassandra.partition.advance",
                after=lambda _t, _a, outbound: add("partition.cross",
                                                   len(outbound)))
    tracer.wrap(Shard, "finish", "cassandra.partition.finish",
                before=lambda args: gossip_counters(
                    args[0].cluster.nodes.values()))
    tracer.wrap_function(merge_results, "cassandra.partition.merge",
                         after=after_report)
    tracer.wrap_function(run_partitioned, "cassandra.partition.route")
    tracer.wrap(ShardFabric, "collect", "sim.partition.collect",
                after=lambda _t, _a, flights: add("partition.flights",
                                                  len(flights)))
    tracer.wrap(ShardFabric, "inject", "sim.partition.inject")

    # -- sweep / ci --------------------------------------------------------------
    tracer.wrap_function(run_sweep, "sweep.executor",
                         after=lambda _t, _a, summary: add(
                             "sweep.points", len(summary.results)))
    tracer.wrap(SweepCache, "get", "sweep.cache.get",
                after=lambda _t, _a, payload: add(
                    "sweep.cache_hits", 0 if payload is None else 1))
    tracer.wrap(SweepCache, "put", "sweep.cache.put")
    tracer.wrap_function(fit_flap_curve, "core.curves")
    tracer.wrap_function(fit_metric_curve, "core.curves")
    tracer.wrap_function(fit_scenario, "ci.gate.fit")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def attributed_s(tracer: Tracer) -> float:
    """Self time of every layer span (all but the benchmark's own two)."""
    return tracer.self_s(*(name for name in tracer.stats
                           if not name.startswith("bench.")))


def layer_metrics(tracer: Tracer, events: int,
                  round_wall_s: float) -> Dict[str, float]:
    """Per-layer figures one traced round can give by itself.

    The remaining names of :data:`PER_LAYER` (slice percentiles, phase
    walls, accuracy, overhead) need the untraced reference rounds or
    several rounds; :func:`scalebench.run.traced_run` fills them in.
    """
    calls, self_s, count = tracer.calls, tracer.self_s, tracer.counters.get
    handled = calls("cassandra.gossip.handle")
    cache_gets = calls("sweep.cache.get")
    return {
        "sim.kernel.self_s": self_s("sim.kernel.run", "sim.kernel.resume"),
        "sim.kernel.resume_self_s": self_s("sim.kernel.resume"),
        "sim.kernel.events": events,
        "sim.kernel.resumes": calls("sim.kernel.resume"),
        "sim.events.self_s": self_s("sim.events"),
        "sim.events.calls": calls("sim.events"),
        "sim.network.self_s": self_s("sim.network"),
        "sim.network.sent": count("net.sent", 0.0),
        "sim.network.delivered": count("net.delivered", 0.0),
        "sim.network.dropped": count("net.dropped", 0.0),
        "sim.network.delivery_ratio": _ratio(count("net.delivered", 0.0),
                                             count("net.sent", 0.0)),
        "sim.cpu.self_s": self_s("sim.cpu"),
        "sim.cpu.calls": calls("sim.cpu"),
        "cassandra.gossip.handle_self_s": self_s("cassandra.gossip.handle"),
        "cassandra.gossip.round_self_s": self_s("cassandra.gossip.round"),
        "cassandra.gossip.convict_self_s": self_s("cassandra.gossip.convict"),
        "cassandra.gossip.messages_handled": handled,
        "cassandra.gossip.rounds": count("gossip.rounds", 0.0),
        "cassandra.gossip.states_applied": count("gossip.states_applied", 0.0),
        "cassandra.gossip.useful_message_ratio": _ratio(
            count("gossip.useful_messages", 0.0), handled),
        "cassandra.failure_detector.self_s": self_s(
            "cassandra.failure_detector"),
        "cassandra.failure_detector.calls": calls("cassandra.failure_detector"),
        "cassandra.failure_detector.convictions": count("fd.convictions", 0.0),
        "cassandra.state.populate_s": self_s("cassandra.state.populate"),
        "cassandra.state.rss_kb_per_pair": _ratio(count("state.rss_kb", 0.0),
                                                  count("state.pairs", 0.0)),
        "cassandra.cluster.build_s": self_s("cassandra.cluster.build"),
        "cassandra.cluster.report_s": self_s("cassandra.cluster.report"),
        "cassandra.metrics.digest_s": self_s("cassandra.metrics.digest"),
        "cassandra.pending_ranges.self_s": self_s("cassandra.pending_ranges"),
        "cassandra.pending_ranges.calls": calls("cassandra.pending_ranges"),
        "core.pil.execute_self_s": self_s("core.pil.execute"),
        "core.pil.executes": calls("core.pil.execute"),
        "core.memoization.self_s": self_s(
            "core.memoization.get", "core.memoization.put",
            "core.memoization.lru"),
        "core.memoization.get_calls": calls("core.memoization.get"),
        "core.memoization.put_calls": calls("core.memoization.put"),
        "workload.engine.self_s": self_s("workload.engine"),
        "cassandra.storage.coord_self_s": self_s(
            "cassandra.storage.read", "cassandra.storage.write"),
        "cassandra.storage.reads": calls("cassandra.storage.read"),
        "cassandra.storage.writes": calls("cassandra.storage.write"),
        "cassandra.partition.shard_setup_s": self_s(
            "cassandra.partition.shard_setup"),
        "cassandra.partition.advance_s": self_s(
            "cassandra.partition.advance", "cassandra.partition.finish",
            "sim.partition.collect", "sim.partition.inject"),
        "cassandra.partition.merge_s": self_s("cassandra.partition.merge"),
        "cassandra.partition.route_s": self_s("cassandra.partition.route"),
        "cassandra.partition.barriers": _ratio(
            calls("cassandra.partition.advance"),
            calls("cassandra.partition.shard_setup")),
        "sim.partition.flights": count("partition.flights", 0.0),
        "sim.partition.cross_shard_ratio": _ratio(
            count("partition.cross", 0.0), count("partition.flights", 0.0)),
        "sweep.executor.self_s": self_s("sweep.executor"),
        "sweep.executor.points": count("sweep.points", 0.0),
        "sweep.cache.self_s": self_s("sweep.cache.get", "sweep.cache.put"),
        "sweep.cache.get_calls": cache_gets,
        "sweep.cache.put_calls": calls("sweep.cache.put"),
        "sweep.cache.hit_ratio": _ratio(count("sweep.cache_hits", 0.0),
                                        cache_gets),
        "core.curves.fit_s": self_s("core.curves"),
        "ci.gate.fit_self_s": self_s("ci.gate.fit"),
        "bench.unattributed_ratio": 1.0 - _ratio(attributed_s(tracer),
                                                 round_wall_s),
    }
