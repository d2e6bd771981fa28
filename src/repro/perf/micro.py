"""The microbenchmark definitions behind ``repro bench``.

Each benchmark is a factory ``make(quick) -> (fn, workload)`` where ``fn``
does its own (untimed) setup and returns ``(wall_seconds, events)`` for
the timed section, and ``workload`` describes the problem size -- the
descriptor is embedded in the result so a baseline recorded at one size
can never be "beaten" by a run at another.

The suite covers the three hot paths the perf overhaul touched:

* ``event_churn``   -- raw event-queue throughput: schedule/cancel/pop
  churn through the kernel's queue (no cluster, no protocol);
* ``gossip_n{64,128,256}`` -- an established c3831 cluster gossiping in
  real mode: the end-to-end events/sec figure the tentpole targets;
* ``replay_n{128,256}`` -- PIL-infused memoized replay: the paper's
  "minutes instead of hours" claim, exercising the memo LRU front;
* ``workload_n128`` -- the client-traffic data plane: a million logical
  users folded into weighted representative requests over an N=128 ring,
  guarding the shard/coordinator/histogram hot loops.

``quick=True`` shrinks every workload for smoke tests; quick results carry
a different workload descriptor and therefore cannot be compared against
(or accidentally recorded over) full baselines.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional, Tuple

from .bench import BenchResult, calibrate, run_timed

#: Benchmarks with committed repo-root baselines (the CI gate set).
DEFAULT_BASELINE_NAMES = (
    "event_churn",
    "gossip_n128",
    "gossip_n256",
    "gossip_n512",
    "replay_n128",
    "workload_n128",
)

_BenchFn = Callable[[], Tuple[float, int]]
_Factory = Callable[[bool], Tuple[_BenchFn, Dict[str, Any]]]


# -- event churn -------------------------------------------------------------------


def _make_event_churn(quick: bool) -> Tuple[_BenchFn, Dict[str, Any]]:
    from ..sim.events import make_queue

    n = 20_000 if quick else 200_000
    workload = {"events": n}

    def run() -> Tuple[float, int]:
        queue = make_queue()
        noop = lambda: None  # noqa: E731 - allocation-free callback
        t0 = time.perf_counter()
        handles = []
        # Mixed near/far pushes: a spread of short timeouts within half a
        # second plus a tail out to 1.7 s, like a real run's mixture of
        # gossip ticks and long watchdogs.
        for i in range(n):
            offset = (i % 997) * 0.0005 + (i % 7) * 0.2
            handles.append(queue.push(offset, noop, priority=i % 3 - 1))
            # Reschedule churn: cancel two of every three (the PS-CPU
            # model cancels and reschedules its completion constantly).
            if i % 3:
                handles[-1].cancel()
        while queue.pop() is not None:
            pass
        return time.perf_counter() - t0, n

    return run, workload


# -- gossip rounds ------------------------------------------------------------------


def _make_gossip(nodes: int, full_until: float = 8.0):
    def factory(quick: bool) -> Tuple[_BenchFn, Dict[str, Any]]:
        from ..cassandra.cluster import Cluster, ClusterConfig, Mode

        until = 3.0 if quick else full_until
        workload = {"bug": "c3831", "nodes": nodes, "until": until,
                    "mode": "real"}

        def run() -> Tuple[float, int]:
            config = ClusterConfig.for_bug("c3831", nodes=nodes,
                                           mode=Mode.REAL)
            cluster = Cluster(config)
            cluster.build_established()
            t0 = time.perf_counter()
            cluster.sim.run(until=until)
            return time.perf_counter() - t0, cluster.sim.steps

        return run, workload

    return factory


# -- memoized replay ----------------------------------------------------------------


def _make_replay(nodes: int):
    def factory(quick: bool) -> Tuple[_BenchFn, Dict[str, Any]]:
        from ..cassandra.workloads import ScenarioParams
        from ..core.scalecheck import ScaleCheck

        if quick:
            params = ScenarioParams(warmup=2.0, observe=4.0,
                                    leaving_duration=2.0, join_duration=2.0,
                                    join_stagger=0.5)
        else:
            params = ScenarioParams(warmup=4.0, observe=10.0,
                                    leaving_duration=4.0, join_duration=4.0,
                                    join_stagger=0.5)
        workload = {
            "bug": "c3831", "nodes": nodes, "metric": "memo_lookups",
            "warmup": params.warmup, "observe": params.observe,
        }
        check = ScaleCheck("c3831", nodes=nodes, params=params)
        # One untimed recording shared by every repeat: the benchmark
        # measures the replay (the operation developers iterate on), not
        # the one-time memoization.
        db = check.memoize().db

        def run() -> Tuple[float, int]:
            t0 = time.perf_counter()
            result = check.replay(db)
            return time.perf_counter() - t0, result.hits + result.misses

        return run, workload

    return factory


# -- client traffic -----------------------------------------------------------------


def _make_workload(nodes: int):
    def factory(quick: bool) -> Tuple[_BenchFn, Dict[str, Any]]:
        from ..cassandra.cluster import Cluster, ClusterConfig, Mode
        from ..cassandra.workloads import ScenarioParams
        from ..workload import preset_spec, run_traffic

        users = 200_000 if quick else 1_000_000
        params = (ScenarioParams(warmup=4.0, observe=8.0) if quick
                  else ScenarioParams(warmup=8.0, observe=20.0))
        workload = {"bug": "c3831-fixed", "nodes": nodes, "users": users,
                    "warmup": params.warmup, "observe": params.observe,
                    "mode": "real"}

        def run() -> Tuple[float, int]:
            config = ClusterConfig.for_bug("c3831-fixed", nodes=nodes,
                                           mode=Mode.REAL, seed=42,
                                           enable_storage=True)
            cluster = Cluster(config)
            spec = preset_spec("millionuser", users=users)
            t0 = time.perf_counter()
            run_traffic(cluster, spec, params=params)
            return time.perf_counter() - t0, cluster.sim.steps

        return run, workload

    return factory


#: Name -> factory registry (ordered: cheap first).
BENCHMARKS: Dict[str, _Factory] = {
    "event_churn": _make_event_churn,
    "gossip_n64": _make_gossip(64),
    "gossip_n128": _make_gossip(128),
    "gossip_n256": _make_gossip(256),
    # A shorter horizon keeps the tripled repeat under CI budget.
    "gossip_n512": _make_gossip(512, full_until=4.0),
    "replay_n128": _make_replay(128),
    "replay_n256": _make_replay(256),
    "workload_n128": _make_workload(128),
}


def run_benchmark(
    name: str,
    quick: bool = False,
    repeats: int = 3,
    calibration_seconds: Optional[float] = None,
) -> BenchResult:
    """Run one named benchmark and return its result."""
    factory = BENCHMARKS.get(name)
    if factory is None:
        raise ValueError(f"unknown benchmark {name!r} "
                         f"(known: {', '.join(BENCHMARKS)})")
    fn, workload = factory(quick)
    workload["quick"] = quick
    return run_timed(fn, name=name, repeats=repeats, workload=workload,
                     calibration_seconds=calibration_seconds)


def run_suite(
    names=None,
    quick: bool = False,
    repeats: int = 3,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, BenchResult]:
    """Run several benchmarks with one shared calibration measurement."""
    if names is None:
        names = list(DEFAULT_BASELINE_NAMES)
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        raise ValueError(f"unknown benchmarks: {', '.join(unknown)} "
                         f"(known: {', '.join(BENCHMARKS)})")
    calibration = calibrate()
    results: Dict[str, BenchResult] = {}
    for name in names:
        if progress is not None:
            progress(name)
        results[name] = run_benchmark(name, quick=quick, repeats=repeats,
                                      calibration_seconds=calibration)
    return results
