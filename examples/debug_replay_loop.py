#!/usr/bin/env python3
"""The developer's debugging loop: memoize once, replay many times.

The paper's economic argument (sections 5 and 8): debugging is not a
single iteration -- developers replay "numerous times".  Memoization under
basic colocation is slow but happens once; every PIL-infused replay after
that is fast and accurate, so the whole debug loop fits one machine.

This script memoizes the CASSANDRA-3881 scale-out scenario once, then
replays it several times, and prints the cost of each stage.

Run:
    python examples/debug_replay_loop.py [nodes] [replays]
"""

import sys
import time

from repro import ScaleCheck
from repro.bench.calibrate import ci_cost_constants
from repro.cassandra import ClusterSampler, ScenarioParams, render_timeline
from repro.cassandra.cluster import Cluster, Mode
from repro.cassandra.workloads import run_workload
from repro.core import ProbeSet
from repro.core.pil import CALC_FUNC_ID, PilReplayExecutor


def _instrumented_replay(check: ScaleCheck, db) -> None:
    """One replay with 'more logs added' (step f): probes + a timeline."""
    cluster = Cluster(check.config(Mode.PIL))
    cluster.executor = PilReplayExecutor(db)
    # Resolve through the recording's store, as a ScaleCheck run does: a
    # miss on a ring an earlier run met computes nothing.
    cluster.outputs = db.outputs(CALC_FUNC_ID)
    probes = (ProbeSet()
              .log_calcs_over(threshold=0.25)
              .log_convictions())
    probes.attach(cluster)
    sampler = ClusterSampler(cluster, interval=1.0)
    sampler.start()
    run_workload(cluster, check.bug.workload, check.params)
    print("\ninstrumented replay (probes + timeline):")
    print(render_timeline(sampler.points))
    slow = probes.entries("slow-calc")
    convictions = probes.entries("conviction")
    print(f"probe log: {len(slow)} slow calculations, "
          f"{len(convictions)} convictions")
    for entry in (slow + convictions)[:5]:
        print(f"  {entry.time:8.2f}s [{entry.kind}] {entry.message}")


def main() -> None:
    nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    replays = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    check = ScaleCheck(
        bug_id="c3881",
        nodes=nodes,
        seed=7,
        params=ScenarioParams(warmup=20, observe=60, join_duration=15,
                              join_stagger=1.5),
        cost_constants=ci_cost_constants("c3881"),
    )
    print(f"bug c3881 (scale-out, {check.bug.vnodes} vnodes/node) "
          f"at {nodes} nodes\n")

    started = time.perf_counter()
    result = check.memoize()
    memo_wall = time.perf_counter() - started
    print(f"memoization (one-time, basic colocation): {memo_wall:6.1f}s host "
          f"wall, {result.memo_report.flaps} flaps, "
          f"{len(result.db)} distinct inputs, "
          f"{result.db.total_samples()} samples")
    low, high = result.db.duration_range()
    print(f"recorded durations: {low * 1e3:.1f} ms .. {high * 1e3:.1f} ms\n")

    for iteration in range(1, replays + 1):
        started = time.perf_counter()
        replay = check.replay(result.db)
        wall = time.perf_counter() - started
        print(f"replay #{iteration}: {wall:6.1f}s host wall, "
              f"{replay.report.flaps} flaps, hit rate "
              f"{replay.hit_rate:.0%}")

    _instrumented_replay(check, result.db)

    print("\nthe one-time memoization cost amortizes across every replay;")
    print("each replay is a faithful stand-in for a real-scale run, and")
    print("new probes/logs can be attached per replay without re-recording.")


if __name__ == "__main__":
    main()
