"""The six micro-scenarios' work, counted exactly against a frozen record.

The simulator is deterministic, so the work these scenarios do (events
dispatched, messages per run, memo lookups) is a set of exact integers and
needs no stopwatch; wall-clock is ``scalebench``'s job.  Each scenario runs
once and its counts must equal ``tests/fixtures/micro_census.json`` at zero
tolerance:

* ``event_churn``   -- schedule/cancel/pop churn through the kernel's queue:
  pushes, live pops and heap compactions;
* ``gossip_n{128,256,512}`` -- an established c3831 cluster gossiping in
  real mode: kernel steps, messages sent/delivered, flaps, report digest;
* ``replay_n128``   -- a PIL replay of a c3831 scale-out memoized at N=128:
  memo hits/misses, distinct recorded entries, replay report digest;
* ``workload_n128`` -- a million logical users over an N=128 ring: kernel
  steps plus the run report's counts and digest.

Each scenario is a plain function called with its descriptor as keyword
arguments, and the record stores the descriptor next to the counts, so a
resized scenario fails here instead of passing against old numbers.  A
deliberate change re-records and states the delta::

    PYTHONPATH=src python3 -m tests.test_micro_census
"""

import json
from pathlib import Path

import pytest

from repro.cassandra.cluster import Cluster, ClusterConfig, Mode
from repro.cassandra.workloads import ScenarioParams
from repro.core.scalecheck import ScaleCheck
from repro.sim.events import make_queue
from repro.workload import preset_spec, run_traffic

FIXTURE = Path(__file__).parent / "fixtures" / "micro_census.json"


def event_churn(events: int) -> dict:
    queue = make_queue()
    noop = lambda: None  # noqa: E731 - allocation-free callback
    # Mixed near/far pushes: a spread of short timeouts within half a
    # second plus a tail out to 1.7 s, like a real run's mixture of gossip
    # ticks and long watchdogs.  Two of every three are cancelled (the
    # PS-CPU model cancels and reschedules its completion constantly).
    for i in range(events):
        offset = (i % 997) * 0.0005 + (i % 7) * 0.2
        event = queue.push(offset, noop, priority=i % 3 - 1)
        if i % 3:
            event.cancel()
    pops = 0
    while queue.pop() is not None:
        pops += 1
    return {"pushes": events, "pops": pops,
            "compactions": queue.compactions}


def _run_counts(cluster: Cluster, report) -> dict:
    return {"steps": cluster.sim.steps,
            "sent": report.messages_sent,
            "delivered": report.messages_delivered,
            "flaps": report.flaps,
            "digest": report.digest()}


def gossip(bug: str, nodes: int, until: float, mode: str) -> dict:
    cluster = Cluster(ClusterConfig.for_bug(bug, nodes=nodes, mode=Mode(mode)))
    cluster.build_established()
    cluster.sim.run(until=until)
    return _run_counts(cluster, cluster.report())


def replay(bug: str, nodes: int, warmup: float, observe: float) -> dict:
    params = ScenarioParams(warmup=warmup, observe=observe,
                            leaving_duration=4.0, join_duration=4.0,
                            join_stagger=0.5)
    check = ScaleCheck(bug, nodes=nodes, params=params)
    db = check.memoize().db
    result = check.replay(db)
    return {"hits": result.hits, "misses": result.misses,
            "entries": len(db), "digest": result.report.digest()}


def workload(bug: str, nodes: int, users: int, warmup: float,
             observe: float, mode: str) -> dict:
    cluster = Cluster(ClusterConfig.for_bug(bug, nodes=nodes, mode=Mode(mode),
                                            seed=42, enable_storage=True))
    report = run_traffic(cluster, preset_spec("millionuser", users=users),
                         params=ScenarioParams(warmup=warmup, observe=observe))
    return _run_counts(cluster, report)


#: Name -> (scenario function, descriptor passed to it as keywords).
SCENARIOS = {
    "event_churn": (event_churn, {"events": 200_000}),
    "gossip_n128": (gossip, {"bug": "c3831", "nodes": 128, "until": 8.0,
                             "mode": "real"}),
    "gossip_n256": (gossip, {"bug": "c3831", "nodes": 256, "until": 8.0,
                             "mode": "real"}),
    "gossip_n512": (gossip, {"bug": "c3831", "nodes": 512, "until": 4.0,
                             "mode": "real"}),
    "replay_n128": (replay, {"bug": "c3831", "nodes": 128, "warmup": 4.0,
                             "observe": 10.0}),
    "workload_n128": (workload, {"bug": "c3831-fixed", "nodes": 128,
                                 "users": 1_000_000, "warmup": 8.0,
                                 "observe": 20.0, "mode": "real"}),
}


def _census() -> dict:
    return {name: {"descriptor": descriptor, "counts": run(**descriptor)}
            for name, (run, descriptor) in SCENARIOS.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())["cells"]


@pytest.fixture(scope="module")
def census():
    return _census()


def test_record_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", SCENARIOS)
def test_descriptor_matches_record(golden, name):
    """A resized scenario must be re-recorded, not compared."""
    assert SCENARIOS[name][1] == golden[name]["descriptor"]


@pytest.mark.parametrize("name", SCENARIOS)
def test_counts_match_record(golden, census, name):
    assert census[name]["counts"] == golden[name]["counts"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({
        "encoding": "counts of one run per scenario; digest: "
                    "RunReport.digest() of the scenario's run report",
        "cells": _census(),
    }, indent=1, sort_keys=True) + "\n")
