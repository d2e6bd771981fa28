"""The failure detector's cluster-scale behaviour against a frozen record.

``sim_digest`` and the report goldens do not cover ``max_phi_seen``, and
they see convictions only through the flap list.  This file pins what every
node's detector and gossiper did over whole c3831 runs: per-node
``Gossiper.stats()`` (``fd_max_phi`` bit-exact, as ``float.hex``) and the
flap sequence, at N in {32, 64} x seeds {0, 1}.  Each cell decommissions a
node (a LEFT) and crashes and restarts another (convictions, recoveries and
a new generation), so the conviction sweep, the heartbeat apply path and
the restart and LEFT branches all run.

``tests/fixtures/detector_golden.json`` was recorded before the conviction
sweep was fused into one detector call and the steady-state heartbeat apply
was inlined; both must keep reproducing it.  To re-record after a deliberate
behaviour change::

    PYTHONPATH=src python3 -m tests.test_detector_golden
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.cassandra.cluster import Cluster, ClusterConfig, Mode
from repro.cassandra.state import STATUS_LEFT
from repro.cassandra.workloads import ScenarioParams, run_workload
from repro.faults.injector import install_faults
from repro.faults.primitives import NodeCrash, NodeRestart
from repro.faults.schedule import FaultSchedule

FIXTURE = Path(__file__).parent / "fixtures" / "detector_golden.json"

#: Long enough for a crashed node to be convicted (phi crosses 8 about
#: 18 mean intervals after its last heartbeat) and then seen restarted.
SCENARIO = ScenarioParams(warmup=2.0, observe=33.0, leaving_duration=2.0,
                          join_duration=2.0, join_stagger=0.5)
CRASHED = "node-001"
FAULTS = FaultSchedule([NodeCrash(time=1.0, node=CRASHED),
                        NodeRestart(time=27.0, node=CRASHED)])
CELLS = [(nodes, seed) for nodes in (32, 64) for seed in (0, 1)]


def _cell(nodes: int, seed: int) -> dict:
    config = ClusterConfig.for_bug("c3831", nodes=nodes, mode=Mode.REAL,
                                   seed=seed)
    cluster = Cluster(config)
    install_faults(cluster, FAULTS)
    run_workload(cluster, config.bug.workload, SCENARIO)
    stats = {}
    left_seen = restart_seen = 0
    for name in sorted(cluster.nodes):
        gossiper = cluster.nodes[name].gossiper
        row = gossiper.stats()
        row["fd_max_phi"] = float(row["fd_max_phi"]).hex()
        stats[name] = row
        state = gossiper.endpoint_state_map.get(CRASHED)
        if name != CRASHED and state is not None \
                and state.heartbeat.generation > 1:
            restart_seen += 1
        left_seen += sum(
            1 for peer in gossiper.endpoint_state_map
            if gossiper.endpoint_state_map[peer].status() == STATUS_LEFT)
    flaps = [(event.time.hex(), event.observer, event.target)
             for event in cluster.flaps.flaps]
    return {
        "flaps": len(flaps),
        "flap_sha256": hashlib.sha256(
            json.dumps(flaps, separators=(",", ":")).encode()).hexdigest(),
        "recoveries": cluster.flaps.recoveries,
        "left_seen": left_seen,
        "restart_seen": restart_seen,
        "stats": stats,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("nodes,seed", CELLS)
def test_detector_matches_golden(golden, nodes, seed):
    """Per-node detector and gossip counters, and the flap sequence."""
    assert _cell(nodes, seed) == golden["cells"][f"n{nodes}-s{seed}"]


def test_golden_cells_exercise_every_branch(golden):
    """Some cell convicts, recovers, sees a LEFT and sees a restart."""
    cells = golden["cells"].values()
    assert any(cell["flaps"] and cell["recoveries"] and cell["left_seen"]
               and cell["restart_seen"] for cell in cells)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({
        "encoding": "stats: Gossiper.stats() per node, fd_max_phi as "
                    "float.hex; flap_sha256: compact JSON of the list of "
                    "(time as float.hex, observer, target)",
        "scenario": {"bug": "c3831", "mode": "real",
                     "params": dataclasses.asdict(SCENARIO),
                     "faults": [fault.to_dict() for fault in FAULTS]},
        "cells": {f"n{nodes}-s{seed}": _cell(nodes, seed)
                  for nodes, seed in CELLS},
    }, indent=1, sort_keys=True) + "\n")
