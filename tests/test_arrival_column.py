"""One arrival time per (observer, peer), against a frozen record.

A gossiper's row timestamp (``EndpointStateView.update_timestamp``) and its
failure detector's last arrival were two columns written with the same
``now`` at every heartbeat, join and restart; they are one column now,
written by :meth:`PhiAccrualFailureDetector.report` alone.  The merge is
only right if ``report`` still reads the *previous* arrival before it
writes the new one: a gossiper that stamped the row first would make every
interval 0 and every mean collapse.

``fixtures/arrival_column.json`` was recorded while the two columns were
still separate.  It holds, after a c3831 run that decommissions a node (a
LEFT) and crashes and restarts another (a new generation), every node's
row timestamp, phi and mean interval for every row it holds, as
``float.hex``.  To re-record after a deliberate behaviour change::

    PYTHONPATH=src python3 -m tests.test_arrival_column
"""

import dataclasses
import json
from pathlib import Path

from repro.cassandra.cluster import Cluster, ClusterConfig, Mode
from repro.cassandra.failure_detector import PhiAccrualFailureDetector
from repro.cassandra.workloads import ScenarioParams, run_workload
from repro.faults.injector import install_faults
from repro.faults.primitives import NodeCrash, NodeRestart
from repro.faults.schedule import FaultSchedule

FIXTURE = Path(__file__).parent / "fixtures" / "arrival_column.json"

SCENARIO = ScenarioParams(warmup=2.0, observe=33.0, leaving_duration=2.0,
                          join_duration=2.0, join_stagger=0.5)
CRASHED = "node-001"
FAULTS = FaultSchedule([NodeCrash(time=1.0, node=CRASHED),
                        NodeRestart(time=27.0, node=CRASHED)])
NODES = 12
SEED = 0


def _rows() -> dict:
    """``{observer: {endpoint: [update_ts, phi, mean]}}`` at the run's end."""
    config = ClusterConfig.for_bug("c3831", nodes=NODES, mode=Mode.REAL,
                                   seed=SEED)
    cluster = Cluster(config)
    install_faults(cluster, FAULTS)
    run_workload(cluster, config.bug.workload, SCENARIO)
    now = cluster.sim.now
    rows = {}
    for name in sorted(cluster.nodes):
        gossiper = cluster.nodes[name].gossiper
        phis = gossiper.fd.phis(now)
        rows[name] = {
            peer: [gossiper.endpoint_state_map[peer].update_timestamp.hex(),
                   phis[peer].hex() if peer in phis else None,
                   gossiper.fd.mean_interval(peer).hex()]
            for peer in sorted(gossiper.endpoint_state_map)
            if peer != name
        }
    return rows


def test_rows_match_the_separate_columns():
    assert _rows() == json.loads(FIXTURE.read_text())["rows"]


def test_the_record_covers_a_restart_and_a_forgotten_peer():
    rows = json.loads(FIXTURE.read_text())["rows"]
    assert len(rows) == NODES
    forgotten = [peer for table in rows.values()
                 for peer, (__, phi, ___) in table.items() if phi is None]
    assert forgotten and set(forgotten) == {f"node-{NODES - 1:03d}"}


def test_stamping_the_row_before_report_is_caught(monkeypatch):
    """Negative control: the write order the merge must not keep."""
    report = PhiAccrualFailureDetector.report

    def stamp_then_report(self, endpoint, now):
        gid = self.shared.gid(endpoint)
        if gid < len(self._arrivals):
            self._arrivals[gid] = now
        report(self, endpoint, now)

    monkeypatch.setattr(PhiAccrualFailureDetector, "report",
                        stamp_then_report)
    assert _rows() != json.loads(FIXTURE.read_text())["rows"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({
        "encoding": "rows: observer -> endpoint -> [update_timestamp, "
                    "phi at the run's end (null: not known to the "
                    "detector), mean_interval], each as float.hex",
        "scenario": {"bug": "c3831", "mode": "real", "nodes": NODES,
                     "seed": SEED,
                     "params": dataclasses.asdict(SCENARIO),
                     "faults": [fault.to_dict() for fault in FAULTS]},
        "rows": _rows(),
    }, indent=1, sort_keys=True) + "\n")
