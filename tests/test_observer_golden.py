"""What the two kernel observers see, frozen.

``fixtures/observer_golden.json`` was recorded when spans and race clocks
were still fed by separate kernel hooks; it holds

* for a traced c5456 COLO run (N=16, seed 42, warmup 4, observe 10): the
  span count, the sha256 of the ``to_jsonl`` export, the sha256 of the
  sorted ``point_counts`` and the run's report digest;
* the sha256 of ``RaceTracker.to_dict()`` for the sanitized c3831 N=8 runs
  at seeds 0 and 1, and for the self-check's torn hint-store scenario
  (the one with forced lock releases).

Both observers now ride the one ``Simulator.observer`` seam, and every
value must stay equal at zero tolerance.  The two c3831 race digests were
re-recorded once since, when a gossip round that holds every registered
endpoint stopped re-reading the endpoint map to rebuild its sorted digest
order: ``to_dict()`` differs from the earlier record in ``accesses`` only
(855 → 831 at seed 0, 1019 → 995 at seed 1); every race, pair and example
is unchanged.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.canonical import canonical_json
from repro.cassandra.workloads import ScenarioParams

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "observer_golden.json").read_text())

#: The sanitizer ladder's scenario (``repro.sanitize.sweep``).
SANITIZE_PARAMS = ScenarioParams(warmup=2.0, observe=5.0,
                                 leaving_duration=2.0, join_duration=2.0,
                                 join_stagger=0.5)


def _sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def test_span_tracer_sees_what_it_saw(tmp_path):
    from repro.core.scalecheck import ScaleCheck
    from repro.obs import SpanTracer

    check = ScaleCheck("c5456", 16, seed=42,
                       params=ScenarioParams(warmup=4.0, observe=10.0))
    tracer = SpanTracer()
    report = check.run_colo(observer=tracer)
    path = tmp_path / "spans.jsonl"
    tracer.to_jsonl(path)
    points = sorted([list(key), count]
                    for key, count in tracer.point_counts.items())
    assert {
        "count": len(tracer),
        "jsonl_sha256": _sha256(path.read_bytes()),
        "point_counts_sha256": _sha256(
            json.dumps(points, separators=(",", ":"))),
        "report_digest": report.digest(),
    } == GOLDEN["spans"]


@pytest.fixture(scope="module")
def shared_sites():
    from repro.analysis.locks import walk_locks
    from repro.analysis.shared import harvest_shared_state
    from repro.core.finder import Program

    program = Program.load(["repro.cassandra", "repro.hdfs",
                            "repro.workload"])
    return harvest_shared_state(program, walk_locks(program)).shared()


@pytest.mark.parametrize("seed", [0, 1])
def test_race_tracker_sees_what_it_saw(seed, shared_sites):
    from repro.cassandra.cluster import Cluster, ClusterConfig, Mode
    from repro.cassandra.workloads import run_workload
    from repro.sanitize import RaceTracker, instrument_cluster

    config = ClusterConfig.for_bug("c3831", nodes=8, mode=Mode.REAL,
                                   seed=seed)
    tracker = RaceTracker()
    cluster = Cluster(config, observer=tracker)
    instrument_cluster(cluster, shared_sites, tracker)
    run_workload(cluster, config.bug.workload, SANITIZE_PARAMS)
    assert {
        "race_pairs": tracker.race_pairs,
        "to_dict_sha256": _sha256(canonical_json(tracker.to_dict())),
    } == GOLDEN["races"][f"c3831-n8-s{seed}"]


def test_torn_hint_store_sees_what_it_saw():
    from repro.sanitize.selfcheck import hint_store_scenario

    torn = hint_store_scenario()
    assert {
        "forced_releases": len(torn.forced_release_records),
        "race_pairs": torn.race_pairs,
        "to_dict_sha256": _sha256(canonical_json(torn.to_dict())),
    } == GOLDEN["races"]["hint-store-torn"]
