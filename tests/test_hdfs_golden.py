"""The HDFS pipeline against a frozen record of the one it replaced.

HDFS used to run through a scale-check class of its own.
``tests/fixtures/hdfs_scalecheck_golden.json`` was recorded with that class
before it was deleted; ``ScaleCheck(HDFS_BUG_ID, ...)`` must reproduce it
through the target seam.  Each cell pins the canonical report of the real
run, the memoizing colo run and the PIL replay, the replay's hits and
misses, and the recording's records and message order (its meta is not
pinned: its keys are ScaleCheck's now).  The ladder pins what ``repro
hunt``'s HDFS probe ran: real at 8/16/32/64 datanodes and colo at 64.
"""

import json
from pathlib import Path

import pytest

from repro.canonical import canonical_json, sha256_hex
from repro.cassandra.workloads import ScenarioParams
from repro.core.scalecheck import ScaleCheck
from repro.hdfs import HDFS_BUG_ID

FIXTURE = Path(__file__).parent / "fixtures" / "hdfs_scalecheck_golden.json"

#: (datanodes, blocks per datanode, seed, observe) of each tier-1 cell.
CELLS = [(24, 2000, 5, 40.0), (8, 10000, 3, 60.0), (16, 10000, 3, 60.0)]


def _check(nodes: int, blocks: int, seed: int, observe: float) -> ScaleCheck:
    return ScaleCheck(HDFS_BUG_ID, nodes=nodes, vnodes=blocks, seed=seed,
                      params=ScenarioParams(observe=observe))


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("nodes,blocks,seed,observe", CELLS)
def test_scalecheck_reproduces_the_hdfs_golden(golden, nodes, blocks, seed,
                                               observe):
    check = _check(nodes, blocks, seed, observe)
    real = check.run_real()
    result = check.check()
    payload = result.db.to_payload()
    expected = golden["cells"][f"n{nodes}-b{blocks}-s{seed}-o{int(observe)}"]
    assert {
        "real": real.digest(),
        "colo": result.memo_report.digest(),
        "pil": result.replay_report.digest(),
        "hits": result.replay.hits,
        "misses": result.replay.misses,
        "db_len": len(result.db),
        "db_records": sha256_hex(canonical_json(payload["records"])),
        "message_order": sha256_hex(canonical_json(payload["message_order"])),
        "flaps": {"real": real.flaps, "colo": result.memo_report.flaps,
                  "pil": result.replay_report.flaps},
    } == expected


@pytest.mark.hunt
def test_hunt_ladder_reproduces_the_hdfs_golden(golden):
    """The hunt probe's ladder (about 17 s): real 8..64, colo at 64."""
    ladder = golden["ladder"]
    for nodes, expected in ladder["real"].items():
        report = _check(int(nodes), 10000, 3, 60.0).run_real()
        assert (report.digest(), report.flaps) == (expected["digest"],
                                                   expected["flaps"])
    colo = _check(64, 10000, 3, 60.0).run_colo()
    assert colo.digest() == ladder["colo"]["64"]["digest"]
    assert colo.flaps == ladder["colo"]["64"]["flaps"] > 50
