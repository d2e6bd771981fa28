"""The PIL replay against a frozen record of its reports.

``tests/fixtures/replay_golden.json`` pins, for four bugs at paper
constants (``ScenarioParams()``, ``CostConstants()``), two cluster sizes
and two seeds, the canonical report digest of the memoizing colo run and
of the replay of its recording, plus the replay's hits and misses.  It was
recorded while the replay could still enforce the recorded message order,
so it shows that the replay that remains is the one it always was.

Re-record (only on purpose) with ``python tests/test_replay_golden.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.core.scalecheck import ScaleCheck

FIXTURE = Path(__file__).parent / "fixtures" / "replay_golden.json"

BUGS = ("c3831", "c3881", "c5456", "c6127")
SCALES = (8, 16)
SEEDS = (42, 7)
CELLS = [(bug, nodes, seed)
         for bug in BUGS for nodes in SCALES for seed in SEEDS]


def cell_key(bug: str, nodes: int, seed: int) -> str:
    return f"{bug}-n{nodes}-s{seed}"


def measure(bug: str, nodes: int, seed: int) -> dict:
    result = ScaleCheck(bug, nodes=nodes, seed=seed).check()
    return {
        "colo": result.memo_report.digest(),
        "pil": result.replay_report.digest(),
        "hits": result.replay.hits,
        "misses": result.replay.misses,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())["cells"]


@pytest.mark.parametrize("bug,nodes,seed", CELLS)
def test_replay_reproduces_the_golden(golden, bug, nodes, seed):
    assert measure(bug, nodes, seed) == golden[cell_key(bug, nodes, seed)]


if __name__ == "__main__":
    cells = {cell_key(*cell): measure(*cell) for cell in CELLS}
    FIXTURE.write_text(json.dumps({
        "about": "colo and PIL replay report digests, replay hits and "
                 "misses at paper constants; see tests/test_replay_golden.py",
        "cells": cells,
    }, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
