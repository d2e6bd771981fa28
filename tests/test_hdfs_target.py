"""Section 7 as a checked claim: HDFS runs through the one pipeline.

The paper's future work is to "integrate the process to other distributed
systems beyond Cassandra".  Here the HDFS model is only a bug id: the
sweep engine, fault injection and chaos generation reach it through
``repro.hdfs.HDFS_TARGET`` with no HDFS-specific code of their own, and a
Cassandra-only process never imports it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.cassandra.metrics import RunReport
from repro.cassandra.workloads import ScenarioParams
from repro.core.scalecheck import ScaleCheck
from repro.faults import FaultSchedule, NodeCrash, NodeRestart
from repro.hdfs import HDFS_BUG_ID
from repro.hdfs.namenode import NameNode
from repro.sweep import SweepPoint, SweepSpec, run_sweep
from repro.sweep.executor import _schedule_for

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")
FIXTURE = Path(__file__).parent / "fixtures" / "hdfs_scalecheck_golden.json"


def test_hdfs_sweep_matches_the_golden_cold_and_warm(tmp_path, monkeypatch):
    """The grid ``repro sweep --bugs hdfs-blockreport --scales 8 16 --modes
    real colo pil`` runs, through run_sweep's defaults."""
    monkeypatch.delenv("REPRO_FULL", raising=False)
    spec = SweepSpec(bugs=[HDFS_BUG_ID], scales=[8, 16],
                     modes=["real", "colo", "pil"])
    cold = run_sweep(spec, cache_dir=tmp_path)
    warm = run_sweep(spec, cache_dir=tmp_path)
    assert cold.executed == 6 and warm.cached == 6
    assert warm.table() == cold.table()
    golden = json.loads(FIXTURE.read_text())["cells"]
    for result in cold.results:
        cell = golden[f"n{result.point.nodes}-b10000-s42-o90"]
        digest = RunReport.from_dict(result.report).digest()
        assert digest == cell[result.point.mode], result.point.label()
        if result.point.mode == "pil":
            assert result.hit_rate == 1.0
            assert result.replay["hits"] == cell["hits"]


def test_hdfs_check_under_faults_is_deterministic():
    """A datanode crash and restart record and replay bit for bit."""
    faults = FaultSchedule([NodeCrash(time=5.0, node="dn-002"),
                            NodeRestart(time=20.0, node="dn-002")])
    check = ScaleCheck(HDFS_BUG_ID, nodes=6, vnodes=200, seed=5,
                       params=ScenarioParams(observe=30.0))

    def digests(result):
        return (result.memo_report.digest(), result.replay_report.digest(),
                result.db.digest())

    first = check.check(faults=faults)
    assert digests(first) == digests(check.check(faults=faults))
    assert digests(first) != digests(check.check())
    # The crash was enacted: the silent datanode was declared dead, then
    # seen again after its restart.
    assert first.memo_report.flaps == first.replay_report.flaps == 1
    assert first.replay_report.recoveries == 1


def test_hdfs_replay_hit_processes_no_report(monkeypatch):
    """As on Cassandra, a replay hit never runs the replaced function."""
    check = ScaleCheck(HDFS_BUG_ID, nodes=6, vnodes=200, seed=5,
                       params=ScenarioParams(observe=30.0))
    db = check.memoize().db
    calls = []
    original = NameNode._report_outcome

    def counted(self, report):
        calls.append(report.datanode)
        return original(self, report)

    monkeypatch.setattr(NameNode, "_report_outcome", counted)
    replay = check.replay(db)
    assert replay.hits > 0
    assert len(calls) == replay.misses


def test_hdfs_chaos_points_draw_datanode_names():
    params = ScenarioParams(warmup=0.0, observe=20.0)
    point = SweepPoint(HDFS_BUG_ID, nodes=6, mode="real", chaos_seed=3,
                       vnodes=200)
    schedule = _schedule_for(point, params)
    text = schedule.canonical_json()
    assert len(schedule) and "dn-00" in text and "node-0" not in text
    spec = SweepSpec(bugs=[HDFS_BUG_ID], scales=[6], modes=["real"],
                     chaos_seeds=[3], vnodes=200)
    (result,) = run_sweep(spec, params=params).results
    assert result.point == point


def test_cassandra_pipeline_imports_no_hdfs_module():
    script = ("import sys, repro.core.scalecheck, repro.sweep.executor, "
              "repro.ci, repro.cassandra.partition; "
              "print(sorted(m for m in sys.modules "
              "if m.startswith('repro.hdfs')))")
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
