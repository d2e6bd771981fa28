"""X-HDFS -- section 7: scale-check generalizes beyond Cassandra.

The paper's future work is integrating scale-check with other systems; the
study's largest bug population is HDFS (11/38).  This bench runs the HDFS
model's block-report cold-start storm -- O(blocks) processing under the
namenode's global lock starving heartbeat handling -- and checks:

* the symptom (live datanodes declared dead) surfaces only at scale;
* false-dead nodes recover once the backlog drains (the flapping shape);
* the one scale-check pipeline (``ScaleCheck(HDFS_BUG_ID, ...)``) runs
  memoize-then-PIL-replay on it unchanged and tracks the real-scale run.
"""

import pytest

from repro.cassandra.cluster import Mode
from repro.cassandra.workloads import ScenarioParams
from repro.core.scalecheck import ScaleCheck
from repro.hdfs import HDFS_BUG_ID, HdfsCluster, HdfsConfig, run_cold_start

SCALES = [8, 16, 32, 64]
OBSERVE = 60.0


@pytest.fixture(scope="module")
def sweep():
    results = {}
    for datanodes in SCALES:
        cluster = HdfsCluster(HdfsConfig(datanodes=datanodes, mode=Mode.REAL,
                                         seed=3))
        results[datanodes] = run_cold_start(cluster, observe=OBSERVE)
    return results


def test_hdfs_symptom_only_at_scale(benchmark, sweep):
    reports = benchmark.pedantic(lambda: sweep, rounds=1, iterations=1)
    small = [reports[n].flaps for n in SCALES[:-1]]
    assert all(flaps == 0 for flaps in small)
    assert reports[SCALES[-1]].flaps > 50


def test_hdfs_false_deads_recover(benchmark, sweep):
    reports = benchmark.pedantic(lambda: sweep, rounds=1, iterations=1)
    top = reports[SCALES[-1]]
    assert top.recoveries > 0
    assert top.recoveries <= top.flaps


def test_hdfs_lock_wait_is_the_mechanism(benchmark, sweep):
    reports = benchmark.pedantic(lambda: sweep, rounds=1, iterations=1)
    assert (reports[SCALES[-1]].max_stage_wait
            > 5 * reports[SCALES[0]].max_stage_wait)


def test_hdfs_scale_check_pipeline(benchmark):
    check = ScaleCheck(HDFS_BUG_ID, nodes=64, seed=3,
                       params=ScenarioParams(observe=OBSERVE))
    reports = benchmark.pedantic(check.compare_modes, rounds=1, iterations=1)
    accuracy = ScaleCheck.accuracy(reports)
    assert reports["real"].flaps > 50
    assert accuracy["pil_error"] < 0.25
    assert accuracy["pil_error"] <= max(accuracy["colo_error"], 0.25)


def test_hdfs_report(benchmark, sweep, capsys):
    def render():
        lines = ["X-HDFS: false-dead datanodes vs scale (cold-start storm)",
                 f"{'datanodes':>10} {'false-dead':>11} {'max wait':>9}"]
        for n in SCALES:
            report = sweep[n]
            lines.append(f"{n:>10d} {report.flaps:>11d} "
                         f"{report.max_stage_wait:>8.1f}s")
        return "\n".join(lines)

    text = benchmark.pedantic(render, rounds=1, iterations=1)
    with capsys.disabled():
        print("\n" + text)
