"""The kernel's event order against its frozen reference.

Event keys ``(time, priority, seq)`` form a strict total order, so any
correct min-key queue pops the identical sequence and an end-to-end run
cannot depend on the queue's data structure.  That was proved the strong
way while two queues existed -- byte-identical canonical ``RunReport``
JSON, delivery logs and event traces between the binary heap and a
two-tier timer wheel, seeds 0..9 at N in {8, 32} -- and the wheel's side
of that comparison is recorded in ``tests/fixtures/scheduler_golden.json``.
The heap, now the only queue, must keep reproducing it; the last test is
the proof that no second queue, selector or alias is left anywhere.

Test ids are the ones the floor knows; renaming them after what they now
check is its own change.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.cassandra.cluster import Cluster, ClusterConfig, Mode
from repro.cassandra.workloads import ScenarioParams, run_workload

ROOT = Path(__file__).parent.parent
GOLDEN = json.loads(
    (ROOT / "tests" / "fixtures" / "scheduler_golden.json").read_text())

#: Short scenario: long enough for decommission + conviction traffic,
#: short enough that the full 10-seed x 2-scale sweep stays in tier-1.
FAST = ScenarioParams(warmup=2.0, observe=5.0, leaving_duration=2.0,
                      join_duration=2.0, join_stagger=0.5)


def _run(nodes: int, seed: int, trace: bool = False):
    config = ClusterConfig.for_bug("c3831", nodes=nodes, mode=Mode.REAL,
                                   seed=seed)
    cluster = Cluster(config)
    if trace:
        cluster.sim.trace.enabled = True
    report = run_workload(cluster, config.bug.workload, FAST)
    return cluster, report


def _canonical(report) -> str:
    data = report.to_dict()
    # Host wall time is the one legitimately nondeterministic field.
    data.pop("wall_seconds", None)
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("nodes", [8, 32])
@pytest.mark.parametrize("seed", range(10))
def test_wheel_and_heap_reports_byte_identical(nodes, seed):
    """Seeds 0..9, N in {8,32}: the wheel's report, step count and log."""
    cluster, report = _run(nodes, seed)
    assert {
        "report_sha256": _sha256(_canonical(report)),
        "steps": cluster.sim.steps,
        "delivery_log_sha256": _sha256(
            "\n".join(cluster.network.delivery_log)),
    } == GOLDEN["grid"][f"n{nodes}-s{seed}"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wheel_and_heap_event_traces_identical(seed):
    """The full event trace -- order included -- is the wheel's."""
    cluster, _ = _run(8, seed, trace=True)
    records = [(r.time, r.kind, r.subject) for r in cluster.sim.trace]
    assert {
        "records": len(records),
        "trace_sha256": _sha256(json.dumps(records, separators=(",", ":"))),
    } == GOLDEN["traces"][f"n8-s{seed}"]


def test_heap_scheduler_is_selectable_at_kernel_level():
    """Deletion proof: one queue, no selector on any constructor, no trace
    of the second one in shipped code or the two design documents."""
    from repro.hdfs.cluster import HdfsConfig
    from repro.sim.events import EventQueue, make_queue
    from repro.sim.kernel import Simulator

    assert type(Simulator().events) is EventQueue
    assert not hasattr(Simulator(), "scheduler")
    with pytest.raises(TypeError):
        Simulator(scheduler="heap")
    with pytest.raises(TypeError):
        ClusterConfig.for_bug("c3831", nodes=4, scheduler="heap")
    with pytest.raises(TypeError):
        HdfsConfig(scheduler="heap")
    with pytest.raises(TypeError):
        make_queue("wheel")

    gone = re.compile(r"TimerWheelQueue|scheduler=|note_cancelled")
    files = [ROOT / "README.md", ROOT / "DESIGN.md"]
    for top in ("src", "examples", "benchmarks"):
        files.extend(sorted((ROOT / top).rglob("*.py")))
    assert len(files) > 100
    hits = [f"{path.relative_to(ROOT)}:{lineno}"
            for path in files
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1)
            if gone.search(line)]
    assert hits == []
