"""Tests for the unified observability subsystem (``repro.obs``)."""

import pytest

from repro.cassandra.cluster import Cluster, Mode, node_name
from repro.cassandra.workloads import ScenarioParams, run_workload
from repro.core.scalecheck import ScaleCheck
from repro.faults import ChaosConfig, FaultSchedule, NodeCrash, NodeRestart, \
    generate_schedule, install_faults
from repro.obs import (
    CAT_COMPUTE,
    CAT_NET,
    CAT_QUEUE,
    Bottleneck,
    ClusterCollector,
    DoctorReport,
    MetricsRegistry,
    SpanTracer,
    attribute_divergence,
    diagnose,
    stage_lateness,
)

pytestmark = pytest.mark.obs

SMALL = ScenarioParams(warmup=10.0, observe=40.0)


# -- registry ------------------------------------------------------------------


def test_counter_inc_and_reject_negative():
    reg = MetricsRegistry()
    counter = reg.counter("requests")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_labels_are_order_independent_identity():
    reg = MetricsRegistry()
    a = reg.counter("net.dropped", reason="cut", node="n0")
    b = reg.counter("net.dropped", node="n0", reason="cut")
    assert a is b
    assert a.full_name == "net.dropped{node=n0,reason=cut}"
    assert a is not reg.counter("net.dropped", reason="down", node="n0")


def test_kind_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError, match="already registered as counter"):
        reg.gauge("x")


def test_histogram_summary_fields():
    reg = MetricsRegistry()
    hist = reg.histogram("wait")
    for value in (0.5, 1.5, 4.0):
        hist.observe(value)
    assert hist.count == 3
    assert hist.total == pytest.approx(6.0)
    assert (hist.vmin, hist.vmax) == (0.5, 4.0)
    assert hist.mean() == pytest.approx(2.0)


def test_snapshot_delta_differences_counters_and_histograms():
    reg = MetricsRegistry()
    reg.counter("events").inc(10)
    reg.gauge("depth").set(3)
    reg.histogram("wait").observe(1.0)
    before = reg.snapshot(now=5.0)
    reg.counter("events").inc(7)
    reg.gauge("depth").set(9)
    reg.histogram("wait").observe(3.0)
    after = reg.snapshot(now=15.0)

    window = after.delta(before)
    assert window.get("events") == 7                     # differenced
    assert window.get("depth") == 9                      # gauge: latest
    assert window.get("wait", "count") == 1              # differenced
    assert window.get("wait", "sum") == pytest.approx(3.0)
    assert after.window_seconds(before) == pytest.approx(10.0)
    assert window.get("never-registered") == 0.0


# -- tracer --------------------------------------------------------------------


def test_tracer_records_and_aggregates_spans():
    tracer = SpanTracer()
    tracer.span(0.0, 2.0, CAT_QUEUE, "inbox:node-000", node="node-000")
    tracer.span(1.0, 1.5, CAT_QUEUE, "inbox:node-001")
    tracer.span(0.0, 4.0, CAT_COMPUTE, "colo-machine", tag="calc")
    assert len(tracer) == 3
    assert tracer.total_duration(CAT_QUEUE) == pytest.approx(2.5)
    assert tracer.durations_by_name(CAT_QUEUE) == {
        "inbox:node-000": pytest.approx(2.0),
        "inbox:node-001": pytest.approx(0.5),
    }
    assert [s.category for s in tracer.by_category()[CAT_COMPUTE]] == \
        [CAT_COMPUTE]


def test_disabled_tracer_is_a_no_op():
    tracer = SpanTracer(enabled=False)
    tracer.span(0.0, 1.0, CAT_NET, "a>b")
    tracer.point("resume", "p")
    assert len(tracer) == 0
    assert tracer.point_counts == {}


def test_max_spans_drops_and_counts_overflow():
    tracer = SpanTracer(max_spans=2)
    for i in range(5):
        tracer.span(0.0, 1.0, CAT_NET, f"span-{i}")
    assert len(tracer) == 2
    assert tracer.dropped_spans == 3


def test_jsonl_round_trip(tmp_path):
    tracer = SpanTracer()
    tracer.span(1.0, 2.5, CAT_QUEUE, "inbox:node-003",
                node="node-003", tag="SYN")
    tracer.span(2.0, 3.0, CAT_NET, "node-000>node-003")
    path = tmp_path / "trace.jsonl"
    assert tracer.to_jsonl(path) == 2
    loaded = SpanTracer.from_jsonl(path)
    assert [s.to_dict() for s in loaded.iter_spans()] == \
        [s.to_dict() for s in tracer.iter_spans()]


def test_point_counts_aggregate():
    tracer = SpanTracer()
    for __ in range(3):
        tracer.point("resume", "gossip:node-000")
    tracer.point("resume", "gossip:node-001")
    assert tracer.point_counts[("resume", "gossip:node-000")] == 3
    assert tracer.point_counts[("resume", "gossip:node-001")] == 1


# -- an instrumented run (shared fixture) --------------------------------------


@pytest.fixture(scope="module")
def traced_run():
    check = ScaleCheck("c3831-fixed", 6, seed=42, params=SMALL)
    tracer = SpanTracer()
    cluster = Cluster(check.config(Mode.COLO), observer=tracer)
    report = run_workload(cluster, check.bug.workload, check.params)
    return cluster, tracer, report


def test_kernel_emits_spans_during_a_run(traced_run):
    cluster, tracer, _ = traced_run
    categories = set(tracer.by_category())
    assert CAT_NET in categories          # every delivery traced
    assert CAT_COMPUTE in categories      # every finished compute job traced
    # Net span names follow "src>dst"; queue spans name the channel.
    net_names = tracer.durations_by_name(CAT_NET)
    assert any(">" in name for name in net_names)
    assert tracer.point_counts            # resumes were counted


def test_collector_mirrors_cluster_into_registry(traced_run):
    cluster, _, _ = traced_run
    collector = ClusterCollector(cluster)
    snapshot = collector.collect()
    names = collector.registry.names()
    assert "queue.enqueued{stage=gossip}" in names
    assert "lock.hold_seconds{lock=ring}" in names
    assert "net.delivered" in names
    assert snapshot.get("net.delivered") == cluster.network.delivered
    assert snapshot.get("gossip.rounds") > 0
    # A second collect produces a diffable window.
    assert collector.window() is None
    collector.collect()
    window = collector.window()
    assert window is not None
    assert window.get("net.delivered") == 0.0  # nothing ran in between


def test_collector_mirrors_memo_db():
    from types import SimpleNamespace

    from repro.core.memoization import MemoDB

    db = MemoDB()
    db.put("f", "k", 1, 0.5)
    db.get("f", "k")
    fake = SimpleNamespace(sim=SimpleNamespace(now=1.0), nodes={},
                           executor=SimpleNamespace(db=db))
    snapshot = ClusterCollector(fake).collect()
    assert snapshot.get("memo.lookups") == 1
    assert snapshot.get("memo.hit_rate") == pytest.approx(1.0)
    assert snapshot.get("memo.records") == 1
    assert snapshot.get("memo.conflicts") == 0


def test_doctor_diagnoses_the_run(traced_run):
    cluster, tracer, _ = traced_run
    report = diagnose(cluster, tracer=tracer)
    assert isinstance(report, DoctorReport)
    assert report.nodes == 6
    assert report.mode == "colo"
    stages = [b.stage for b in report.bottlenecks]
    assert "gossip-stage-queue" in stages
    assert "cpu-contention" in stages
    # Ranked descending, shares sum to ~1 when lateness was observed.
    latenesses = [b.lateness for b in report.bottlenecks]
    assert latenesses == sorted(latenesses, reverse=True)
    if report.total_lateness > 0:
        assert sum(b.share for b in report.bottlenecks) == pytest.approx(1.0)
    rendered = report.render()
    assert "scale-doctor report" in rendered
    assert "N=6" in rendered


def test_doctor_trace_evidence_names_a_specific_resource(traced_run):
    cluster, tracer, _ = traced_run
    report = diagnose(cluster, tracer=tracer)
    gossip = next(b for b in report.bottlenecks
                  if b.stage == "gossip-stage-queue")
    worst = [k for k in gossip.evidence if k.startswith("worst:")]
    if gossip.lateness > 0:
        assert worst and worst[0].startswith("worst:inbox:")


def test_stage_lateness_reaches_run_report(traced_run):
    cluster, _, report = traced_run
    lateness = stage_lateness(cluster)
    assert set(lateness) == {"gossip-stage-queue", "calc-stage-queue",
                             "ring-lock", "cpu-contention"}
    assert report.stage_lateness == lateness


# -- divergence attribution ----------------------------------------------------


class _FakeReport:
    def __init__(self, stage_lateness):
        self.stage_lateness = stage_lateness


def test_attribute_divergence_names_worst_excess_stage():
    reports = {
        "real": _FakeReport({"gossip-stage-queue": 1.0, "ring-lock": 1.0}),
        "colo": _FakeReport({"gossip-stage-queue": 50.0, "ring-lock": 3.0}),
        "pil": _FakeReport({"gossip-stage-queue": 1.2, "ring-lock": 0.5}),
    }
    out = attribute_divergence(reports)
    assert out["colo"]["stage"] == "gossip-stage-queue"
    assert out["colo"]["excess_lateness"] == pytest.approx(49.0)
    assert out["pil"]["excess_by_stage"]["ring-lock"] == pytest.approx(-0.5)
    assert "real" not in out


def test_attribute_divergence_handles_missing_lateness():
    reports = {"real": _FakeReport({}), "colo": _FakeReport({})}
    out = attribute_divergence(reports)
    assert out["colo"]["stage"] is None
    assert out["colo"]["excess_lateness"] == 0.0
    assert out["colo"]["unattributable"] == "no stage-lateness data"


def test_attribute_divergence_handles_missing_real_report():
    reports = {"colo": _FakeReport({"gossip-stage-queue": 50.0})}
    out = attribute_divergence(reports)
    assert out["colo"] == {
        "stage": None,
        "excess_lateness": 0.0,
        "unattributable": "no real-mode baseline report",
    }


def test_attribute_divergence_handles_report_without_lateness_attr():
    reports = {"real": object(), "colo": object()}
    out = attribute_divergence(reports)
    assert out["colo"]["unattributable"] == "no stage-lateness data"


def test_doctor_render_handles_uncontended_run():
    report = DoctorReport(mode="real", nodes=2, duration=1.0,
                          bottlenecks=[], total_lateness=0.0)
    assert report.top() is None
    assert "not contended" in report.render()
    assert report.share_of("gossip-stage-queue") == 0.0


def test_bottleneck_describe_includes_evidence():
    b = Bottleneck(stage="ring-lock", lateness=12.5, share=0.4,
                   evidence={"max_hold": 3.0})
    line = b.describe()
    assert "ring-lock" in line and "40.0%" in line and "max_hold=3" in line


# -- chaos-schedule regression (interrupt fixes under fault injection) ---------


def _assert_kernel_invariants(cluster):
    """No lock held or awaited by a finished process; no dead getters."""
    for node in cluster.nodes.values():
        for lock in (node.ring_lock,):
            assert lock._holder is None or not lock._holder.finished
            assert all(not w.finished for w in lock._waiters)
            assert set(lock._wait_started) <= set(lock._waiters)
        for channel in (node.inbox, node.calc_queue):
            assert all(not g.finished for g in channel._getters)


def test_chaos_crashes_leave_no_orphaned_waiters():
    """PR-1 chaos schedules exercise the interrupt paths: crashed nodes'
    processes are interrupted mid-Get/mid-Acquire, and the kernel must
    deregister them everywhere (the PR-2 bugfixes)."""
    check = ScaleCheck("c5456", 8, seed=42, params=SMALL)
    schedule = generate_schedule(
        [node_name(i) for i in range(8)], seed=7,
        config=ChaosConfig(events=6, start=8.0, horizon=30.0,
                           permanent_crash_p=0.5))
    cluster = Cluster(check.config(Mode.COLO))
    injector = install_faults(cluster, schedule)
    report = run_workload(cluster, check.bug.workload, check.params)
    assert injector.enacted                 # the chaos actually happened
    assert report.duration > 0
    _assert_kernel_invariants(cluster)


def test_crash_restart_cycle_preserves_lock_liveness():
    """A crash while the ring lock is likely held must not deadlock the
    survivors: the forced release hands the lock on and gossip keeps
    converging after the restart."""
    check = ScaleCheck("c3831-fixed", 6, seed=42, params=SMALL)
    schedule = FaultSchedule(events=[
        NodeCrash(time=6.0, node="node-002"),
        NodeCrash(time=8.0, node="node-004"),
        NodeRestart(time=38.0, node="node-002"),
        NodeRestart(time=40.0, node="node-004"),
    ])
    cluster = Cluster(check.config(Mode.COLO))
    install_faults(cluster, schedule)
    report = run_workload(cluster, check.bug.workload, check.params)
    _assert_kernel_invariants(cluster)
    assert report.recoveries > 0            # survivors saw them come back
    # Gossip kept flowing after the restarts (no global deadlock).
    assert cluster.nodes["node-000"].gossiper.rounds > 0
    live = cluster.nodes["node-000"].gossiper.live_endpoints
    assert "node-002" in live or "node-004" in live
