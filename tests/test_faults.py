"""Tests for the fault-injection & chaos engine (``repro.faults``)."""

import pytest

from repro.cassandra.cluster import Cluster, Mode, node_name
from repro.cassandra.workloads import ScenarioParams, run_workload
from repro.core.scalecheck import ScaleCheck
from repro.faults import (
    ChaosConfig,
    CpuStress,
    DiskDegrade,
    FaultSchedule,
    Heal,
    Injector,
    LinkDegrade,
    NodeCrash,
    NodeRestart,
    PartitionCut,
    fault_from_dict,
    generate_schedule,
    install_faults,
    merge_schedules,
    shrink,
)
from repro.faults.injector import ClusterFaultTarget
from repro.sim import Get, LatencyModel, Network, Simulator
from repro.sim.cpu import DedicatedCpu
from repro.sim.disk import Disk
from repro.sim.kernel import KernelObserver

ALL_PRIMITIVES = [
    NodeCrash(time=1.0, node="node-000"),
    NodeRestart(time=2.0, node="node-000"),
    PartitionCut(time=3.0, side_a=("node-000",), side_b=("node-001", "node-002")),
    Heal(time=4.0, side_a=("node-000",), side_b=("node-001", "node-002")),
    Heal(time=4.5),
    LinkDegrade(time=5.0, src="node-000", dst="node-001",
                drop_p=0.5, latency_mult=3.0, duration=10.0),
    DiskDegrade(time=6.0, node="node-000", bandwidth_factor=0.25, duration=5.0),
    CpuStress(time=7.0, node="node-000", hogs=2, duration=4.0),
]


class FakeCluster:
    """Minimal duck-typed fault target for injector unit tests."""

    def __init__(self, seed=1):
        self.sim = Simulator(seed=seed)
        self.network = Network(
            self.sim, latency=LatencyModel(base=0.001, jitter=0.0))
        self.crashed = []
        self.restarted = []
        self._cpu = DedicatedCpu(self.sim, cores=1, name="fake-cpu")
        self._disk = Disk(self.sim, capacity_bytes=10**9,
                          bandwidth_bytes_per_sec=1000, name="fake-disk")

    def crash_node(self, node):
        if node == "ghost":
            return False
        self.crashed.append(node)
        return True

    def restart_node(self, node):
        self.restarted.append(node)
        return True

    def fault_cpu(self, node):
        return self._cpu if node != "ghost" else None

    def fault_disk(self, node):
        return self._disk if node != "ghost" else None


def collect_inbox(sim, net, node_id, sink):
    inbox = sim.channel(node_id)
    net.register(node_id, inbox)

    def receiver():
        while True:
            message = yield Get(inbox)
            sink.append(message)

    sim.spawn(receiver(), name=f"recv:{node_id}")
    return inbox


# -- primitives & serialization ------------------------------------------------


@pytest.mark.parametrize("fault", ALL_PRIMITIVES,
                         ids=lambda f: type(f).__name__)
def test_primitive_dict_round_trip(fault):
    restored = fault_from_dict(fault.to_dict())
    assert restored == fault
    assert type(restored) is type(fault)


def test_fault_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        fault_from_dict({"kind": "meteor-strike", "time": 1.0})


def test_schedule_json_round_trip_is_lossless():
    schedule = FaultSchedule(events=list(ALL_PRIMITIVES), seed=7, name="mix")
    assert FaultSchedule.from_json(schedule.to_json()) == schedule


def test_schedule_rejects_untagged_json():
    with pytest.raises(ValueError, match="unknown schedule format"):
        FaultSchedule.from_json('{"bogus": true}')
    with pytest.raises(ValueError, match="unknown schedule format"):
        FaultSchedule.from_json('{"format": "repro-fault-schedule-v0"}')


def test_schedule_save_load(tmp_path):
    schedule = generate_schedule(
        [node_name(i) for i in range(8)], seed=11,
        config=ChaosConfig(events=6, horizon=60))
    path = tmp_path / "schedule.json"
    schedule.save(path)
    assert FaultSchedule.load(path) == schedule


def test_schedule_subset_and_without():
    schedule = FaultSchedule(events=list(ALL_PRIMITIVES))
    assert [type(e) for e in schedule.subset([0, 2]).events] == \
        [NodeCrash, PartitionCut]
    assert len(schedule.without([0])) == len(ALL_PRIMITIVES) - 1


def test_merge_schedules_sorts_by_time():
    a = FaultSchedule(events=[NodeCrash(time=10.0, node="n")])
    b = FaultSchedule(events=[NodeCrash(time=5.0, node="m")])
    merged = merge_schedules([a, b])
    assert [e.time for e in merged.events] == [5.0, 10.0]


# -- network: degrade, selective heal, drop accounting -------------------------


def make_net(seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=LatencyModel(base=0.001, jitter=0.0))
    return sim, net


def test_degrade_full_loss_drops_and_counts():
    sim, net = make_net()
    got = []
    collect_inbox(sim, net, "b", got)
    net.degrade("a", "b", drop_p=1.0)
    for __ in range(5):
        net.send("a", "b", "ping", None)
    sim.run()
    assert got == []
    assert net.dropped_degraded == 5
    assert net.dropped == 5
    assert net.drop_reasons()["degraded"] == 5


def test_degrade_latency_multiplier_delays_delivery():
    sim, net = make_net()
    got = []
    collect_inbox(sim, net, "b", got)
    net.degrade("a", "b", drop_p=0.0, latency_mult=10.0)
    net.send("a", "b", "ping", None)
    sim.run()
    assert len(got) == 1
    assert sim.now == pytest.approx(0.01)  # 0.001 base x10


def test_degrade_restore_clears_entry():
    sim, net = make_net()
    got = []
    collect_inbox(sim, net, "b", got)
    net.degrade("a", "b", drop_p=1.0, latency_mult=2.0)
    assert net.send("a", "b", "ping", "degraded") is None
    assert net.dropped_degraded == 1
    net.degrade("a", "b", drop_p=0.0, latency_mult=1.0)
    net.send("a", "b", "ping", "restored")
    sim.run()
    assert [m.payload for m in got] == ["restored"]
    assert sim.now == pytest.approx(0.001)       # base latency, not 2x
    assert net.dropped_degraded == 1


def test_degrade_rejects_bad_ranges():
    sim, net = make_net()
    with pytest.raises(ValueError):
        net.degrade("a", "b", drop_p=1.5)
    with pytest.raises(ValueError):
        net.degrade("a", "b", drop_p=0.5, latency_mult=0.0)


def test_selective_heal_removes_only_named_cut():
    sim, net = make_net()
    got_b, got_d = [], []
    collect_inbox(sim, net, "b", got_b)
    collect_inbox(sim, net, "d", got_d)
    net.partition(["a"], ["b"])
    net.partition(["c"], ["d"])
    net.heal(["a"], ["b"])
    net.send("a", "b", "ping", 1)   # healed: delivered
    net.send("c", "d", "ping", 2)   # still cut: dropped
    sim.run()
    assert [m.payload for m in got_b] == [1]
    assert got_d == []
    assert net.dropped_cut == 1
    net.heal()                      # clear-all restores c-d too
    net.send("c", "d", "ping", 3)
    sim.run()
    assert [m.payload for m in got_d] == [3]


def test_heal_one_side_only_is_an_error():
    sim, net = make_net()
    with pytest.raises(ValueError):
        net.heal(["a"], None)


def test_drop_reason_counters_sum_to_dropped():
    sim, net = make_net()
    got = []
    collect_inbox(sim, net, "b", got)
    net.send("a", "ghost", "ping", None)          # unknown destination
    net.crash("b")
    net.send("a", "b", "ping", None)              # crashed endpoint
    net.recover("b")
    net.partition(["a"], ["b"])
    net.send("a", "b", "ping", None)              # partition cut
    net.heal()
    net.degrade("a", "b", drop_p=1.0)
    net.send("a", "b", "ping", None)              # degraded link
    sim.run()
    assert (net.dropped_unknown_dst, net.dropped_down,
            net.dropped_cut, net.dropped_degraded) == (1, 1, 1, 1)
    assert net.dropped == 4


# -- injector ------------------------------------------------------------------


def test_injector_enacts_at_virtual_times():
    cluster = FakeCluster()
    schedule = FaultSchedule(events=[
        NodeCrash(time=5.0, node="node-001"),
        NodeRestart(time=9.0, node="node-001"),
    ])
    injector = Injector(schedule, ClusterFaultTarget(cluster))
    injector.install(cluster.sim)
    cluster.sim.run(until=20.0)
    assert cluster.crashed == ["node-001"]
    assert cluster.restarted == ["node-001"]
    assert [round(t, 6) for t, _ in injector.enacted] == [5.0, 9.0]
    assert injector.skipped == []


def test_injector_records_unappliable_actions_as_skipped():
    cluster = FakeCluster()
    schedule = FaultSchedule(events=[NodeCrash(time=1.0, node="ghost")])
    injector = Injector(schedule, ClusterFaultTarget(cluster))
    injector.install(cluster.sim)
    cluster.sim.run(until=5.0)
    assert injector.enacted == []
    assert len(injector.skipped) == 1
    assert "ghost" in injector.skipped[0][1]


def test_injector_link_degrade_duration_restores():
    cluster = FakeCluster()
    net = cluster.network
    got = []
    collect_inbox(cluster.sim, net, "b", got)
    schedule = FaultSchedule(events=[
        LinkDegrade(time=1.0, src="a", dst="b", drop_p=1.0,
                    latency_mult=1.0, duration=4.0),
    ])
    Injector(schedule, ClusterFaultTarget(cluster)).install(cluster.sim)

    def sender():
        from repro.sim import Timeout
        yield Timeout(2.0)
        net.send("a", "b", "ping", "during")   # degraded window: dropped
        yield Timeout(5.0)
        net.send("a", "b", "ping", "after")    # restored: delivered

    cluster.sim.spawn(sender(), name="sender")
    cluster.sim.run(until=10.0)
    assert [m.payload for m in got] == ["after"]
    assert net.dropped_degraded == 1


def test_injector_disk_degrade_throttles_and_restores():
    cluster = FakeCluster()
    original = cluster._disk.bandwidth
    schedule = FaultSchedule(events=[
        DiskDegrade(time=1.0, node="node-000", bandwidth_factor=0.1,
                    duration=3.0),
    ])
    Injector(schedule, ClusterFaultTarget(cluster)).install(cluster.sim)
    cluster.sim.run(until=2.0)
    assert cluster._disk.bandwidth == original // 10
    cluster.sim.run(until=6.0)
    assert cluster._disk.bandwidth == original


def test_injector_cpu_stress_occupies_cpu():
    cluster = FakeCluster()
    schedule = FaultSchedule(events=[
        CpuStress(time=1.0, node="node-000", hogs=1, duration=2.0),
    ])
    injector = Injector(schedule, ClusterFaultTarget(cluster))
    injector.install(cluster.sim)
    cluster.sim.run(until=5.0)
    assert len(injector.enacted) == 1
    assert cluster._cpu.utilization() > 0.0


def test_install_faults_none_or_empty_is_noop():
    cluster = FakeCluster()
    assert install_faults(cluster, None) is None
    assert install_faults(cluster, FaultSchedule()) is None


def test_injector_cannot_install_twice():
    cluster = FakeCluster()
    injector = Injector(FaultSchedule(events=[NodeCrash(time=1, node="x")]),
                        ClusterFaultTarget(cluster))
    injector.install(cluster.sim)
    with pytest.raises(RuntimeError):
        injector.install(cluster.sim)


# -- chaos generator -----------------------------------------------------------


def test_generate_schedule_is_deterministic():
    population = [node_name(i) for i in range(16)]
    config = ChaosConfig(events=10, horizon=100.0)
    a = generate_schedule(population, seed=5, config=config)
    b = generate_schedule(population, seed=5, config=config)
    assert a == b
    assert a != generate_schedule(population, seed=6, config=config)


def test_generate_schedule_pairs_crashes_with_restarts():
    population = [node_name(i) for i in range(16)]
    config = ChaosConfig(
        events=12, horizon=100.0, permanent_crash_p=0.0,
        weights={NodeCrash.kind: 1.0})
    schedule = generate_schedule(population, seed=1, config=config)
    kinds = schedule.kinds()
    assert kinds.get(NodeCrash.kind, 0) == kinds.get(NodeRestart.kind, 0) > 0


def test_generate_schedule_bounds_concurrent_crashes():
    population = [node_name(i) for i in range(9)]
    config = ChaosConfig(
        events=40, horizon=100.0, permanent_crash_p=1.0,
        weights={NodeCrash.kind: 1.0}, max_down_fraction=0.34)
    schedule = generate_schedule(population, seed=2, config=config)
    assert schedule.kinds().get(NodeCrash.kind, 0) <= 3  # 9 * 0.34 -> 3


def test_generate_schedule_requires_population():
    with pytest.raises(ValueError):
        generate_schedule([], seed=1)


# -- shrinker ------------------------------------------------------------------


def test_shrink_finds_one_minimal_schedule():
    population = [node_name(i) for i in range(12)]
    schedule = generate_schedule(
        population, seed=9, config=ChaosConfig(events=10, horizon=60.0))
    needle = NodeCrash(time=200.0, node="node-011")
    schedule.events.append(needle)

    result = shrink(schedule,
                    lambda s: any(e == needle for e in s.events))
    assert list(result.schedule.events) == [needle]
    assert result.removed == len(schedule.events) - 1
    assert result.evaluations > 0
    assert not result.exhausted_budget


def test_shrink_rejects_non_failing_input():
    schedule = FaultSchedule(events=[NodeCrash(time=1.0, node="x")])
    with pytest.raises(ValueError):
        shrink(schedule, lambda s: False)


def test_shrink_respects_budget():
    schedule = FaultSchedule(events=[
        NodeCrash(time=float(i), node=f"node-{i:03d}") for i in range(12)
    ])
    result = shrink(schedule, lambda s: len(s) >= 6, max_evals=3)
    assert result.exhausted_budget
    assert result.evaluations <= 3
    # Whatever survives the truncated shrink still satisfies the predicate.
    assert len(result.schedule) >= 6


# -- end-to-end determinism & integration --------------------------------------

SMALL = ScenarioParams(warmup=10.0, observe=40.0)


class _DeliveryLog(KernelObserver):
    """The key of each delivered message, in delivery order."""

    def __init__(self):
        self.keys = []

    def deliver(self, message):
        self.keys.append(message.key)


def _colo_run(schedule):
    check = ScaleCheck("c3831-fixed", 6, seed=42, params=SMALL)
    cluster = Cluster(check.config(Mode.COLO), observer=_DeliveryLog())
    injector = install_faults(cluster, schedule)
    report = run_workload(cluster, check.bug.workload, check.params)
    return cluster, injector, report


def chaos_mix_schedule():
    return FaultSchedule(events=[
        NodeCrash(time=8.0, node="node-004"),
        LinkDegrade(time=12.0, src="node-000", dst="node-001",
                    drop_p=0.7, latency_mult=4.0, duration=15.0),
        PartitionCut(time=15.0, side_a=("node-002",),
                     side_b=("node-000", "node-001", "node-003", "node-005")),
        Heal(time=25.0, side_a=("node-002",),
             side_b=("node-000", "node-001", "node-003", "node-005")),
        NodeRestart(time=35.0, node="node-004"),
    ], seed=0, name="mix")


def test_same_seed_same_schedule_identical_runs():
    cluster_a, _, report_a = _colo_run(chaos_mix_schedule())
    cluster_b, _, report_b = _colo_run(chaos_mix_schedule())
    assert cluster_a.sim.observer.keys == cluster_b.sim.observer.keys
    assert len(cluster_a.sim.observer.keys) > 0
    assert report_a.flaps == report_b.flaps
    assert report_a.dropped_degraded == report_b.dropped_degraded
    assert report_a.duration == report_b.duration


def test_crash_produces_convictions_and_restart_recoveries():
    schedule = FaultSchedule(events=[
        NodeCrash(time=5.0, node="node-003"),
        NodeRestart(time=40.0, node="node-003"),
    ])
    cluster, injector, report = _colo_run(schedule)
    assert len(injector.enacted) == 2
    assert report.flaps > 0
    assert {e.target for e in report.flap_events} == {"node-003"}
    assert report.recoveries > 0
    assert cluster.nodes["node-003"].gossiper.own_state.heartbeat.generation > 1


def test_baseline_unperturbed_by_fault_plumbing():
    # The degrade stream must not consume RNG draws in fault-free runs:
    # a no-faults run and an install_faults(None) run are identical.
    _, _, report_a = _colo_run(None)
    _, _, report_b = _colo_run(FaultSchedule())
    assert report_a.duration == report_b.duration
    assert report_a.messages_delivered == report_b.messages_delivered


def test_scalecheck_pipeline_threads_faults_through_pil():
    schedule = FaultSchedule(events=[
        NodeCrash(time=5.0, node="node-002"),
    ])
    check = ScaleCheck("c3831-fixed", 6, seed=42, params=SMALL)
    result = check.check(faults=schedule)
    # both the colo memoization run and the PIL replay saw the crash
    assert result.memo_report.flaps > 0
    assert result.replay_report.flaps > 0
    assert {e.target for e in result.replay_report.flap_events} == {"node-002"}
    assert result.memo_report.dropped_down > 0
    assert result.replay_report.dropped_down > 0


def test_injector_serves_hdfs_cluster_too():
    """The same duck-typed adapter drives the second target system: a
    crashed datanode goes false-silent and the namenode declares it dead;
    a restart re-registers it with a fresh block report."""
    from repro.hdfs import HdfsCluster, HdfsConfig, datanode_name

    cluster = HdfsCluster(HdfsConfig(
        datanodes=6, blocks_per_datanode=50, mode=Mode.REAL, seed=5,
        dead_timeout=8.0))
    victim = datanode_name(2)
    schedule = FaultSchedule(events=[
        NodeCrash(time=10.0, node=victim),
        NodeRestart(time=30.0, node=victim),
    ])
    cluster.build()
    cluster.start_all()
    injector = install_faults(cluster, schedule)
    cluster.run(until=45.0)
    assert len(injector.enacted) == 2
    assert any(event.target == victim for event in cluster.flaps.flaps)
    assert cluster.datanodes[victim].running
    assert victim in cluster.namenode.live_datanodes()


def test_run_report_exposes_drop_reasons():
    _, _, report = _colo_run(chaos_mix_schedule())
    assert report.messages_dropped == (
        report.dropped_down + report.dropped_cut
        + report.dropped_unknown_dst + report.dropped_degraded)
    assert report.dropped_down > 0       # crash window traffic
    assert report.dropped_cut > 0        # partition window traffic
    assert report.dropped_degraded > 0   # lossy-link traffic
