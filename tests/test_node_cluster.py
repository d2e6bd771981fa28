"""Integration tests: nodes, clusters, and membership scenarios."""

import pytest

from repro.cassandra import (
    Cluster,
    ClusterConfig,
    Mode,
    ScenarioParams,
    get_bug,
    node_name,
    run_bootstrap,
    run_decommission,
    run_failover,
    run_scale_out,
)
from repro.cassandra.node import estimate_entries
from repro.cassandra.gossip import ACK, ACK2, SYN
from repro.cassandra.state import STATUS_NORMAL


def small_config(bug_id="c3831-fixed", nodes=8, mode=Mode.REAL, seed=5):
    return ClusterConfig.for_bug(bug_id, nodes=nodes, mode=mode, seed=seed)


FAST = ScenarioParams(warmup=10.0, observe=40.0, leaving_duration=8.0,
                      join_duration=8.0, join_stagger=1.0,
                      bootstrap_stagger=2.0)


def test_established_cluster_is_stable():
    cluster = Cluster(small_config())
    cluster.build_established()
    cluster.run(until=30.0)
    report = cluster.report()
    assert report.flaps == 0
    assert report.messages_delivered > 0
    # Every node knows every other node as NORMAL.
    for node in cluster.nodes.values():
        assert len(node.gossiper.endpoint_state_map) == 8
        assert len(node.metadata.normal_endpoints()) == 8


def test_heartbeats_advance_across_cluster():
    cluster = Cluster(small_config())
    cluster.build_established()
    cluster.run(until=5.0)
    versions_early = {
        name: node.gossiper.endpoint_state_map[node_name(0)].heartbeat.version
        for name, node in cluster.nodes.items() if name != node_name(0)
    }
    cluster.run(until=25.0)
    for name, node in cluster.nodes.items():
        if name == node_name(0):
            continue
        later = node.gossiper.endpoint_state_map[node_name(0)].heartbeat.version
        assert later > versions_early[name]


def test_decommission_removes_node_from_all_rings():
    cluster = Cluster(small_config())
    report = run_decommission(cluster, FAST)
    victim = node_name(7)
    for name, node in cluster.nodes.items():
        if name == victim:
            continue
        assert victim not in node.metadata.normal_endpoints()
        assert not node.metadata.has_pending_changes()
    assert not cluster.nodes[victim].running
    assert report.duration == pytest.approx(FAST.warmup + FAST.observe)


def test_scale_out_adds_nodes_to_all_rings():
    cluster = Cluster(small_config())
    report = run_scale_out(cluster, FAST)
    # nodes//4 = 2 joiners.
    joiners = [node_name(8), node_name(9)]
    for joiner in joiners:
        assert joiner in cluster.nodes
        for name, node in cluster.nodes.items():
            assert joiner in node.metadata.normal_endpoints(), name
    assert report.nodes == 8


def test_bootstrap_from_scratch_converges():
    cluster = Cluster(small_config(bug_id="c6127-fixed", nodes=6))
    report = run_bootstrap(cluster, FAST)
    for node in cluster.nodes.values():
        assert len(node.metadata.normal_endpoints()) == 6
        assert node.metadata.normal_endpoints()[0] == node_name(0)
    assert report.bug == "c6127-fixed"


def test_failover_detects_crashed_nodes():
    cluster = Cluster(small_config())
    params = ScenarioParams(warmup=15.0, observe=60.0, crash_count=2)
    report = run_failover(cluster, params)
    # Every survivor eventually convicts both victims.
    assert report.extra["true_detections"] > 0
    dead = {node_name(7), node_name(6)}
    convicting = {e.observer for e in report.flap_events if e.target in dead}
    survivors = set(cluster.nodes) - dead
    assert convicting == survivors


def test_fixed_bug_no_flaps_during_decommission():
    cluster = Cluster(small_config(bug_id="c3831-fixed"))
    report = run_decommission(cluster, FAST)
    assert report.flaps == 0


def test_calc_triggered_by_membership_changes():
    cluster = Cluster(small_config())
    report = run_decommission(cluster, FAST)
    assert len(report.calc_records) > 0
    variants = {r.variant for r in report.calc_records}
    assert variants == {"v1-c3881"}  # the c3831-fixed calculator


def test_buggy_variant_used_when_configured():
    cluster = Cluster(small_config(bug_id="c3831"))
    report = run_decommission(cluster, FAST)
    assert {r.variant for r in report.calc_records} == {"v0-c3831"}


def test_c6127_uses_bootstrap_variant_on_fresh_start():
    cluster = Cluster(small_config(bug_id="c6127", nodes=6))
    report = run_bootstrap(cluster, FAST)
    variants = {r.variant for r in report.calc_records}
    assert "v3-bootstrap-c6127" in variants


def test_c6127_fixed_avoids_bootstrap_variant():
    cluster = Cluster(small_config(bug_id="c6127-fixed", nodes=6))
    report = run_bootstrap(cluster, FAST)
    variants = {r.variant for r in report.calc_records}
    assert "v3-bootstrap-c6127" not in variants


def test_c5456_calc_runs_on_separate_stage_with_lock():
    cluster = Cluster(small_config(bug_id="c5456", nodes=6))
    report = run_scale_out(cluster, FAST)
    assert len(report.calc_records) > 0
    assert report.lock_max_hold > 0.0


def test_c5456_fixed_clone_holds_lock_briefly():
    buggy = Cluster(small_config(bug_id="c5456", nodes=6))
    buggy_report = run_scale_out(buggy, FAST)
    fixed = Cluster(small_config(bug_id="c5456-fixed", nodes=6))
    fixed_report = run_scale_out(fixed, FAST)
    assert fixed_report.lock_max_hold < buggy_report.lock_max_hold


def test_node_stop_is_idempotent_and_detaches():
    cluster = Cluster(small_config())
    cluster.build_established()
    cluster.run(until=5.0)
    node = cluster.nodes[node_name(0)]
    node.stop()
    node.stop()
    assert not node.running
    network = cluster.network
    before = network.dropped_unknown_dst
    assert network.send(node_name(1), node_name(0), "probe", None) is None
    assert network.dropped_unknown_dst == before + 1


def test_duplicate_node_id_rejected():
    cluster = Cluster(small_config())
    cluster.build_established()
    with pytest.raises(ValueError):
        cluster.add_node(node_name(0))


def test_same_seed_same_flap_count():
    def run(seed):
        cluster = Cluster(small_config(bug_id="c3831", nodes=10, seed=seed))
        return run_decommission(cluster, FAST)

    r1, r2 = run(9), run(9)
    assert r1.flaps == r2.flaps
    assert r1.messages_sent == r2.messages_sent


def test_estimate_entries_by_kind():
    assert estimate_entries(SYN, [1, 2, 3]) == 3
    blob = (1, 5, (("STATUS", "NORMAL", 3, None),))
    assert estimate_entries(ACK, ({"a": blob}, [("b", 0)])) == 3
    assert estimate_entries(ACK2, {"a": blob, "b": blob}) == 4
    assert estimate_entries("other", None) == 1


def test_colo_mode_shares_one_cpu():
    cluster = Cluster(small_config(mode=Mode.COLO))
    cluster.build_established()
    cluster.run(until=10.0)
    cpus = {id(node.cpu) for node in cluster.nodes.values()}
    assert len(cpus) == 1


def test_real_mode_gives_each_node_a_cpu():
    cluster = Cluster(small_config(mode=Mode.REAL))
    cluster.build_established()
    cluster.run(until=10.0)
    cpus = {id(node.cpu) for node in cluster.nodes.values()}
    assert len(cpus) == 8


def test_colo_tracks_memory_and_real_does_not():
    colo = Cluster(small_config(mode=Mode.COLO))
    colo.build_established()
    assert colo.memory is not None
    assert colo.memory.used > 0
    real = Cluster(small_config(mode=Mode.REAL))
    real.build_established()
    assert real.memory is None
