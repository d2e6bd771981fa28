"""Tests for hinted handoff on the storage write path."""

import pytest

from repro.analysis import Program
from repro.cassandra import Cluster, ClusterConfig
from repro.cassandra.cluster import node_name
from repro.cassandra.storage import ConsistencyLevel, StorageService

pytestmark = pytest.mark.workload


def storage_cluster(nodes=6, seed=3, **overrides):
    config = ClusterConfig.for_bug("c3831-fixed", nodes=nodes, seed=seed,
                                   enable_storage=True, **overrides)
    cluster = Cluster(config)
    cluster.build_established()
    return cluster


def run_op(cluster, op_gen):
    """Run ``op_gen`` and stop as soon as it completes.

    Advancing in small steps (instead of a flat 5 s) lets the caller
    inspect hint state *before* the next periodic delivery tick or a
    gossip round re-marks a manually-discarded endpoint alive.
    """
    outcome = {}

    def driver():
        result = yield from op_gen
        outcome["result"] = result

    cluster.sim.spawn(driver(), name="op-driver")
    deadline = cluster.sim.now + 5.0
    while "result" not in outcome and cluster.sim.now < deadline:
        cluster.run(until=cluster.sim.now + 0.25)
    return outcome["result"]


def write_replicas(cluster, key):
    """(coordinator node, non-coordinator replica ids) for ``key``."""
    coord = cluster.nodes[node_name(0)]
    replicas = coord.storage.replicas_for(key)
    return coord, [r for r in replicas if r != coord.node_id]


class TestHintStorage:
    def test_write_past_convicted_replica_stores_a_hint(self):
        cluster = storage_cluster()
        cluster.run(until=5.0)
        coord, others = write_replicas(cluster, "key-h1")
        victim = others[0]
        # The victim is genuinely down (stopped, so it cannot gossip its
        # way back to life); the write proceeds at QUORUM on the
        # remaining replicas and hints the missed one.
        cluster.nodes[victim].stop()
        coord.gossiper.live_endpoints.discard(victim)
        result = run_op(cluster, coord.storage.coordinate_write(
            "key-h1", "v1", ConsistencyLevel.QUORUM))
        assert result.ok
        assert coord.storage.hints_stored == 1
        assert victim in coord.storage.hints
        key, value, timestamp = coord.storage.hints[victim][0]
        assert (key, value) == ("key-h1", "v1")

    def test_unavailable_write_stores_no_hints(self):
        cluster = storage_cluster()
        cluster.run(until=5.0)
        coord, others = write_replicas(cluster, "key-h2")
        for victim in others:
            coord.gossiper.live_endpoints.discard(victim)
        result = run_op(cluster, coord.storage.coordinate_write(
            "key-h2", "v1", ConsistencyLevel.QUORUM))
        assert not result.ok
        assert result.error == "unavailable"
        assert coord.storage.hints_stored == 0

    def test_timed_out_write_hints_the_silent_replicas(self):
        cluster = storage_cluster()
        cluster.run(until=5.0)
        coord, others = write_replicas(cluster, "key-h3")
        # Replicas look alive to the coordinator but are crashed on the
        # network: the ALL write times out and hints every silent target.
        for victim in others:
            cluster.network.crash(victim)
        result = run_op(cluster, coord.storage.coordinate_write(
            "key-h3", "v1", ConsistencyLevel.ALL))
        assert not result.ok
        assert result.error == "timeout"
        assert set(coord.storage.hints) == set(others)

    def test_left_endpoints_are_never_hinted(self):
        cluster = storage_cluster()
        cluster.run(until=5.0)
        coord, others = write_replicas(cluster, "key-h4")
        victim = others[0]
        coord.gossiper.live_endpoints.discard(victim)
        from repro.cassandra.state import STATUS, STATUS_LEFT
        state = coord.gossiper.endpoint_state_map[victim]
        coord.gossiper._apply_state(victim, (
            state.heartbeat.generation, state.heartbeat.version,
            ((STATUS, STATUS_LEFT, state.max_version() + 1, None),)))
        assert coord.gossiper.endpoint_state_map[victim].status() == STATUS_LEFT
        run_op(cluster, coord.storage.coordinate_write(
            "key-h4", "v1", ConsistencyLevel.QUORUM))
        assert victim not in coord.storage.hints

    def test_per_endpoint_cap_drops_overflow(self):
        cluster = storage_cluster()
        cluster.run(until=5.0)
        coord = cluster.nodes[node_name(0)]
        victim = node_name(3)
        coord.storage.hints[victim] = [
            ("k", "v", 0.0)] * StorageService.MAX_HINTS_PER_ENDPOINT

        def overflow():
            yield from coord.storage._store_hints([victim], "k2", "v2", 1.0)

        cluster.sim.spawn(overflow(), name="overflow")
        cluster.run(until=cluster.sim.now + 1.0)
        assert coord.storage.hints_dropped == 1
        assert len(coord.storage.hints[victim]) == (
            StorageService.MAX_HINTS_PER_ENDPOINT)


class TestHintDelivery:
    def test_hints_replay_when_the_replica_returns(self):
        cluster = storage_cluster()
        cluster.run(until=5.0)
        coord, others = write_replicas(cluster, "key-d1")
        victim = others[0]
        coord.gossiper.live_endpoints.discard(victim)
        run_op(cluster, coord.storage.coordinate_write(
            "key-d1", "v1", ConsistencyLevel.QUORUM))
        assert cluster.nodes[victim].storage.store.get("key-d1") is None
        # Replica is seen alive again: the periodic task drains the hint.
        coord.gossiper.live_endpoints.add(victim)
        cluster.run(until=cluster.sim.now + 3 * coord.storage.hint_interval)
        assert coord.storage.hints_delivered == 1
        assert coord.storage.hints == {}
        value, _ = cluster.nodes[victim].storage.store["key-d1"]
        assert value == "v1"

    def test_hints_wait_while_the_replica_stays_down(self):
        cluster = storage_cluster()
        cluster.run(until=5.0)
        coord, others = write_replicas(cluster, "key-d2")
        victim = others[0]
        cluster.nodes[victim].stop()
        # Let the victim's final heartbeat finish propagating so a stale
        # third-party rumour cannot briefly re-mark it alive later.
        cluster.run(until=cluster.sim.now + 10.0)
        coord.gossiper.live_endpoints.discard(victim)
        run_op(cluster, coord.storage.coordinate_write(
            "key-d2", "v1", ConsistencyLevel.QUORUM))
        cluster.run(until=cluster.sim.now + 3 * coord.storage.hint_interval)
        assert coord.storage.hints_delivered == 0
        assert victim in coord.storage.hints

    def test_stale_hint_never_clobbers_fresher_data(self):
        cluster = storage_cluster()
        cluster.run(until=5.0)
        coord, others = write_replicas(cluster, "key-d3")
        victim = others[0]
        victim_store = cluster.nodes[victim].storage
        coord.gossiper.live_endpoints.discard(victim)
        run_op(cluster, coord.storage.coordinate_write(
            "key-d3", "stale", ConsistencyLevel.QUORUM))
        # The replica recovers and takes a *newer* direct write before the
        # hint replays; last-write-wins must keep the newer value.
        coord.gossiper.live_endpoints.add(victim)
        run_op(cluster, coord.storage.coordinate_write(
            "key-d3", "fresh", ConsistencyLevel.ALL))
        cluster.run(until=cluster.sim.now + 3 * coord.storage.hint_interval)
        assert coord.storage.hints_delivered >= 1
        value, _ = victim_store.store["key-d3"]
        assert value == "fresh"


class TestLockDiscipline:
    def test_hint_store_is_declared_lock_protected(self):
        registry = Program.load(["repro.cassandra"]).registry
        owners = {annotation.lock
                  for annotation in registry.lock_annotations()}
        assert "hints_lock" in owners
