"""System-level property tests: conservation, convergence, replay outputs.

These pin the invariants the whole reproduction rests on: the CPU models
conserve work, gossip converges regardless of topology/seed, and PIL
replay preserves output equality for arbitrary ring configurations.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cassandra.gossip import GossipConfig
from repro.cassandra import Cluster, ClusterConfig, Mode
from repro.cassandra.cluster import node_name
from repro.sim import (
    Compute,
    ProcessorSharingCpu,
    Simulator,
)


class TestCpuWorkConservation:
    @given(jobs=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=5.0),     # arrival
                  st.floats(min_value=0.01, max_value=3.0)),   # demand
        min_size=1, max_size=12),
        cores=st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_property_processor_sharing_conserves_work(self, jobs, cores):
        """busy-core-seconds == total demand, every job finishes, and no
        job finishes faster than its demand (rate <= 1 per job)."""
        sim = Simulator(seed=1)
        cpu = ProcessorSharingCpu(sim, cores=cores)
        done = []

        def worker(arrival, demand, idx):
            if arrival > 0:
                from repro.sim import Timeout
                yield Timeout(arrival)
            start = sim.now
            elapsed = yield Compute(cpu, demand)
            done.append((idx, demand, elapsed, sim.now - start))

        for idx, (arrival, demand) in enumerate(jobs):
            sim.spawn(worker(arrival, demand, idx))
        sim.run()
        assert len(done) == len(jobs)
        total_demand = sum(demand for __, demand in jobs)
        assert cpu.busy_core_seconds == pytest.approx(total_demand, rel=1e-6)
        for __, demand, elapsed, wall in done:
            assert elapsed == pytest.approx(wall, rel=1e-9)
            assert elapsed >= demand - 1e-9


class TestGossipConvergenceProperty:
    @given(nodes=st.integers(min_value=3, max_value=12),
           seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=10, deadline=None)
    def test_property_established_cluster_converges_and_stays_stable(
            self, nodes, seed):
        """For any size/seed: every node learns every peer, heartbeats keep
        flowing, and no healthy cluster ever flaps."""
        cluster = Cluster(ClusterConfig.for_bug("c3831-fixed", nodes=nodes,
                                                seed=seed))
        cluster.build_established()
        cluster.run(until=25.0)
        assert cluster.flaps.total == 0
        for node in cluster.nodes.values():
            assert len(node.gossiper.endpoint_state_map) == nodes
            assert len(node.gossiper.live_endpoints) == nodes - 1
            for other, state in node.gossiper.endpoint_state_map.items():
                if other != node.node_id:
                    assert state.heartbeat.version > 0

    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=6, deadline=None)
    def test_property_fresh_bootstrap_discovers_everyone(self, seed):
        """Starting from seeds-only knowledge, gossip discovers the whole
        membership for any seed."""
        from repro.cassandra.workloads import ScenarioParams, run_bootstrap

        cluster = Cluster(ClusterConfig.for_bug("c6127-fixed", nodes=6,
                                                seed=seed))
        run_bootstrap(cluster, ScenarioParams(
            observe=60.0, join_duration=6.0, bootstrap_stagger=2.0))
        for node in cluster.nodes.values():
            assert len(node.metadata.normal_endpoints()) == 6


class TestReplayOutputEqualityProperty:
    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=5, deadline=None)
    def test_property_replay_outputs_match_live_outputs(self, seed):
        """For any seed, every PIL-replayed calculation output equals what
        the live computation would produce (the memoizability contract,
        checked end to end)."""
        from repro.cassandra.workloads import ScenarioParams
        from repro.core.scalecheck import ScaleCheck

        params = ScenarioParams(warmup=8.0, observe=25.0,
                                leaving_duration=6.0)
        check = ScaleCheck(bug_id="c3831", nodes=6, seed=seed, params=params)
        result = check.check()
        assert result.replay.misses == 0
        # Replay installed real outputs: clusters converge identically.
        assert result.replay_report.flaps == result.memo_report.flaps == 0
