"""Tests for the HDFS-like target system."""

import pytest

from repro.cassandra.cluster import Mode
from repro.cassandra.workloads import ScenarioParams
from repro.core.scalecheck import ScaleCheck
from repro.hdfs import (
    HDFS_BUG_ID,
    BlockReport,
    HdfsCluster,
    HdfsConfig,
    datanode_name,
    placement_for_block,
    run_cold_start,
    run_decommission,
    synthesize_blocks,
)
from repro.sim.memory import GB, MB


def small_config(**overrides) -> HdfsConfig:
    defaults = dict(datanodes=6, blocks_per_datanode=200, mode=Mode.REAL,
                    seed=5)
    defaults.update(overrides)
    return HdfsConfig(**defaults)


class TestBlocks:
    def test_synthesize_blocks_deterministic(self):
        a = synthesize_blocks("dn-001", 10, block_size=1 * MB)
        b = synthesize_blocks("dn-001", 10, block_size=1 * MB)
        assert a == b
        assert len({blk.block_id for blk in a}) == 10

    def test_size_jitter_varies_sizes(self):
        blocks = synthesize_blocks("dn-001", 50, block_size=1 * MB,
                                   size_jitter=0.5)
        sizes = {blk.size for blk in blocks}
        assert len(sizes) > 1
        assert all(0 < s <= int(1.5 * MB) for s in sizes)

    def test_report_content_key_tracks_content(self):
        blocks = tuple(synthesize_blocks("dn-001", 5))
        r1 = BlockReport("dn-001", blocks)
        r2 = BlockReport("dn-001", blocks)
        assert r1.content_key() == r2.content_key()
        r3 = BlockReport("dn-001", blocks[:4])
        assert r3.content_key() != r1.content_key()

    def test_placement_deterministic_and_replicated(self):
        nodes = [datanode_name(i) for i in range(10)]
        placement = placement_for_block(7, nodes, replication=3)
        assert placement == placement_for_block(7, nodes, replication=3)
        assert len(placement) == 3
        assert len(set(placement)) == 3
        assert placement_for_block(7, [], 3) == []


class TestColdStart:
    def test_small_cluster_settles_without_false_deads(self):
        cluster = HdfsCluster(small_config())
        report = run_cold_start(cluster, observe=40.0)
        assert report.flaps == 0
        assert report.extra["reports_processed"] >= 6
        assert cluster.namenode.live_datanodes() == sorted(cluster.datanodes)
        assert cluster.namenode.total_blocks() == 6 * 200

    def test_block_map_tracks_replicas(self):
        cluster = HdfsCluster(small_config())
        run_cold_start(cluster, observe=40.0)
        # Synthetic blocks are per-datanode, one replica each.
        for __, replicas in cluster.namenode.block_map.values():
            assert len(replicas) == 1

    def test_calc_records_cover_reports(self):
        cluster = HdfsCluster(small_config())
        report = run_cold_start(cluster, observe=40.0)
        assert len(report.calc_records) == int(
            report.extra["reports_processed"])
        assert all(r.variant == "block-report" for r in report.calc_records)

    def test_symptom_appears_only_at_scale(self):
        small = HdfsCluster(HdfsConfig(datanodes=8, mode=Mode.REAL, seed=3))
        small_report = run_cold_start(small, observe=60.0)
        big = HdfsCluster(HdfsConfig(datanodes=64, mode=Mode.REAL, seed=3))
        big_report = run_cold_start(big, observe=60.0)
        assert small_report.flaps == 0
        assert big_report.flaps > 50
        # False-dead nodes recover once the report backlog drains.
        assert big_report.recoveries > 0

    def test_deterministic_across_runs(self):
        r1 = run_cold_start(HdfsCluster(small_config()), observe=30.0)
        r2 = run_cold_start(HdfsCluster(small_config()), observe=30.0)
        assert r1.messages_sent == r2.messages_sent
        assert r1.flaps == r2.flaps


class TestDecommission:
    def test_replication_monitor_scans_while_decommission_pending(self):
        baseline = HdfsCluster(small_config())
        baseline_report = run_cold_start(baseline, observe=55.0)
        cluster = HdfsCluster(small_config())
        report = run_decommission(cluster, victims=1, warmup=15.0,
                                  observe=40.0)
        assert report.bug == HDFS_BUG_ID
        descriptor = cluster.namenode.datanodes[datanode_name(5)]
        # Synthetic blocks are single-replica and never migrate, so the
        # decommission stays pending and the O(B) scan keeps firing --
        # visible as extra lock hold time versus the idle baseline.
        assert descriptor.decommissioning
        assert (cluster.namenode.fsn_lock.total_hold
                > baseline.namenode.fsn_lock.total_hold)

    def test_decommission_unknown_datanode_raises(self):
        cluster = HdfsCluster(small_config())
        cluster.build()
        with pytest.raises(KeyError):
            cluster.namenode.start_decommission("dn-999")


class TestStorage:
    def test_real_mode_gives_each_datanode_its_own_disk(self):
        cluster = HdfsCluster(small_config(store_data=True,
                                           block_size=1 * MB))
        run_cold_start(cluster, observe=20.0)
        disks = {id(dn.disk) for dn in cluster.datanodes.values()}
        assert len(disks) == 6
        assert cluster.host_disk is None

    def test_colo_mode_shares_the_host_disk(self):
        cluster = HdfsCluster(small_config(mode=Mode.COLO, store_data=True,
                                           block_size=1 * MB))
        run_cold_start(cluster, observe=20.0)
        disks = {id(dn.disk) for dn in cluster.datanodes.values()}
        assert len(disks) == 1
        assert cluster.host_disk is not None
        assert cluster.host_disk.logical_stored == 6 * 200 * MB

    def test_storage_failure_empties_node_blocks(self):
        config = small_config(mode=Mode.COLO, store_data=True,
                              block_size=64 * MB,
                              host_disk_bytes=1 * GB,
                              disk_bandwidth=100 * GB)
        cluster = HdfsCluster(config)
        report = run_cold_start(cluster, observe=30.0)
        assert report.extra["storage_failures"] > 0
        failed = [dn for dn in cluster.datanodes.values()
                  if dn.failed_storage]
        assert all(dn.blocks == [] for dn in failed)


class TestScaleCheckIntegration:
    @pytest.fixture(scope="class")
    def pipeline(self):
        check = ScaleCheck(HDFS_BUG_ID, nodes=24, vnodes=2000, seed=5,
                           params=ScenarioParams(observe=40.0))
        return check, check.compare_modes()

    def test_three_modes_agree_below_symptom_scale(self, pipeline):
        check, reports = pipeline
        accuracy = ScaleCheck.accuracy(reports)
        assert reports["real"].flaps == 0
        assert accuracy["pil_error"] <= max(accuracy["colo_error"], 0.1)

    def test_memo_db_keyed_by_report_content(self, pipeline):
        check, __ = pipeline
        result = check.check()
        # One record per datanode (each datanode's report content is
        # unique but repeats across periodic re-reports).
        assert len(result.db) == 24
        assert result.db.meta["bug"] == HDFS_BUG_ID
        assert result.replay.hit_rate == 1.0

    def test_pil_removes_namenode_compute_from_host(self, pipeline):
        check, reports = pipeline
        assert (reports["pil"].cpu_utilization
                <= reports["colo"].cpu_utilization)
