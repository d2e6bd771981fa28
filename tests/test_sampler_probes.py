"""Tests for the debugging aids: timeline sampler and replay probes."""

import pytest

from repro.bench.calibrate import ci_cost_constants
from repro.cassandra import (
    Cluster,
    ClusterConfig,
    Mode,
    ScenarioParams,
    run_decommission,
)
from repro.cassandra.sampler import (
    ClusterSampler,
    TimelinePoint,
    render_timeline,
    sparkline,
)
from repro.core.probes import ProbeSet

FAST = ScenarioParams(warmup=10.0, observe=40.0, leaving_duration=8.0)


def sampled_run(bug_id="c3831", nodes=24, seed=3):
    config = ClusterConfig.for_bug(bug_id, nodes=nodes, seed=seed,
                                   cost_constants=ci_cost_constants(bug_id))
    cluster = Cluster(config)
    sampler = ClusterSampler(cluster, interval=1.0)
    sampler.start()   # samples from t=0; the workload builds the cluster
    report = run_decommission(cluster, FAST)
    return cluster, sampler, report


class TestSampler:
    def test_samples_cover_the_run(self):
        cluster, sampler, report = sampled_run()
        assert len(sampler.points) >= int(report.duration) - 1
        times = [p.time for p in sampler.points]
        assert times == sorted(times)

    def test_healthy_cluster_full_liveness_empty_queues(self):
        cluster, sampler, __ = sampled_run(bug_id="c3831-fixed", nodes=8)
        warmup_points = [p for p in sampler.points if p.time < FAST.warmup]
        assert all(p.mean_live_fraction == pytest.approx(1.0)
                   for p in warmup_points[2:])
        assert max(p.max_inbox_depth for p in sampler.points) < 10

    def test_storm_shows_up_as_backlog(self):
        cluster, sampler, report = sampled_run(bug_id="c3831", nodes=24)
        peak_depth = max(p.max_inbox_depth for p in sampler.points)
        assert peak_depth > 10
        windows = sampler.wedge_windows(depth_threshold=10)
        assert windows
        # The wedge starts after the decommission begins.
        assert windows[0][0] >= FAST.warmup - 1.0

    def test_flaps_per_interval_sums_to_total(self):
        cluster, sampler, __ = sampled_run()
        deltas = sampler.flaps_per_interval()
        assert sum(deltas) == sampler.points[-1].flaps_so_far

    def test_series_accessor(self):
        cluster, sampler, __ = sampled_run(bug_id="c3831-fixed", nodes=8)
        series = sampler.series("calcs_so_far")
        assert len(series) == len(sampler.points)
        assert series == sorted(series)  # cumulative


class TestRendering:
    def test_sparkline_scales_to_width(self):
        assert len(sparkline(list(range(200)), width=60)) == 60
        assert len(sparkline([1, 2, 3], width=60)) == 3

    def test_sparkline_empty_and_flat(self):
        assert sparkline([]) == ""
        flat = sparkline([0, 0, 0])
        assert set(flat) == {" "}

    def test_sparkline_peaks_use_heavy_chars(self):
        line = sparkline([0, 0, 10, 0])
        assert line[2] == "@"

    def test_render_timeline_mentions_totals(self):
        points = [
            TimelinePoint(time=float(t), max_inbox_depth=t % 5,
                          total_inbox_depth=t, mean_live_fraction=1.0,
                          flaps_so_far=t * 2, calcs_so_far=t)
            for t in range(10)
        ]
        text = render_timeline(points)
        assert "stage backlog" in text
        assert "total 18" in text

    def test_render_timeline_empty(self):
        assert render_timeline([]) == "(no samples)"


class TestProbes:
    def probed_run(self, probes, bug_id="c3831", nodes=24):
        config = ClusterConfig.for_bug(
            bug_id, nodes=nodes, seed=3,
            cost_constants=ci_cost_constants(bug_id))
        cluster = Cluster(config)
        probes.attach(cluster)
        report = run_decommission(cluster, FAST)
        return cluster, report

    def test_slow_calc_probe_fires(self):
        probes = ProbeSet().log_calcs_over(threshold=0.05)
        cluster, report = self.probed_run(probes)
        slow = probes.entries("slow-calc")
        assert slow
        assert all("ran v0-c3831" in e.message for e in slow)

    def test_conviction_probe_matches_flap_counter(self):
        probes = ProbeSet().log_convictions()
        cluster, report = self.probed_run(probes)
        assert len(probes.entries("conviction")) == cluster.flaps.total

    def test_assertion_probe_collects_violations(self):
        probes = ProbeSet().assert_calc(
            lambda record: record.demand < 0.5,
            "calculation exceeded 500ms budget")
        cluster, __ = self.probed_run(probes)
        assert probes.assertion_failures  # the bug violates the budget

    def test_probes_do_not_perturb_the_run(self):
        """Attaching probes must not change behaviour (no virtual time)."""
        bare_cluster, bare = self.probed_run(ProbeSet())
        probed_cluster, probed = self.probed_run(
            ProbeSet().log_convictions().log_calcs_over(0.0))
        assert bare.flaps == probed.flaps
        assert bare.messages_sent == probed.messages_sent
        assert len(bare.calc_records) == len(probed.calc_records)

    def test_render_log_formats_and_limits(self):
        probes = ProbeSet()
        probes.log.extend(
            __import__("repro.core.probes", fromlist=["ProbeLogEntry"])
            .ProbeLogEntry(float(i), "k", f"m{i}") for i in range(50))
        text = probes.render_log(limit=5)
        assert "and 45 more" in text
        assert ProbeSet().render_log() == "(probe log empty)"

    def test_probed_executor_preserves_stats(self):
        from repro.core.memoization import MemoDB
        from repro.core.pil import MemoizingExecutor

        probes = ProbeSet()
        db = MemoDB()
        config = ClusterConfig.for_bug("c3831-fixed", nodes=6, seed=3,
                                       mode=Mode.COLO)
        cluster = Cluster(config)
        cluster.executor = MemoizingExecutor(db)
        probes.attach(cluster)
        report = run_decommission(cluster, FAST)
        # The probed executor reads through to the wrapped one's counters.
        assert cluster.executor.db is db
        assert cluster.executor.conflicts == report.memo_conflicts == 0
        assert db.total_samples() == len(report.calc_records) > 0
        assert len(db) >= 1
