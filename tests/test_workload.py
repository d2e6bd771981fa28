"""Tests for repro.workload: spec, generators, shards, engine, scenarios."""

import json
from types import SimpleNamespace

import pytest

from repro.cassandra.cluster import Cluster, ClusterConfig, Mode
from repro.cassandra.metrics import RunReport
from repro.cassandra.workloads import ScenarioParams
from repro.faults.primitives import NodeCrash
from repro.faults.schedule import FaultSchedule
from repro.obs.histogram import QuantileHistogram
from repro.workload import (
    PRESETS,
    WorkloadEngine,
    WorkloadSpec,
    ZipfKeys,
    make_curve,
    offered_requests,
    preset_spec,
    run_point,
    run_traffic,
)
from repro.workload.generators import (
    constant_curve,
    diurnal_curve,
    ramp_curve,
    spike_curve,
)

pytestmark = pytest.mark.workload

#: Short windows shared by the traffic tests (virtual seconds).
FAST = ScenarioParams(warmup=8.0, observe=20.0)


def traffic_cluster(nodes=12, seed=7, mode=Mode.REAL, **overrides):
    config = ClusterConfig.for_bug("c3831-fixed", nodes=nodes, mode=mode,
                                   seed=seed, enable_storage=True,
                                   **overrides)
    return Cluster(config)


class TestWorkloadSpec:
    def test_round_trips_through_json(self):
        spec = WorkloadSpec(users=123_456, shards=9, curve="diurnal",
                            curve_params={"period": 60.0}, loop="closed",
                            topology="powerlaw")
        clone = WorkloadSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    def test_from_dict_ignores_unknown_keys(self):
        spec = WorkloadSpec.from_dict({"users": 10, "not_a_field": 1})
        assert spec.users == 10

    def test_shard_slices_sum_to_population(self):
        spec = WorkloadSpec(users=1_000_003, shards=16)
        slices = [spec.users_in_shard(i) for i in range(spec.shards)]
        assert sum(slices) == spec.users
        assert max(slices) - min(slices) <= 1

    def test_shards_clamp_to_tiny_populations(self):
        spec = WorkloadSpec(users=3, shards=8)
        assert spec.shards == 3

    @pytest.mark.parametrize("bad", [
        {"users": 0},
        {"shards": 0},
        {"loop": "semi"},
        {"topology": "mesh"},
        {"read_fraction": 1.5},
        {"tick": 0.0},
        {"sample_cap": 0},
    ])
    def test_invalid_specs_are_rejected(self, bad):
        with pytest.raises(ValueError):
            WorkloadSpec(**bad)


class TestGenerators:
    def test_zipf_head_is_most_popular(self):
        keys = ZipfKeys(key_space=100, alpha=1.0)
        # CDF mass below u maps small u to the head ranks.
        assert keys.rank(0.0) == 0
        assert keys.rank(0.999999) == 99
        ranks = [keys.rank(u / 1000.0) for u in range(1000)]
        head = sum(1 for r in ranks if r == 0)
        tail = sum(1 for r in ranks if r == 99)
        assert head > 10 * max(tail, 1)

    def test_zipf_alpha_zero_is_uniform(self):
        keys = ZipfKeys(key_space=4, alpha=0.0)
        assert [keys.rank(u) for u in (0.1, 0.3, 0.6, 0.9)] == [0, 1, 2, 3]

    def test_key_names_are_stable(self):
        assert ZipfKeys(8, 1.0).key(0.0) == "key-000000"

    def test_offered_requests_arithmetic(self):
        assert offered_requests(1_000_000, 0.1, 1.0, 0.5) == 50_000.0
        assert offered_requests(10, 0.0, 1.0, 0.5) == 0.0

    def test_constant_curve(self):
        assert constant_curve(2.0)(123.0) == 2.0

    def test_diurnal_curve_spans_trough_to_peak(self):
        curve = diurnal_curve(period=100.0, low=0.2, high=1.0)
        values = [curve(t) for t in range(0, 100, 5)]
        assert min(values) == pytest.approx(0.2, abs=0.01)
        assert max(values) == pytest.approx(1.0, abs=0.01)
        assert curve(0.0) == pytest.approx(0.2)  # starts at the trough

    def test_ramp_curve_endpoints(self):
        curve = ramp_curve(ramp=10.0, start=0.1, end=1.0)
        assert curve(0.0) == pytest.approx(0.1)
        assert curve(5.0) == pytest.approx(0.55)
        assert curve(50.0) == 1.0

    def test_spike_curve_window(self):
        curve = spike_curve(at=10.0, duration=5.0, magnitude=4.0)
        assert curve(9.9) == 1.0
        assert curve(12.0) == 4.0
        assert curve(15.0) == 1.0

    def test_make_curve_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown arrival curve"):
            make_curve("sawtooth", {})


class TestEmptyPercentiles:
    """Regression: percentiles over zero completed requests are None."""

    def test_empty_histogram_quantiles_are_none(self):
        hist = QuantileHistogram()
        assert hist.quantile(0.5) is None
        assert hist.mean() is None
        assert hist.percentiles() == {"p50": None, "p99": None, "p999": None}

    def test_empty_kind_summary_does_not_raise(self):
        engine = WorkloadEngine(traffic_cluster(nodes=3),
                                WorkloadSpec(users=10, shards=2))
        report = SimpleNamespace()
        engine.fill_report(report)
        assert report.workload["by_kind"]["write"] == {
            "count": 0.0, "p50": None, "p99": None, "p999": None}
        assert report.workload["mean_latency"] is None

    def test_zero_weight_observations_are_ignored(self):
        hist = QuantileHistogram()
        hist.observe(1.0, weight=0.0)
        hist.observe(1.0, weight=-3.0)
        assert hist.quantile(0.99) is None

    def test_quantile_range_is_validated(self):
        hist = QuantileHistogram()
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_report_with_no_requests_has_none_latency(self):
        # A zero-rate workload completes without a single request and must
        # report None percentiles, not raise or fake a perfect latency.
        spec = WorkloadSpec(users=10, shards=2, rate_per_user=0.0)
        report = run_traffic(traffic_cluster(nodes=6), spec, params=FAST)
        assert report.requests_attempted == 0.0
        assert report.latency_p50 is None
        assert report.latency_p99 is None
        assert report.latency_p999 is None
        assert "reqs" not in report.summary()
        assert report.digest()  # canonical JSON serializes None fields

    def test_single_value_distribution_reports_that_value(self):
        hist = QuantileHistogram()
        hist.observe(0.02, weight=1000.0)
        assert hist.quantile(0.5) == pytest.approx(0.02)
        assert hist.quantile(0.999) == pytest.approx(0.02)


class TestQuantileHistogramWeighted:
    def test_weighted_tail_dominates_p99(self):
        hist = QuantileHistogram()
        hist.observe(0.001, weight=9_000.0)
        hist.observe(2.0, weight=1_000.0)   # 10% of mass at 2s
        assert hist.quantile(0.5) < 0.01
        assert hist.quantile(0.99) == pytest.approx(2.0, rel=0.3)

    def test_bucket_layout_spans_timeout_scale(self):
        assert QuantileHistogram.bucket_index(1e-5) == 0
        top = QuantileHistogram.bucket_index(10.0)
        assert top < QuantileHistogram.BUCKETS - 1
        assert QuantileHistogram.bucket_bound(top) > 10.0


class TestRunTraffic:
    def test_counts_are_conserved_and_weighted(self):
        spec = preset_spec("steady", users=50_000)
        report = run_traffic(traffic_cluster(), spec, params=FAST)
        assert report.requests_attempted > 0
        assert report.requests_attempted == pytest.approx(
            report.requests_ok + report.requests_unavailable
            + report.requests_timeout)
        # Weighted totals reflect the logical population, not the event
        # count: far more logical requests than simulated ones.
        assert report.requests_attempted > 10 * report.workload["issued"]
        assert report.workload["offered"] == pytest.approx(
            report.requests_attempted)

    def test_healthy_cluster_has_flat_latency(self):
        spec = preset_spec("steady", users=20_000)
        report = run_traffic(traffic_cluster(), spec, params=FAST)
        assert report.requests_timeout == 0.0
        assert report.latency_p99 < 0.1

    def test_per_kind_split_covers_all_requests(self):
        spec = preset_spec("steady", users=20_000)
        report = run_traffic(traffic_cluster(), spec, params=FAST)
        by_kind = report.workload["by_kind"]
        assert set(by_kind) == {"read", "write"}
        assert (by_kind["read"]["count"] + by_kind["write"]["count"]
                == pytest.approx(report.requests_attempted))
        # read_fraction=0.7 should show up in the split.
        assert by_kind["read"]["count"] > by_kind["write"]["count"]

    def test_closed_loop_traffic_flows(self):
        spec = preset_spec("closed", users=8_000)
        report = run_traffic(traffic_cluster(nodes=8), spec, params=FAST)
        assert spec.loop == "closed"
        assert report.requests_ok > 0
        assert report.latency_p50 is not None

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_every_preset_runs(self, preset):
        spec = preset_spec(preset, users=5_000)
        report = run_traffic(traffic_cluster(nodes=8), spec,
                             params=ScenarioParams(warmup=5.0, observe=10.0))
        assert report.requests_attempted > 0

    def test_storage_disabled_cluster_is_rejected(self):
        config = ClusterConfig.for_bug("c3831-fixed", nodes=4, seed=1)
        with pytest.raises(ValueError, match="enable_storage"):
            run_traffic(Cluster(config), WorkloadSpec(), params=FAST)

    def test_unknown_preset_is_rejected(self):
        with pytest.raises(ValueError, match="unknown workload preset"):
            preset_spec("tsunami")

    def test_preset_consistency_override_sets_both_levels(self):
        spec = preset_spec("steady", consistency="all")
        assert spec.read_cl == "all"
        assert spec.write_cl == "all"


class TestDeterminism:
    def test_same_seed_gives_identical_reports(self):
        spec = preset_spec("diurnal", users=30_000)
        first = run_traffic(traffic_cluster(seed=5), spec, params=FAST)
        second = run_traffic(traffic_cluster(seed=5), spec, params=FAST)
        assert first.latency_p99 == second.latency_p99
        assert first.digest() == second.digest()

    def test_different_seeds_diverge(self):
        spec = preset_spec("steady", users=30_000)
        first = run_traffic(traffic_cluster(seed=5), spec, params=FAST)
        second = run_traffic(traffic_cluster(seed=6), spec, params=FAST)
        assert first.digest() != second.digest()

    def test_run_point_round_trips_through_report_dict(self):
        report = run_point("c3831-fixed", 8, "real", 9, "steady",
                           users=10_000, params=FAST)
        clone = RunReport.from_dict(
            json.loads(json.dumps(report.to_dict())))
        assert clone.digest() == report.digest()
        assert clone.latency_p99 == report.latency_p99
        assert clone.workload == report.workload

    def test_run_point_rejects_pil_mode(self):
        with pytest.raises(ValueError, match="real/colo"):
            run_point("c3831-fixed", 8, "pil", 9, "steady", params=FAST)


class TestMillionUserDemo:
    def test_million_users_at_n128_in_bounded_events(self):
        spec = preset_spec("millionuser")
        assert spec.users == 1_000_000
        cluster = traffic_cluster(nodes=128, seed=11)
        report = run_traffic(cluster, spec, params=FAST)
        # The full population was offered...
        assert report.requests_attempted >= 1_000_000
        # ...through a bounded number of representative requests: the
        # fold factor is the subsystem's whole point.
        issued = report.workload["issued"]
        ticks = FAST.observe / spec.tick + 1
        assert issued <= spec.shards * spec.sample_cap * ticks
        assert report.workload["fold_factor"] > 100
        assert report.latency_p99 is not None


class TestFaultVisibility:
    def test_crash_produces_p99_spike_vs_flat_baseline(self):
        spec = preset_spec("steady", users=50_000, consistency="quorum")

        def run(faults):
            return run_traffic(traffic_cluster(nodes=16), spec,
                               params=FAST, faults=faults)

        baseline = run(None)
        crash = FaultSchedule(
            events=[NodeCrash(time=FAST.warmup + 5.0, node="node-012")],
            name="one-crash")
        faulted = run(crash)
        # Fault-free traffic stays flat; the crashed-but-unconvicted
        # replica turns into rpc-timeout latency at the tail.
        assert baseline.latency_p99 < 0.1
        assert faulted.latency_p99 > 1.0
        assert faulted.requests_timeout > 0
        assert baseline.requests_timeout == 0.0
