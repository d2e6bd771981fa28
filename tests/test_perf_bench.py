"""Tests for the perf-benchmark harness (``repro.perf`` / ``repro bench``).

Fast tier-1 coverage: result round-trips, machine-calibrated comparison
semantics, the regression gate, workload-mismatch protection, and the CLI
in quick mode.  The full-workload gate against committed baselines lives
in ``test_perf_regression.py`` behind the ``perf`` marker.
"""

import json

import pytest

from repro.cli import main
from repro.perf import (
    BENCHMARKS,
    DEFAULT_BASELINE_NAMES,
    BenchResult,
    baseline_path,
    calibrate,
    compare,
    load_baseline,
    peak_rss_kb,
    run_benchmark,
)
from repro.perf.bench import run_timed


def result(name="gossip_n256", rate=10_000.0, calibration=0.05,
           workload=None):
    return BenchResult(
        name=name,
        wall_seconds=1.0,
        events=int(rate),
        events_per_sec=rate,
        peak_rss_kb=1000,
        repeats=3,
        calibration_seconds=calibration,
        workload=workload if workload is not None else {"nodes": 256},
    )


class TestBenchResult:
    def test_round_trips_through_json(self, tmp_path):
        original = result()
        original.extra["wall_all"] = [1.0, 1.1, 0.9]
        path = baseline_path(tmp_path, "gossip_n256")
        original.save(path)
        loaded = BenchResult.load(path)
        assert loaded == original
        assert json.loads(path.read_text())["format"] == "repro-bench-v1"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            BenchResult.from_payload({"format": "bench-v999", "name": "x"})

    def test_load_baseline_absent_returns_none(self, tmp_path):
        assert load_baseline(tmp_path, "nope") is None

    def test_normalized_rate_divides_out_machine_speed(self):
        # Half-speed machine: spin takes 2x longer, benchmark runs at half
        # the raw rate -- the normalized rates must agree.
        fast = result(rate=20_000.0, calibration=0.05)
        slow = result(rate=10_000.0, calibration=0.10)
        assert fast.normalized_rate() == pytest.approx(slow.normalized_rate())


class TestPayloadEdgeCases:
    def test_payload_round_trip_preserves_wall_all(self):
        original = result()
        original.extra["wall_all"] = [1.25, 0.75, 1.0]
        rebuilt = BenchResult.from_payload(original.to_payload())
        assert rebuilt == original
        assert rebuilt.extra["wall_all"] == [1.25, 0.75, 1.0]

    def test_load_baseline_corrupt_file_raises(self, tmp_path):
        baseline_path(tmp_path, "gossip_n256").write_text("{not json")
        with pytest.raises(ValueError):
            load_baseline(tmp_path, "gossip_n256")


class TestCompare:
    def test_exactly_at_the_tolerance_boundary_passes(self):
        # The gate is inclusive: ratio == 1 - tolerance is still ok.
        # (0.5 is exact in binary, so this probes the comparison, not FP.)
        verdict = compare(result(rate=5_000.0), result(rate=10_000.0),
                          tolerance=0.5)
        assert verdict.ok
        assert verdict.ratio == pytest.approx(0.5)

    def test_just_below_the_tolerance_boundary_fails(self):
        verdict = compare(result(rate=4_999.0), result(rate=10_000.0),
                          tolerance=0.5)
        assert not verdict.ok

    def test_zero_rate_baseline_cannot_regress(self):
        verdict = compare(result(rate=5_000.0), result(rate=0.0),
                          tolerance=0.15)
        assert verdict.ok
        assert verdict.ratio == float("inf")

    def test_equal_machines_pass_within_tolerance(self):
        verdict = compare(result(rate=9_000.0), result(rate=10_000.0),
                          tolerance=0.15)
        assert verdict.ok
        assert verdict.ratio == pytest.approx(0.9)

    def test_regression_beyond_tolerance_fails(self):
        verdict = compare(result(rate=8_000.0), result(rate=10_000.0),
                          tolerance=0.15)
        assert not verdict.ok
        assert "REGRESSION" in verdict.render()

    def test_slower_machine_is_not_a_regression(self):
        # 40% slower raw throughput on a 40% slower machine: fine.
        candidate = result(rate=6_000.0, calibration=0.05 / 0.6)
        verdict = compare(candidate, result(rate=10_000.0), tolerance=0.15)
        assert verdict.ok

    def test_workload_mismatch_refuses_comparison(self):
        with pytest.raises(ValueError, match="workload changed"):
            compare(result(workload={"nodes": 64}),
                    result(workload={"nodes": 256}))

    def test_different_benchmarks_refuse_comparison(self):
        with pytest.raises(ValueError, match="different benchmarks"):
            compare(result(name="a"), result(name="b"))


class TestRunTimed:
    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError):
            run_timed(lambda: (0.1, 10), "x", repeats=0)

    def test_single_repeat_is_its_own_median(self):
        bench = run_timed(lambda: (2.0, 100), "x", repeats=1,
                          calibration_seconds=0.05)
        assert bench.repeats == 1
        assert bench.wall_seconds == 2.0
        assert bench.events_per_sec == pytest.approx(50.0)
        assert bench.extra["wall_all"] == [2.0]

    def test_median_of_repeats_wins(self):
        walls = iter([1.0, 10.0, 2.0])
        bench = run_timed(lambda: (next(walls), 100), "x", repeats=3,
                          calibration_seconds=0.05)
        assert bench.wall_seconds == 2.0
        assert bench.events_per_sec == pytest.approx(50.0)
        assert bench.extra["wall_all"] == [1.0, 10.0, 2.0]

    def test_gc_state_restored(self):
        import gc

        assert gc.isenabled()
        run_timed(lambda: (0.1, 1), "x", repeats=1, calibration_seconds=0.05)
        assert gc.isenabled()

    def test_environment_probes(self):
        assert calibrate(repeats=1) > 0.0
        assert peak_rss_kb() > 0

    def test_sequential_benchmarks_do_not_share_a_peak(self):
        """A hungry benchmark's RSS must not bleed into the next result.

        ``ru_maxrss`` is a process-lifetime high-water mark; without the
        watermark reset in ``run_timed`` the second (tiny) benchmark here
        would report the first one's ~64 MiB peak.  Linux-only: elsewhere
        the reset is a no-op and the lifetime semantics remain.
        """
        from repro.perf.bench import peak_rss_kb, reset_peak_rss

        if not reset_peak_rss():
            pytest.skip("peak-RSS watermark not resettable on this platform")
        resident = peak_rss_kb()  # whatever the test process already holds

        def hungry():
            blob = bytearray(64 * 1024 * 1024)
            blob[::4096] = b"x" * len(blob[::4096])  # fault the pages in
            return (0.01, 1)

        big = run_timed(hungry, "hungry", repeats=1,
                        calibration_seconds=0.05)
        import gc

        gc.collect()
        small = run_timed(lambda: (0.01, 1), "tiny", repeats=1,
                          calibration_seconds=0.05)
        # Deltas, not ratios: the surrounding suite may already hold an
        # arbitrary resident set.  The hungry peak must show the 64 MiB
        # blob, and the tiny benchmark must have forgotten it.
        assert big.peak_rss_kb >= resident + 48 * 1024
        assert small.peak_rss_kb <= big.peak_rss_kb - 48 * 1024


class TestMicroSuite:
    def test_registry_covers_the_baseline_set(self):
        for name in DEFAULT_BASELINE_NAMES:
            assert name in BENCHMARKS

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_benchmark("sort_of_fast")

    def test_event_churn_quick_produces_sane_result(self):
        bench = run_benchmark("event_churn", quick=True, repeats=1,
                              calibration_seconds=0.05)
        assert bench.events == 20_000
        assert bench.wall_seconds > 0
        assert bench.events_per_sec > 0
        assert bench.workload["quick"] is True

    def test_quick_and_full_results_are_incomparable(self):
        quick = run_benchmark("event_churn", quick=True, repeats=1,
                              calibration_seconds=0.05)
        fake_full = result(name="event_churn",
                           workload={"events": 200_000, "quick": False})
        with pytest.raises(ValueError, match="workload changed"):
            compare(quick, fake_full)


class TestCli:
    def test_bench_update_then_compare_passes(self, tmp_path, capsys,
                                              monkeypatch):
        # What this checks is the plumbing -- ``--update`` writes a baseline
        # that ``--compare`` reads and accepts at the default tolerance --
        # so both invocations see the same fixed timings.  Two real
        # one-repeat timings of a 20 ms loop differ by more than the gate
        # on a busy host; real timing belongs to the ``perf``-marked suite.
        from repro.perf import micro

        real_factory = BENCHMARKS["event_churn"]

        def fixed_factory(quick):
            __, workload = real_factory(quick)
            return (lambda: (0.05, workload["events"])), workload

        monkeypatch.setitem(BENCHMARKS, "event_churn", fixed_factory)
        monkeypatch.setattr(micro, "calibrate", lambda repeats=3: 0.05)
        assert main(["bench", "--quick", "--repeats", "1",
                     "--names", "event_churn",
                     "--update", "--dir", str(tmp_path)]) == 0
        assert baseline_path(tmp_path, "event_churn").exists()
        written = load_baseline(tmp_path, "event_churn")
        assert (written.wall_seconds, written.calibration_seconds) == (
            0.05, 0.05)
        assert main(["bench", "--quick", "--repeats", "1",
                     "--names", "event_churn",
                     "--compare", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "baseline written" in out
        assert "ok" in out

    def test_bench_compare_missing_baseline_fails(self, tmp_path, capsys):
        assert main(["bench", "--quick", "--repeats", "1",
                     "--names", "event_churn",
                     "--compare", "--dir", str(tmp_path)]) == 1
        assert "MISSING" in capsys.readouterr().out
