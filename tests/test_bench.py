"""Tests for the benchmark harness: calibration, runner caching, figures."""

import pytest

from repro.bench import calibrate
from repro.bench.figures import figure1_timings
from repro.bench.runner import make_check, run_point
from repro.cassandra.pending_ranges import (
    CalculatorVariant,
    CostConstants,
    calc_cost,
)
from repro.cassandra.workloads import ScenarioParams
from repro.sweep import executor

FAST = ScenarioParams(warmup=8.0, observe=25.0, leaving_duration=6.0,
                      join_duration=6.0, join_stagger=1.0)


class TestCalibration:
    def test_ci_constants_map_top_scales(self):
        """At the CI top scale with scaled constants, the per-calc cost
        equals the paper cost at the paper top scale."""
        scaled = calibrate.ci_cost_constants("c3831")
        base = CostConstants()
        ci_cost = calc_cost(CalculatorVariant.V0_C3831,
                            calibrate.CI_TOP, calibrate.CI_TOP, 1, scaled)
        paper_cost = calc_cost(CalculatorVariant.V0_C3831,
                               calibrate.PAPER_TOP, calibrate.PAPER_TOP, 1,
                               base)
        assert ci_cost == pytest.approx(paper_cost, rel=1e-9)

    def test_ci_constants_respect_vnodes(self):
        scaled = calibrate.ci_cost_constants("c3881")
        base = CostConstants()
        vnodes = 256
        ci = calc_cost(CalculatorVariant.V1_C3881, calibrate.CI_TOP,
                       calibrate.CI_TOP * vnodes, 1, scaled)
        paper = calc_cost(CalculatorVariant.V1_C3881, calibrate.PAPER_TOP,
                          calibrate.PAPER_TOP * vnodes, 1, base)
        assert ci == pytest.approx(paper, rel=1e-9)

    def test_scales_and_params_honour_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert calibrate.figure3_scales() == calibrate.CI_SCALES
        assert not calibrate.full_scale()
        monkeypatch.setenv("REPRO_FULL", "1")
        assert calibrate.figure3_scales() == calibrate.PAPER_SCALES
        assert calibrate.full_scale()
        assert calibrate.scenario_params() == ScenarioParams()

    def test_symptom_scale_per_bug(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert calibrate.expected_symptom_scale("c3831") == 32
        assert calibrate.expected_symptom_scale("c3881") == 24


@pytest.fixture
def executed_jobs(tmp_path, monkeypatch):
    """Kinds of the sweep jobs run_point executes, in a fresh sweep cache."""
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
    kinds = []
    execute = executor._execute_job

    def counting(payload):
        kinds.append(payload["kind"])
        return execute(payload)

    monkeypatch.setattr(executor, "_execute_job", counting)
    return kinds


class TestRunnerCache:
    def test_same_point_not_recomputed(self, executed_jobs):
        first = run_point("c3831-fixed", 6, "real", seed=3, params=FAST)
        second = run_point("c3831-fixed", 6, "real", seed=3, params=FAST)
        assert executed_jobs == ["real"]
        assert second.to_dict() == first.to_dict()

    def test_colo_and_pil_share_one_pipeline(self, executed_jobs, tmp_path):
        run_point("c3831-fixed", 6, "colo", seed=3, params=FAST)
        run_point("c3831-fixed", 6, "pil", seed=3, params=FAST)
        assert executed_jobs == ["memo", "replay"]
        assert len(list((tmp_path / "memo").glob("*.json"))) == 1

    def test_unknown_mode_rejected(self, executed_jobs):
        with pytest.raises(ValueError):
            run_point("c3831-fixed", 6, "warp", seed=3, params=FAST)
        assert executed_jobs == []

    def test_run_point_uses_global_cache(self, monkeypatch, tmp_path):
        """A point resolved in the sweep cache equals running ScaleCheck
        directly, byte for byte."""
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
        for bug_id in ("c3831", "c5456"):
            check = make_check(bug_id, 8)
            result = check.check()
            direct = {"real": check.run_real(), "colo": result.memo_report,
                      "pil": result.replay_report}
            for mode, report in direct.items():
                served = run_point(bug_id, 8, mode)
                assert served.canonical_json() == report.canonical_json()


class TestFigure1:
    def test_real_colo_pil_makespans(self):
        points = figure1_timings(nodes=16, task_demand=1.0, colo_cores=1)
        assert points["real"].makespan == pytest.approx(1.0)
        assert points["colo"].makespan == pytest.approx(16.0)
        assert points["pil"].makespan == pytest.approx(1.0, abs=0.05)

    def test_colo_with_more_cores_divides_makespan(self):
        points = figure1_timings(nodes=16, task_demand=1.0, colo_cores=4)
        assert points["colo"].makespan == pytest.approx(4.0)

    def test_pil_overhead_is_the_epsilon(self):
        points = figure1_timings(nodes=8, task_demand=2.0, pil_overhead=0.5)
        assert points["pil"].makespan == pytest.approx(2.5)
