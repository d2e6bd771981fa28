"""Coverage for thin modules the perf work could disturb.

``repro.baselines.diecast`` / ``repro.baselines.extrapolate`` and
``repro.core.statespace`` each had a single happy-path test; these pin
their error paths and edge cases so tier-1 exercises every public entry
point that sits on top of the simulator hot path.
"""

import math
from types import SimpleNamespace

import pytest

from repro.baselines.diecast import DieCastResult, recommended_tdf, run_diecast
from repro.baselines.extrapolate import (
    ExtrapolationResult,
    extrapolate_flaps,
    fit_and_predict,
)
from repro.cassandra.workloads import ScenarioParams
from repro.core.memoization import MemoDB
from repro.core.statespace import (
    StateSpaceReduction,
    observed_reduction,
    offline_input_space_log10,
    per_run_upper_bound,
)

FAST = ScenarioParams(warmup=1.0, observe=2.0, leaving_duration=1.0,
                      join_duration=1.0, join_stagger=0.5)


# -- extrapolate -------------------------------------------------------------------


class TestFitAndPredict:
    def test_empty_training_data_raises(self):
        with pytest.raises(ValueError):
            fit_and_predict([], [], target_scale=100)

    def test_mismatched_training_data_raises(self):
        with pytest.raises(ValueError):
            fit_and_predict([4, 8], [0.0], target_scale=100)

    def test_single_point_clamps_degree_to_constant(self):
        """One training point cannot support a sloped fit."""
        assert fit_and_predict([8], [3.0], target_scale=512) == pytest.approx(3.0)

    def test_prediction_is_clamped_at_zero(self):
        """A downward trend must not extrapolate to negative flap counts."""
        predicted = fit_and_predict([4, 6, 8], [9.0, 6.0, 3.0],
                                    target_scale=64, degree=1)
        assert predicted == 0.0

    def test_quadratic_through_squares_predicts_the_square(self):
        """Degree 2 through x**2 is x**2: the target's square, to rounding."""
        scales = [4, 6, 8, 10, 12]
        predicted = fit_and_predict(scales, [n * n for n in scales],
                                    target_scale=512, degree=2)
        assert predicted == pytest.approx(512.0 ** 2, rel=1e-12)

    def test_values_near_the_float_limit_do_not_overflow(self):
        """A flat series of huge values predicts the same huge value."""
        predicted = fit_and_predict([4, 6, 8], [1e308] * 3,
                                    target_scale=64, degree=2)
        assert predicted == pytest.approx(1e308, rel=1e-12)

    def test_zero_training_signal_predicts_zero(self):
        """The paper's latency argument: no small-scale symptom, no signal."""
        predicted = fit_and_predict([4, 6, 8, 10], [0, 0, 0, 0],
                                    target_scale=512)
        assert predicted == pytest.approx(0.0, abs=1e-9)


class TestExtrapolateFlaps:
    @staticmethod
    def _runner(flaps_by_scale):
        def runner(bug_id, nodes, mode):
            assert mode == "real"
            return SimpleNamespace(flaps=flaps_by_scale.get(nodes, 0))
        return runner

    def test_latent_bug_is_missed(self):
        """Zero flaps in training, hundreds at target => miss reported."""
        result = extrapolate_flaps(
            "c3831", 256, self._runner({256: 400}),
            train_scales=[4, 6, 8])
        assert result.train_flaps == [0, 0, 0]
        assert result.actual_flaps == 400
        assert result.predicted_flaps < 40
        assert result.missed

    def test_no_symptom_anywhere_is_not_a_miss(self):
        result = extrapolate_flaps("c3831", 64, self._runner({}),
                                   train_scales=[4, 8])
        assert result.actual_flaps == 0
        assert not result.missed

    def test_accurate_prediction_is_not_a_miss(self):
        result = ExtrapolationResult(
            bug_id="x", train_scales=[4, 8], train_flaps=[2, 4],
            target_scale=16, predicted_flaps=8.0, actual_flaps=9,
            degree=1)
        assert not result.missed
        assert result.relative_error == pytest.approx(1 / 9)

    def test_relative_error_with_zero_actual_divides_safely(self):
        result = ExtrapolationResult(
            bug_id="x", train_scales=[4], train_flaps=[0],
            target_scale=16, predicted_flaps=3.0, actual_flaps=0,
            degree=0)
        assert result.relative_error == pytest.approx(3.0)


# -- diecast -----------------------------------------------------------------------


class TestDieCast:
    def test_recommended_tdf_fits_machine(self):
        # 16 nodes x 2 cores on 16 machine cores: need TDF 2.
        assert recommended_tdf(16, node_cores=2, machine_cores=16) == 2
        # Small clusters fit undilated.
        assert recommended_tdf(4, node_cores=2, machine_cores=16) == 1
        # TDF never goes below 1.
        assert recommended_tdf(1, node_cores=1, machine_cores=64) == 1

    def test_undersized_tdf_is_flagged_invalid(self):
        """Forcing TDF=1 on an oversubscribed box voids the guarantee."""
        result = run_diecast("c3831", nodes=12, tdf=1, params=FAST)
        assert isinstance(result, DieCastResult)
        assert not result.valid
        assert result.tdf == 1

    def test_default_tdf_scales_test_duration(self):
        """The Figure 1b cost axis: dilation multiplies the run length."""
        dilated = run_diecast("c3831", nodes=12, params=FAST)
        assert dilated.valid
        assert dilated.tdf == recommended_tdf(12)
        baseline = run_diecast("c3831", nodes=12, tdf=1, params=FAST)
        assert dilated.test_duration == pytest.approx(
            baseline.test_duration * dilated.tdf, rel=0.2)


# -- statespace --------------------------------------------------------------------


class TestStateSpace:
    def test_offline_bound_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            offline_input_space_log10(0)
        with pytest.raises(ValueError):
            offline_input_space_log10(8, partitions_per_node=0)
        with pytest.raises(ValueError):
            offline_input_space_log10(-4)

    def test_offline_bound_single_node_is_zero(self):
        assert offline_input_space_log10(1) == 0.0

    def test_offline_bound_formula(self):
        # 2 * N * P * log10(N)
        assert offline_input_space_log10(10, 3) == pytest.approx(
            2 * 10 * 3 * 1.0)

    def test_per_run_upper_bound_clamps(self):
        assert per_run_upper_bound(0, 0, 0) == 1          # floor at 1
        assert per_run_upper_bound(100, 100, 7) == 7      # message-bounded
        assert per_run_upper_bound(2, 3, 10 ** 9) == 24   # activity-bounded

    def test_observed_reduction_requires_cluster_size(self):
        with pytest.raises(ValueError):
            observed_reduction(MemoDB())  # no meta, no explicit nodes

    def test_observed_reduction_empty_db(self):
        """An empty recording yields log10(1)=0 observed, full reduction."""
        reduction = observed_reduction(MemoDB(), nodes=128)
        assert reduction.observed_distinct_inputs == 0
        assert reduction.observed_log10 == 0.0
        assert reduction.reduction_log10 == pytest.approx(
            offline_input_space_log10(128))

    def test_observed_reduction_reads_meta_and_summarizes(self):
        db = MemoDB()
        db.meta.update({"nodes": 64, "vnodes": 2})
        for i in range(10):
            db.put("calc", f"key{i}", {"out": i}, duration=0.5)
            db.put("calc", f"key{i}", {"out": i}, duration=0.5)  # repeat
        reduction = observed_reduction(db)
        assert reduction.nodes == 64
        assert reduction.partitions_per_node == 2
        assert reduction.observed_distinct_inputs == 10
        assert reduction.observed_samples == 20
        assert reduction.observed_log10 == pytest.approx(1.0)
        summary = reduction.summary()
        assert "N=64" in summary and "10 distinct inputs" in summary
        assert math.isfinite(reduction.reduction_log10)
