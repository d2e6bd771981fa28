"""Property tests for the shared curve-fit classifier (`repro.core.curves`).

This is the load-bearing math for both ``repro hunt`` and the ``repro ci``
trend gate: a misclassified curve either hides a planted bug or trips the
gate on healthy growth.  These tests synthesize flat / threshold / linear
/ superlinear series with seeded multiplicative noise across many
N-ladders and assert the classifier lands where the generator aimed,
including the boundary cases (two points, zero-valued tails, non-monotone
noise) that a handful of example-based tests would miss.

Same determinism discipline as ``test_sweep_properties``: every case is a
pure function of (suite seed, case index), so a failure prints an index
that reproduces it exactly.
"""

import math
import random

import pytest

from repro.core.curves import (
    CONFIRMING,
    CurveFit,
    classify_exponent,
    fit_flap_curve,
    fit_loglog_slope,
    fit_metric_curve,
)

SUITE_SEED = 20260808
CASES = 40

#: Ladders the generators draw from: the CI gate's default, the hunt's
#: calibrated ladder, the paper's Figure-3 scales, and a tiny two-pointer.
LADDERS = [
    [32, 64, 128],
    [8, 16, 24, 32],
    [32, 64, 128, 256],
    [16, 32, 64, 128, 256],
    [64, 128],
]


def case_rng(case):
    return random.Random(SUITE_SEED + case)


def noisy_power_series(rng, scales, exponent, base=2.0, noise=0.05):
    """``base * N**exponent`` with seeded multiplicative noise per point."""
    return [base * (n ** exponent) * rng.uniform(1.0 - noise, 1.0 + noise)
            for n in scales]


# -- the four generator-aimed shapes ------------------------------------------


@pytest.mark.parametrize("case", range(CASES))
def test_flat_series_below_the_noise_floor_classify_flat(case):
    rng = case_rng(case)
    scales = rng.choice(LADDERS)
    # Any shape is flat while the largest value stays under min_symptom.
    values = [rng.uniform(0.0, 19.0) for _ in scales]
    fit = fit_flap_curve(scales, values, min_symptom=20.0)
    assert fit.classification == "flat"
    assert not fit.confirms
    assert fit.exponent is None


@pytest.mark.parametrize("case", range(CASES))
def test_latent_then_jump_classifies_threshold(case):
    rng = case_rng(case)
    scales = rng.choice(LADDERS)
    values = [0.0] * (len(scales) - 1) + [rng.uniform(50.0, 5000.0)]
    fit = fit_flap_curve(scales, values)
    assert fit.classification == "threshold"
    assert fit.confirms
    assert fit.exponent is None  # one nonzero point: no slope to fit


@pytest.mark.parametrize("case", range(CASES))
def test_noisy_linear_growth_classifies_linear(case):
    rng = case_rng(case)
    scales = rng.choice(LADDERS)
    values = noisy_power_series(rng, scales, exponent=1.0)
    fit = fit_flap_curve(scales, values)
    assert fit.classification == "linear", (case, values)
    assert not fit.confirms
    assert 0.8 <= fit.exponent < 1.2


@pytest.mark.parametrize("case", range(CASES))
def test_noisy_superlinear_growth_classifies_superlinear(case):
    rng = case_rng(case)
    scales = rng.choice(LADDERS)
    exponent = rng.uniform(1.5, 3.0)
    values = noisy_power_series(rng, scales, exponent=exponent)
    fit = fit_flap_curve(scales, values)
    assert fit.classification == "superlinear", (case, exponent, values)
    assert fit.confirms
    assert fit.exponent >= 1.2


@pytest.mark.parametrize("case", range(CASES))
def test_noisy_sublinear_growth_classifies_sublinear(case):
    rng = case_rng(case)
    scales = rng.choice(LADDERS)
    # base high enough that even the smallest scale clears the floor.
    values = noisy_power_series(rng, scales, exponent=0.4, base=30.0)
    fit = fit_flap_curve(scales, values)
    assert fit.classification == "sublinear", (case, values)
    assert not fit.confirms


# -- boundary cases ------------------------------------------------------------


def test_two_points_with_both_nonzero_fit_a_slope():
    fit = fit_flap_curve([64, 128], [30.0, 90.0])
    # ln(3)/ln(2) = 1.585: well into the superlinear band.
    assert fit.classification == "superlinear"
    assert fit.exponent == pytest.approx(1.585, abs=1e-3)


def test_two_points_with_one_nonzero_is_a_threshold_jump():
    fit = fit_flap_curve([64, 128], [0.0, 90.0])
    assert fit.classification == "threshold"
    assert fit.exponent is None


@pytest.mark.parametrize("case", range(CASES))
def test_zero_valued_head_is_excluded_from_the_slope_fit(case):
    """Leading zeros are shape, not data: only positive points fit."""
    rng = case_rng(case)
    scales = [8, 16, 32, 64, 128]
    zeros = rng.randint(1, 3)
    tail_scales = scales[zeros:]
    exponent = rng.uniform(1.6, 2.5)
    tail = noisy_power_series(rng, tail_scales, exponent=exponent)
    values = [0.0] * zeros + tail
    fit = fit_flap_curve(scales, values)
    slope = fit_loglog_slope(tail_scales, tail)[0]
    assert fit.exponent == pytest.approx(slope)
    assert fit.classification == "superlinear"


@pytest.mark.parametrize("case", range(CASES))
def test_non_monotone_noise_does_not_flip_a_strong_trend(case):
    """A dip in the middle of 10x-per-octave growth must not refute it."""
    rng = case_rng(case)
    scales = [16, 32, 64, 128]
    values = [50.0, 500.0, 400.0, 40000.0]  # non-monotone at N=64
    # Shuffle a little extra noise on top; the dip stays a dip.
    values = [v * rng.uniform(0.9, 1.1) for v in values]
    fit = fit_flap_curve(scales, values)
    assert fit.classification == "superlinear", (case, values)


def test_input_validation_matches_the_hunt_contract():
    with pytest.raises(ValueError):
        fit_flap_curve([], [])
    with pytest.raises(ValueError):
        fit_flap_curve([8, 16], [1.0])
    with pytest.raises(ValueError):
        fit_flap_curve([16, 8], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_flap_curve([8, 8], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_metric_curve([16, 8], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_loglog_slope([], [])


def test_loglog_slope_is_exact_on_a_power_law():
    """3 * N**2 is a straight line of slope 2 and intercept log 3 in
    log-log space; the fit must recover both to rounding."""
    scales = [8, 16, 32, 64, 128, 256]
    slope, intercept = fit_loglog_slope(scales, [3.0 * n * n for n in scales])
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)


# -- the resource-metric variant (the CI gate's throughput/memory fits) --------


def test_metric_curve_has_no_noise_floor():
    """Tiny-but-growing resource series still fit a slope (no min_symptom)."""
    fit = fit_metric_curve([32, 64, 128], [1.0, 2.0, 4.0])
    assert fit.classification == "linear"
    assert fit.exponent == pytest.approx(1.0)


def test_metric_curve_all_zero_is_flat_not_threshold():
    """An unmeasured metric must read as flat, never as a latent bug."""
    fit = fit_metric_curve([32, 64, 128], [0.0, 0.0, 0.0])
    assert fit.classification == "flat"
    assert fit.exponent is None
    assert not fit.confirms


def test_metric_curve_single_positive_point_is_flat():
    fit = fit_metric_curve([32, 64, 128], [0.0, 0.0, 7.0])
    assert fit.classification == "flat"
    assert fit.exponent is None


# -- shared helpers ------------------------------------------------------------


def test_classify_exponent_bands():
    assert classify_exponent(0.79) == "sublinear"
    assert classify_exponent(0.8) == "linear"
    assert classify_exponent(1.19) == "linear"
    assert classify_exponent(1.2) == "superlinear"
    assert classify_exponent(5.0) == "superlinear"


def test_confirming_set_is_exactly_threshold_and_superlinear():
    assert set(CONFIRMING) == {"threshold", "superlinear"}


def test_curve_fit_serialization_rounds_the_exponent():
    fit = CurveFit([8, 16], [1.0, 2.0], "linear",
                   exponent=1.00000123456789)
    assert fit.to_dict()["exponent"] == 1.0
    assert fit.to_dict()["scales"] == [8, 16]

