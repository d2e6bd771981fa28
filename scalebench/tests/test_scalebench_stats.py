"""The percentile rule and the direction-aware comparison."""

import pytest

from scalebench.stats import median, percentile, worse_by


def test_median_needs_no_minimum_sample():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert median([4.0, 1.0]) == 2.5


@pytest.mark.parametrize("samples, pct, supported", [
    (99, 90, False),    # 9.9 samples beyond p90
    (100, 90, True),    # exactly ten beyond
    (199, 95, False),
    (200, 95, True),
    (999, 99, False),
    (1000, 99, True),
])
def test_percentile_needs_ten_samples_beyond_it(samples, pct, supported):
    values = [float(i) for i in range(1, samples + 1)]
    result = percentile(values, pct)
    assert (result is not None) == supported


def test_percentile_is_nearest_rank():
    values = [float(i) for i in range(1, 101)]
    assert percentile(values, 90) == 90.0
    assert percentile(list(reversed(values)), 50) == 50.0


def test_empty_sample_has_no_percentile():
    assert percentile([], 50) is None


def test_worse_by_follows_the_metric_direction():
    assert worse_by(10.0, 11.0, "lower") == pytest.approx(0.10)
    assert worse_by(10.0, 9.0, "lower") == pytest.approx(-0.10)
    assert worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert worse_by(0.0, 0.0, "lower") == 0.0
