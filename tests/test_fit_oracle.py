"""numpy as an oracle for the standard-library least-squares fits.

``repro.core.curves.fit_loglog_slope`` and
``repro.baselines.extrapolate.fit_and_predict`` solve their least-squares
problems in plain Python; ``np.polyfit`` is the reference they must agree
with.  numpy is a test-only oracle here, never a dependency: without it
these tests skip, and the exact cases in ``test_curve_properties`` and
``test_baselines`` still run.
"""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.extrapolate import fit_and_predict
from repro.core.curves import fit_loglog_slope

np = pytest.importorskip("numpy")

REL = 1e-9

values = st.one_of(st.integers(0, 500).map(float),
                   st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))


@st.composite
def ladders(draw):
    """Strictly ascending scales; a zero tail of any length below them."""
    scales = sorted(draw(st.sets(st.integers(1, 4096), min_size=2,
                                 max_size=8)))
    zeros = draw(st.integers(0, len(scales)))
    tail = draw(st.lists(st.floats(0.01, 1e6), min_size=len(scales) - zeros,
                         max_size=len(scales) - zeros))
    return scales, [0.0] * zeros + tail


@settings(max_examples=300, deadline=None)
@given(ladders())
def test_loglog_slope_matches_polyfit(ladder):
    scales, series = ladder
    fit = fit_loglog_slope(scales, series)
    positive = [(s, v) for s, v in zip(scales, series) if v > 0]
    if len(positive) < 2:
        assert fit is None
        return
    slope, intercept = np.polyfit(np.log([s for s, _ in positive]),
                                  np.log([v for _, v in positive]), 1)
    assert math.isclose(fit[0], slope, rel_tol=REL, abs_tol=REL)
    assert math.isclose(fit[1], intercept, rel_tol=REL, abs_tol=REL)


@st.composite
def training_sets(draw):
    """Scales drawn from a small pool (so duplicates are common), values
    with zero tails, a target at or past the ladder, and degree 0-2."""
    pool = draw(st.lists(st.integers(1, 256), min_size=1, max_size=4))
    size = draw(st.integers(1, 8))
    scales = [draw(st.sampled_from(pool)) for _ in range(size)]
    zeros = draw(st.integers(0, size))
    series = [0.0] * zeros + draw(st.lists(values, min_size=size - zeros,
                                           max_size=size - zeros))
    target = draw(st.integers(1, 2048))
    return scales, series, target, draw(st.integers(0, 2))


@settings(max_examples=300, deadline=None)
@given(training_sets())
def test_fit_and_predict_matches_polyfit(case):
    scales, series, target, degree = case
    predicted = fit_and_predict(scales, series, target, degree=degree)
    capped = max(0, min(degree, len(set(scales)) - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        coeffs = np.polyfit(np.array(scales, dtype=float),
                            np.array(series, dtype=float), deg=capped)
    expected = max(float(np.polyval(coeffs, float(target))), 0.0)
    # Extrapolation amplifies rounding by |t|**degree in the centred,
    # scaled variable; near-zero predictions are judged on that scale.
    centre = sum(scales) / len(scales)
    spread = max(abs(s - centre) for s in scales) or 1.0
    reach = max(1.0, abs(target - centre) / spread) ** capped
    magnitude = max([1.0] + [abs(v) for v in series])
    assert math.isclose(predicted, expected, rel_tol=REL,
                        abs_tol=REL * magnitude * reach)
