"""The extrapolation baseline (section 4).

"Extrapolation learns system behaviors in small scale (e.g., 4-8 nodes)
and then extrapolates them to larger scales ... bug symptoms might not
appear in the small training scale, hence the behaviors are hard to
extrapolate accurately."

We quantify that failure: fit a polynomial to flap counts measured at small
training scales and predict the target scale.  For latent scalability bugs
the training signal is identically zero, so any regression predicts ~zero
-- and misses the bug that a real-scale (or scale-check) run exposes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..cassandra.metrics import RunReport


@dataclass
class ExtrapolationResult:
    """Outcome of one train-small / predict-large experiment."""

    bug_id: str
    train_scales: List[int]
    train_flaps: List[int]
    target_scale: int
    predicted_flaps: float
    actual_flaps: int
    degree: int

    @property
    def missed(self) -> bool:
        """Did extrapolation miss a bug that actually manifests?

        Missed = the real target run flaps substantially while the
        prediction stays near the training regime.
        """
        if self.actual_flaps == 0:
            return False
        return self.predicted_flaps < self.actual_flaps / 10

    @property
    def relative_error(self) -> float:
        """Prediction error relative to the actual flap count."""
        return (abs(self.actual_flaps - self.predicted_flaps)
                / max(self.actual_flaps, 1))


def _least_squares_predict(xs: List[float], ys: List[float], degree: int,
                           target: float) -> float:
    """Value at ``target`` of the least-squares polynomial of ``degree``.

    The fit runs in the centred, scaled variable ``t = (x - centre) /
    spread``, with ``|t| <= 1`` on the training data, and on values divided
    by their largest magnitude: the normal equations stay well conditioned
    and no intermediate sum can overflow.  They are solved by Gaussian
    elimination with partial pivoting; a zero pivot yields NaN for the
    caller to reject.
    """
    lo, hi = min(xs), max(xs)
    centre = lo / 2 + hi / 2
    spread = (hi / 2 - lo / 2) or 1.0
    ts = [(x - centre) / spread for x in xs]
    magnitude = max(map(abs, ys)) or 1.0
    ys = [y / magnitude for y in ys]
    size = degree + 1
    powers = [[t ** k for t in ts] for k in range(2 * degree + 1)]
    # Augmented normal equations: sum t^(i+j) * c_j = sum y * t^i.
    rows = [[math.fsum(powers[i + j]) for j in range(size)]
            + [math.fsum(y * p for y, p in zip(ys, powers[i]))]
            for i in range(size)]
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        if rows[col][col] == 0.0:
            return math.nan
        for row in rows[col + 1:]:
            factor = row[col] / rows[col][col]
            for k in range(col, size + 1):
                row[k] -= factor * rows[col][k]
    coeffs = [0.0] * size
    for i in reversed(range(size)):
        coeffs[i] = (rows[i][size] - math.fsum(
            rows[i][k] * coeffs[k] for k in range(i + 1, size))) / rows[i][i]
    t = (target - centre) / spread
    value = 0.0
    for coeff in reversed(coeffs):
        value = value * t + coeff
    return value * magnitude


def fit_and_predict(train_scales: Sequence[int], train_values: Sequence[float],
                    target_scale: int, degree: int = 2) -> float:
    """Least-squares polynomial extrapolation (clamped at zero).

    The return value is guaranteed finite and non-negative; degenerate
    training data raises :class:`ValueError` instead of silently leaking
    NaN into ``missed``/``relative_error`` comparisons downstream (a NaN
    prediction makes every comparison False, which reads as "extrapolation
    nailed it" -- the worst possible failure mode for a baseline whose
    whole job is to demonstrate misses).
    """
    if len(train_scales) != len(train_values) or not train_scales:
        raise ValueError("need matching, non-empty training data")
    xs = [float(x) for x in train_scales]
    ys = [float(y) for y in train_values]
    if not all(map(math.isfinite, xs + ys)):
        raise ValueError("training data must be finite")
    # Duplicate training scales make higher-degree fits rank-deficient;
    # cap the degree at (distinct points - 1) so the system stays
    # determined (a single distinct scale degrades to a constant fit).
    degree = max(0, min(degree, len(set(xs)) - 1))
    predicted = _least_squares_predict(xs, ys, degree, float(target_scale))
    if not math.isfinite(predicted):
        raise ValueError(
            f"degenerate polynomial fit (scales={list(train_scales)!r}, "
            f"degree={degree}) produced a non-finite prediction")
    return max(predicted, 0.0)


def extrapolate_flaps(
    bug_id: str,
    target_scale: int,
    runner: Callable[[str, int, str], RunReport],
    train_scales: Optional[Sequence[int]] = None,
    degree: int = 2,
) -> ExtrapolationResult:
    """Train on small real runs, predict the target, compare with reality.

    ``runner(bug_id, nodes, mode)`` supplies experiment points (typically
    :func:`repro.bench.runner.run_point`, which serves them from the sweep
    cache).
    """
    train_scales = list(train_scales) if train_scales else [4, 6, 8, 10]
    train_flaps = [runner(bug_id, n, "real").flaps for n in train_scales]
    predicted = fit_and_predict(train_scales, train_flaps, target_scale,
                                degree=degree)
    actual = runner(bug_id, target_scale, "real").flaps
    return ExtrapolationResult(
        bug_id=bug_id,
        train_scales=train_scales,
        train_flaps=train_flaps,
        target_scale=target_scale,
        predicted_flaps=predicted,
        actual_flaps=actual,
        degree=degree,
    )
