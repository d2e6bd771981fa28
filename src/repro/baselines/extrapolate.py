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

import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

# numpy 2 moved RankWarning into np.exceptions; accept either home.
_RANK_WARNING = getattr(getattr(np, "exceptions", np), "RankWarning", Warning)

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
    xs = np.array(train_scales, dtype=float)
    ys = np.array(train_values, dtype=float)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("training data must be finite")
    # Duplicate training scales make higher-degree fits rank-deficient;
    # cap the degree at (distinct points - 1) so the system stays
    # determined (a single distinct scale degrades to a constant fit).
    distinct = np.unique(xs).size
    degree = max(0, min(degree, distinct - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _RANK_WARNING)
        coeffs = np.polyfit(xs, ys, deg=degree)
    predicted = float(np.polyval(coeffs, float(target_scale)))
    if not np.isfinite(predicted):
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
