"""Shared cross-scale curve fitting: the load-bearing math for trend gates.

A symptom (flap count) or resource metric (virtual-time throughput,
modeled peak memory) measured over an ascending N-ladder has a *shape*,
and both the bug hunt (:mod:`repro.hunt`) and the continuous-scalability
CI gate (:mod:`repro.ci`) decide from that shape rather than from any
single point.  Scalability bugs show one of two dynamic signatures (both
are confirmations):

* ``threshold`` -- zero through the ladder, then a jump at (or near) the
  top scale: the classic *latent* bug the paper is about;
* ``superlinear`` -- visible at multiple scales with a log-log growth
  exponent well above linear.

Everything else -- ``flat`` (no meaningful symptom anywhere) or
``sublinear``/``linear`` growth that a bigger cluster would dilute or
merely track -- refutes the suspicion.

This module uses the standard library only and is fully deterministic:
exponents are rounded before serialization so last-digit fit noise can
never churn a byte-identical report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Classifications that confirm a candidate (or trip a trend gate).
CONFIRMING = ("threshold", "superlinear")

#: Log-log growth exponent above which growth counts as superlinear.
SUPERLINEAR_EXPONENT = 1.2

#: Log-log growth exponent below which growth counts as sublinear.
LINEAR_EXPONENT = 0.8


def classify_exponent(exponent: float) -> str:
    """Band a fitted log-log growth exponent into a growth class."""
    if exponent >= SUPERLINEAR_EXPONENT:
        return "superlinear"
    if exponent >= LINEAR_EXPONENT:
        return "linear"
    return "sublinear"


def _validate_series(scales: Sequence[int],
                     values: Sequence[float]) -> List[float]:
    """Common input checks; returns the values as floats."""
    if len(scales) != len(values) or not scales:
        raise ValueError("need matching, non-empty series")
    if list(scales) != sorted(set(scales)):
        raise ValueError("scales must be strictly ascending")
    return [float(v) for v in values]


def fit_loglog_slope(scales: Sequence[int], values: Sequence[float]
                     ) -> Optional[Tuple[float, float]]:
    """Least-squares (slope, intercept) of log(value) against log(scale).

    Only strictly positive points participate (log of zero is undefined;
    a zero tail is shape information the *classifier* handles, not the
    slope fit).  Returns None when fewer than two positive points exist --
    there is no line to fit through one point.
    """
    vals = _validate_series(scales, values)
    positive = [(s, v) for s, v in zip(scales, vals) if v > 0]
    if len(positive) < 2:
        return None
    xs = [math.log(s) for s, _ in positive]
    ys = [math.log(v) for _, v in positive]
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    dxs = [x - x_mean for x in xs]
    slope = (math.fsum(dx * (y - y_mean) for dx, y in zip(dxs, ys))
             / math.fsum(dx * dx for dx in dxs))
    return slope, y_mean - slope * x_mean


@dataclass
class CurveFit:
    """Fitted growth shape of one metric-vs-scale series."""

    scales: List[int]
    values: List[float]
    classification: str
    #: Log-log growth exponent over the nonzero tail (None when fewer than
    #: two nonzero points exist -- nothing to fit a slope through).
    exponent: Optional[float] = None
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def confirms(self) -> bool:
        """Does this shape support the static candidate / trip the gate?"""
        return self.classification in CONFIRMING

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (exponent rounded: last-digit fit noise must not
        churn byte-identical report comparisons)."""
        return {
            "scales": list(self.scales),
            "values": [float(v) for v in self.values],
            "classification": self.classification,
            "exponent": (None if self.exponent is None
                         else round(float(self.exponent), 4)),
        }


def fit_flap_curve(scales: Sequence[int], values: Sequence[float],
                   min_symptom: float = 20.0) -> CurveFit:
    """Classify a symptom series measured over an ascending N-ladder.

    ``min_symptom`` is the noise floor: a series whose largest value never
    reaches it is ``flat`` regardless of its shape (three flaps growing
    into five is not a scalability bug).
    """
    vals = _validate_series(scales, values)
    if max(vals) < min_symptom:
        return CurveFit(list(scales), vals, "flat")
    fit = fit_loglog_slope(scales, vals)
    if fit is None:
        # Latent through the ladder, manifest at one scale: the jump is the
        # signature; there is no slope to fit.
        return CurveFit(list(scales), vals, "threshold")
    exponent = fit[0]
    return CurveFit(list(scales), vals, classify_exponent(exponent),
                    exponent=exponent)


def fit_metric_curve(scales: Sequence[int],
                     values: Sequence[float]) -> CurveFit:
    """Classify an always-meaningful resource metric (throughput, memory).

    Unlike a *symptom* series, a resource series has no noise floor -- a
    cluster always delivers messages and always occupies memory -- and an
    all-zero series means the metric simply was not measured (``flat``,
    never ``threshold``: absence of instrumentation is not a latent bug).
    """
    vals = _validate_series(scales, values)
    fit = fit_loglog_slope(scales, vals)
    if fit is None:
        return CurveFit(list(scales), vals, "flat")
    exponent = fit[0]
    return CurveFit(list(scales), vals, classify_exponent(exponent),
                    exponent=exponent)
