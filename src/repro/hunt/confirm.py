"""Stage 3: confirm or refute a probed candidate.

Three independent pieces of dynamic evidence are combined:

* the fitted flap curve over the real-mode N-ladder (the verdict's
  backbone: a confirming shape plus a material top-scale symptom);
* the extrapolation baseline run *against the hunt's own ladder*: train
  on every scale but the top, predict the top -- for latent bugs the
  prediction whiffs by an order of magnitude, which is the paper's
  argument for why small-scale testing misses these bugs;
* colo-vs-real divergence attribution at the top scale (the scale-doctor
  naming the stage where the colocated run queued longest beyond real).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from ..baselines.extrapolate import fit_and_predict
from ..obs.doctor import attribute_divergence
from ..core.curves import CurveFit, fit_flap_curve

#: Verdicts a probed candidate can receive.
CONFIRMED = "confirmed"
REFUTED = "refuted"
NO_PROBE = "no-probe"


class _LatenessView:
    """Adapter: a report dict viewed through the doctor's interface."""

    def __init__(self, report: Optional[Dict[str, Any]]) -> None:
        self.stage_lateness = ((report or {}).get("stage_lateness") or {})


@dataclass
class Confirmation:
    """Dynamic evidence and verdict for one probed candidate."""

    verdict: str
    curve: CurveFit
    extrapolation: Dict[str, Any]
    divergence: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready evidence record (curve + baseline cross-checks)."""
        return {
            "verdict": self.verdict,
            "curve": self.curve.to_dict(),
            "extrapolation": self.extrapolation,
            "divergence": self.divergence,
        }


def _extrapolation_evidence(scales: Sequence[int],
                            values: Sequence[float]) -> Dict[str, Any]:
    """Train on the ladder minus its top scale, predict the top."""
    train_scales = list(scales[:-1])
    train_values = [float(v) for v in values[:-1]]
    actual = float(values[-1])
    evidence: Dict[str, Any] = {
        "train_scales": train_scales,
        "train_values": train_values,
        "target_scale": int(scales[-1]),
        "actual": actual,
    }
    try:
        predicted = fit_and_predict(train_scales, train_values,
                                    int(scales[-1]), degree=2)
    except ValueError as exc:
        evidence["predicted"] = None
        evidence["missed"] = None
        evidence["error"] = str(exc)
        return evidence
    evidence["predicted"] = round(predicted, 4)
    # The baseline's miss criterion: a real symptom the small-scale fit
    # under-predicts by an order of magnitude.
    evidence["missed"] = bool(actual > 0 and predicted < actual / 10)
    return evidence


def _divergence_evidence(real_report: Optional[Dict[str, Any]],
                         colo_report: Optional[Dict[str, Any]]
                         ) -> Dict[str, Any]:
    """Top-scale colo-vs-real stage attribution (hardened: never raises)."""
    reports = {"colo": _LatenessView(colo_report)}
    if real_report is not None:
        reports["real"] = _LatenessView(real_report)
    attribution = attribute_divergence(reports)["colo"]
    out: Dict[str, Any] = {
        "stage": attribution.get("stage"),
        "excess_lateness": round(
            float(attribution.get("excess_lateness", 0.0)), 4),
    }
    if "unattributable" in attribution:
        out["unattributable"] = attribution["unattributable"]
    return out


def confirm_candidate(
    scales: Sequence[int],
    values: Sequence[float],
    real_top_report: Optional[Dict[str, Any]] = None,
    colo_top_report: Optional[Dict[str, Any]] = None,
    min_symptom: float = 20.0,
) -> Confirmation:
    """Weigh the dynamic evidence for one probed candidate."""
    curve = fit_flap_curve(scales, values, min_symptom=min_symptom)
    extrapolation = _extrapolation_evidence(scales, values)
    divergence = _divergence_evidence(real_top_report, colo_top_report)
    verdict = (CONFIRMED if curve.confirms and values[-1] >= min_symptom
               else REFUTED)
    return Confirmation(verdict=verdict, curve=curve,
                        extrapolation=extrapolation, divergence=divergence)
