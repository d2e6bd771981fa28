"""The machine-readable scaling report (``repro-scaling-report-v1``).

Determinism contract (same discipline as the sweep and hunt reports): the
report contains only virtual-time results and configuration facts -- no
wall clocks, no cache provenance, no absolute paths -- so gating the same
tree twice (cache cold or warm, in-process or in a fresh interpreter)
serializes to byte-identical JSON with an equal SHA-256 digest.  That is
what makes the report safe to commit as the ``SCALING_BASELINE.json``
trend contract.

Schema (``repro-scaling-report-v1``)::

    {
      "format": "repro-scaling-report-v1",
      "scales": [32, 64, 128],          # the N-ladder, ascending
      "seed": 42,
      "scenarios": {
        "<name>": {
          "scenario": {bug, mode, workload, users, consistency},
          "metrics": {
            "flaps":          {scales, values, slope, classification},
            "events_per_vsec":{scales, values, slope, classification},
            "peak_mem_bytes": {scales, values, slope, classification}
          }
        }, ...
      }
    }

``slope`` is the fitted log-log growth exponent over the ladder (None when
fewer than two positive points exist); ``classification`` is the shared
:mod:`repro.core.curves` growth class (flat / sublinear / linear /
superlinear / threshold).  Values are the simulator's deterministic
analogues of the usual CI meters: ``events_per_vsec`` is messages
delivered per *virtual* second and ``peak_mem_bytes`` is the colocation
host's modeled peak memory -- host-side ev/s and RSS would break the
byte-determinism the gate's cache reuse depends on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..canonical import canonical_json, sha256_hex
from ..checks import VerbReport
from ..core.curves import CurveFit

#: Format tag embedded in serialized reports (bump on incompatible change).
SCALING_REPORT_FORMAT = "repro-scaling-report-v1"

#: The committed trend contract at the repository root.
DEFAULT_BASELINE_NAME = "SCALING_BASELINE.json"

#: The metrics every scenario ladder is fitted over, in schema order.
METRICS = ("flaps", "events_per_vsec", "peak_mem_bytes")


@dataclass
class MetricTrend:
    """One metric's fitted trend over the ladder."""

    metric: str
    fit: CurveFit

    @property
    def slope(self) -> Optional[float]:
        """The fitted log-log growth exponent (None when unfittable)."""
        return None if self.fit.exponent is None else round(
            float(self.fit.exponent), 4)

    @property
    def classification(self) -> str:
        """The shared growth class for this metric's series."""
        return self.fit.classification

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (values rounded: byte-stable serialization)."""
        return {
            "scales": list(self.fit.scales),
            "values": [round(float(v), 4) for v in self.fit.values],
            "slope": self.slope,
            "classification": self.classification,
        }


@dataclass
class ScenarioTrend:
    """One gate scenario: its identity plus the per-metric trends."""

    name: str
    scenario: Dict[str, Any]
    metrics: Dict[str, MetricTrend] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "scenario": dict(self.scenario),
            "metrics": {name: trend.to_dict()
                        for name, trend in sorted(self.metrics.items())},
        }


@dataclass
class ScalingReport(VerbReport):
    """Everything one ``repro ci`` run produced."""

    scales: List[int]
    seed: int
    scenarios: Dict[str, ScenarioTrend] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, Any]:
        """The full machine-readable report (schema in the module doc)."""
        return {
            "format": SCALING_REPORT_FORMAT,
            "scales": list(self.scales),
            "seed": self.seed,
            "scenarios": {name: trend.to_dict()
                          for name, trend in sorted(self.scenarios.items())},
        }

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form (the report's identity)."""
        return sha256_hex(canonical_json(self.to_json_dict()))

    def to_text(self) -> str:
        """Human-readable per-scenario trend table."""
        lines = [f"repro ci: ladder {self.scales}, seed {self.seed} "
                 f"(digest {self.digest()[:12]})"]
        for name, trend in sorted(self.scenarios.items()):
            scen = trend.scenario
            label = f"{scen.get('bug')}/{scen.get('mode')}"
            if scen.get("workload"):
                label += f"/wl={scen['workload']}"
            lines.append(f"  {name} ({label}):")
            for metric in METRICS:
                if metric not in trend.metrics:
                    continue
                mt = trend.metrics[metric]
                slope = "n/a" if mt.slope is None else f"{mt.slope:+.4f}"
                values = ", ".join(f"{v:g}" for v in mt.fit.values)
                lines.append(f"    {metric:<16} slope {slope:>8}  "
                             f"{mt.classification:<11} [{values}]")
        return "\n".join(lines) + "\n"

    # -- parsing (the baseline loader's half of the round trip) ----------------

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "ScalingReport":
        """Rebuild a report from its serialized form."""
        fmt = data.get("format")
        if fmt != SCALING_REPORT_FORMAT:
            raise ValueError(f"unknown scaling-report format {fmt!r} "
                             f"(expected {SCALING_REPORT_FORMAT!r})")
        scenarios: Dict[str, ScenarioTrend] = {}
        for name, raw in data.get("scenarios", {}).items():
            metrics: Dict[str, MetricTrend] = {}
            for metric, payload in raw.get("metrics", {}).items():
                fit = CurveFit(
                    scales=[int(s) for s in payload["scales"]],
                    values=[float(v) for v in payload["values"]],
                    classification=str(payload["classification"]),
                    exponent=(None if payload.get("slope") is None
                              else float(payload["slope"])),
                )
                metrics[metric] = MetricTrend(metric=metric, fit=fit)
            scenarios[name] = ScenarioTrend(
                name=name, scenario=dict(raw.get("scenario", {})),
                metrics=metrics)
        return cls(
            scales=[int(s) for s in data.get("scales", [])],
            seed=int(data.get("seed", 0)),
            scenarios=scenarios,
        )


# -- the committed baseline file -----------------------------------------------


def save_baseline(path, report: ScalingReport) -> None:
    """Write the trend contract: the report plus its recorded digest.

    The digest makes hand-edits detectable -- ``repro ci --compare``
    recomputes it from the stored report and refuses a baseline whose
    bytes no longer match what ``--update`` recorded.
    """
    payload = {"digest": report.digest(), "report": report.to_json_dict()}
    Path(path).write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n")


def load_baseline(path) -> Optional[ScalingReport]:
    """Read a committed baseline, or None when the file is absent.

    Raises ValueError when the file exists but is corrupt: unparseable
    JSON, an unknown format tag, or a recorded digest that no longer
    matches the stored report (a hand-edited contract is no contract).
    """
    target = Path(path)
    if not target.exists():
        return None
    try:
        payload = json.loads(target.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt scaling baseline {target}: {exc}") from exc
    if not isinstance(payload, dict) or "report" not in payload:
        raise ValueError(f"corrupt scaling baseline {target}: "
                         f"missing 'report' payload")
    report = ScalingReport.from_json_dict(payload["report"])
    recorded = payload.get("digest")
    if recorded != report.digest():
        raise ValueError(
            f"corrupt scaling baseline {target}: recorded digest "
            f"{str(recorded)[:12]}... does not match the stored report "
            f"({report.digest()[:12]}...); re-record with --update")
    return report
