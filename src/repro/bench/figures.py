"""Figure generators: the data behind the paper's Figures 1 and 3.

Figure 1 contrasts the elapsed time of the *same* N-node protocol test
under real scale (t), basic colocation (up to N x t with one core), and
PIL replay (t + e).  :func:`figure1_timings` reproduces the schematic with
the actual CPU models: N concurrent compute tasks of demand ``t`` run under
each model and the makespan is measured.

Figure 3's three panels (flaps vs scale for c3831 / c3881 / c5456, three
lines each) come from :func:`repro.bench.runner.figure3_series`, one sweep
over the panel's grid resolved in the shared sweep cache; this module adds
shape checks and text rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..sim.cpu import DedicatedCpu, PilCpu, SharedCpu
from ..sim.kernel import Compute, Simulator
from ..core.report import render_series
from . import calibrate
from .runner import figure3_series


@dataclass
class Figure1Point:
    """Makespan of an N-task protocol test under one execution model."""

    model: str
    nodes: int
    makespan: float


def figure1_timings(nodes: int = 64, task_demand: float = 1.0,
                    colo_cores: int = 1, pil_overhead: float = 0.02
                    ) -> Dict[str, Figure1Point]:
    """Reproduce Figure 1's t / N*t / t+e comparison with the CPU models.

    ``colo_cores=1`` matches the figure's one-processor illustration; with
    ``c`` cores basic colocation takes ``N*t/c``.
    """
    results: Dict[str, Figure1Point] = {}

    def makespan(build_cpu, model: str, extra: float = 0.0) -> None:
        """Makespan."""
        sim = Simulator(seed=1)
        done: List[float] = []

        def task(cpu):
            """Task."""
            elapsed = yield Compute(cpu, task_demand)
            done.append(sim.now)

        if model == "real":
            for i in range(nodes):
                sim.spawn(task(build_cpu(sim, i)))
        else:
            cpu = build_cpu(sim, 0)
            for i in range(nodes):
                sim.spawn(task(cpu))
        sim.run()
        results[model] = Figure1Point(
            model=model, nodes=nodes, makespan=max(done) + extra
        )

    makespan(lambda sim, i: DedicatedCpu(sim, cores=1, name=f"n{i}"), "real")
    makespan(lambda sim, i: SharedCpu(sim, cores=colo_cores,
                                      context_switch_coeff=0.0), "colo")
    makespan(lambda sim, i: PilCpu(sim), "pil", extra=pil_overhead)
    return results


@dataclass
class ShapeCheck:
    """Did a Figure 3 panel reproduce the paper's qualitative claims?"""

    bug_id: str
    scales: List[int]
    symptom_scale: int
    small_scale_real_flaps: int      # real flaps below the symptom scale
    top_scale_real_flaps: int        # real flaps at the top scale
    colo_overshoots: bool            # colo >= real at the top scale
    pil_tracks_real: bool            # |pil - real| <= |colo - real| at top
    pil_error: float
    colo_error: float

    @property
    def symptom_only_at_scale(self) -> bool:
        """True when real flaps are negligible below the symptom scale."""
        return (self.top_scale_real_flaps > 0
                and self.small_scale_real_flaps
                <= max(1, self.top_scale_real_flaps // 20))


def check_figure3_shape(bug_id: str,
                        series: Optional[Dict[str, Dict[int, int]]] = None,
                        scales: Optional[List[int]] = None) -> ShapeCheck:
    """Evaluate a panel's series against the paper's qualitative claims:

    1. significant flaps only surface at large scale (Real line);
    2. basic colocation is far off from Real;
    3. SC+PIL is close to Real (closer than Colo is).
    """
    scales = scales if scales is not None else calibrate.figure3_scales()
    if series is None:
        series = figure3_series(bug_id, scales)
    symptom_scale = calibrate.expected_symptom_scale(bug_id)
    top = scales[-1]
    small_scales = [n for n in scales if n < symptom_scale]
    small_real = sum(series["real"][n] for n in small_scales)
    top_real = series["real"][top]
    top_colo = series["colo"][top]
    top_pil = series["pil"][top]
    colo_error = abs(top_colo - top_real) / max(top_real, top_colo, 1)
    pil_error = abs(top_pil - top_real) / max(top_real, top_pil, 1)
    return ShapeCheck(
        bug_id=bug_id,
        scales=list(scales),
        symptom_scale=symptom_scale,
        small_scale_real_flaps=small_real,
        top_scale_real_flaps=top_real,
        colo_overshoots=top_colo >= top_real,
        pil_tracks_real=abs(top_pil - top_real) <= abs(top_colo - top_real),
        pil_error=pil_error,
        colo_error=colo_error,
    )


def render_figure3(bug_id: str,
                   series: Optional[Dict[str, Dict[int, int]]] = None,
                   scales: Optional[List[int]] = None) -> str:
    """Render one Figure 3 panel as a text table."""
    scales = scales if scales is not None else calibrate.figure3_scales()
    if series is None:
        series = figure3_series(bug_id, scales)
    title = f"Figure 3 panel: {bug_id} (#flaps per mode)"
    return render_series(title, scales, series)
