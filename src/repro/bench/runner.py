"""Experiment runner: every figure and table point goes through the sweep cache.

A point is one (bug, nodes, seed, mode) run resolved by the sweep engine
(:mod:`repro.sweep`) against one content-addressed cache directory, so a
repeated point -- pytest-benchmark re-invoking a body, a table asking for a
figure's point -- is read back instead of re-simulated, and the colo and
pil modes of a scenario share one recording.  ``REPRO_SWEEP_CACHE=<dir>``
makes that cache persistent across invocations.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

from ..cassandra.metrics import RunReport
from ..cassandra.pending_ranges import CostConstants
from ..cassandra.workloads import ScenarioParams
from ..core.scalecheck import ScaleCheck
from . import calibrate

_TMP_CACHE: Optional[tempfile.TemporaryDirectory] = None


def bench_sweep_cache_dir() -> str:
    """The sweep-cache directory every figure and table point resolves in.

    ``REPRO_SWEEP_CACHE=<path>`` makes it persistent; otherwise one
    process-wide temporary directory, removed at exit, is shared by every
    point of the run.
    """
    global _TMP_CACHE
    path = os.environ.get("REPRO_SWEEP_CACHE")
    if path:
        return path
    if _TMP_CACHE is None:
        _TMP_CACHE = tempfile.TemporaryDirectory(prefix="repro-bench-sweep-")
    return _TMP_CACHE.name


def sweep_points(bug_ids: Sequence[str], scales: Sequence[int],
                 modes: Sequence[str], seed: int = 42,
                 params: Optional[ScenarioParams] = None,
                 constants: Optional[CostConstants] = None):
    """Resolve a (bug x scale x mode) grid in the shared sweep cache.

    Returns the :class:`~repro.sweep.SweepSummary`.  ``repro.sweep`` is
    imported here, not at module level: its executor imports
    :mod:`repro.bench.calibrate`, so a top-level import would be a cycle.
    """
    from ..sweep import SweepSpec, run_sweep

    workers = int(os.environ.get("REPRO_SWEEP_WORKERS", "1"))
    spec = SweepSpec(bugs=list(bug_ids), scales=list(scales),
                     seeds=[seed], modes=list(modes))
    return run_sweep(spec, workers=workers, cache_dir=bench_sweep_cache_dir(),
                     params=params, constants=constants)


def make_check(
    bug_id: str,
    nodes: int,
    seed: int = 42,
    params: Optional[ScenarioParams] = None,
    constants: Optional[CostConstants] = None,
) -> ScaleCheck:
    """A ScaleCheck configured per the current calibration (CI vs full)."""
    return ScaleCheck(
        bug_id=bug_id,
        nodes=nodes,
        seed=seed,
        params=params if params is not None else calibrate.scenario_params(),
        cost_constants=(constants if constants is not None
                        else calibrate.experiment_constants(bug_id)),
    )


def run_point(bug_id: str, nodes: int, mode: str, seed: int = 42,
              params: Optional[ScenarioParams] = None,
              constants: Optional[CostConstants] = None) -> RunReport:
    """One experiment point, served from the sweep cache when present."""
    summary = sweep_points([bug_id], [nodes], [mode], seed=seed,
                           params=params, constants=constants)
    return RunReport.from_dict(summary.results[0].report)


def figure3_series(
    bug_id: str,
    scales: Optional[List[int]] = None,
    seed: int = 42,
    modes: Tuple[str, ...] = ("real", "colo", "pil"),
) -> Dict[str, Dict[int, int]]:
    """One Figure 3 panel: flap counts per mode per scale."""
    scales = scales if scales is not None else calibrate.figure3_scales()
    return sweep_points([bug_id], scales, modes, seed=seed).flap_series()
