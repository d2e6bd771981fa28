"""The parallel scale-sweep executor: fan grid points out, cache results.

The engine turns a :class:`~repro.sweep.spec.SweepSpec` into reports with
three cost-avoidance layers, in order:

1. **incremental result cache** -- a point whose content-addressed key
   (spec point + scenario params + cost constants + memo-DB digest + repro
   version) is already in the :class:`~repro.sweep.cache.SweepCache` is
   served from disk without running anything;
2. **shared recordings** -- each (bug, scale, seed, chaos) scenario's
   basic-colocation recording is executed at most once, persisted as a
   MemoDB JSON file, and *reloaded* by every PIL replay worker (and every
   later sweep) that needs it; one that no longer loads is re-recorded;
3. **process-parallel fan-out** -- remaining work is dispatched to a
   process pool, largest scenarios first so the stragglers start early;
   a worker that dies fails the sweep with the points it left unfinished
   instead of hanging it.

Execution happens in two waves: recording jobs first (they produce the
``colo`` reports and the MemoDB digests the replay keys need), then
everything else.  Every job is a pure function of its JSON payload -- the
determinism suite pins that a worker process returns byte-identical
canonical reports to an in-process run.
"""

from __future__ import annotations

import dataclasses
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .. import __version__
from ..bench import calibrate
from ..cassandra.cluster import MachineSpec
from ..cassandra.pending_ranges import CostConstants
from ..cassandra.workloads import ScenarioParams
from ..core.memoization import MemoDB
from ..core.scalecheck import ScaleCheck
from ..core.target import target_for
from ..faults.chaos import ChaosConfig, generate_schedule
from ..faults.schedule import FaultSchedule
from ..obs.collect import SweepCollector
from ..sim.partition import fork_context
from ..workload.scenarios import run_point as run_workload_point
from .cache import SweepCache, memo_identity_key, result_key
from .spec import SweepPoint, SweepSpec


def _schedule_for(point: SweepPoint,
                  params: ScenarioParams) -> Optional[FaultSchedule]:
    """The point's deterministic chaos schedule (None when fault-free)."""
    if point.chaos_seed is None:
        return None
    population = target_for(point.bug_id).population(point.nodes)
    config = ChaosConfig(events=point.chaos_events,
                         horizon=params.warmup + params.observe)
    return generate_schedule(population, point.chaos_seed, config)


def _make_check(point: SweepPoint, params: ScenarioParams,
                constants: CostConstants,
                machine: Optional[MachineSpec]) -> ScaleCheck:
    """Reconstruct the ScaleCheck a job payload describes."""
    kwargs: Dict[str, Any] = dict(
        bug_id=point.bug_id, nodes=point.nodes, seed=point.seed,
        params=params, cost_constants=constants, vnodes=point.vnodes,
    )
    if machine is not None:
        kwargs["machine"] = machine
    return ScaleCheck(**kwargs)


def _execute_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one sweep job (in a worker process or inline).

    ``payload`` is pure JSON -- everything the run depends on travels
    explicitly, nothing is inherited from parent-process state -- which is
    what makes a job's canonical report identical no matter which process
    executes it.
    """
    started = time.perf_counter()
    kind = payload["kind"]
    point = SweepPoint.from_dict(payload["point"])
    params = ScenarioParams(**payload["params"])
    constants = CostConstants(**payload["constants"])
    machine = (MachineSpec(**payload["machine"])
               if payload.get("machine") else None)
    check = _make_check(point, params, constants, machine)
    faults = _schedule_for(point, params)
    out: Dict[str, Any] = {
        "kind": kind,
        "point": payload["point"],
        "key": payload.get("key", ""),
        "identity_key": payload.get("identity_key", ""),
    }
    if kind == "real":
        report = check.run_real(faults=faults)
        out["report"] = report.to_dict()
    elif kind == "workload":
        # Live client traffic over the point's cluster; no memo/PIL
        # machinery is involved (traffic has no recording to replay).
        report = run_workload_point(
            bug_id=point.bug_id, nodes=point.nodes, mode=point.mode,
            seed=point.seed, preset=point.workload, users=point.users,
            consistency=point.consistency, params=params,
            constants=constants, machine=machine, faults=faults,
            vnodes=point.vnodes)
        out["report"] = report.to_dict()
    elif kind == "memo":
        result = check.memoize(faults=faults)
        db = result.db
        low, high = db.duration_range()
        out["report"] = result.memo_report.to_dict()
        out["memo_digest"] = db.save(payload["memo_path"])
        out["db_stats"] = {
            "distinct": len(db),
            "samples": db.total_samples(),
            "duration_min": low,
            "duration_max": high,
            "conflicts": db.conflicts,
        }
    elif kind == "replay":
        db = MemoDB.load(payload["memo_path"])
        replay = check.replay(db, faults=faults)
        out["report"] = replay.report.to_dict()
        out["replay"] = replay.to_dict()
        out["memo_digest"] = payload.get("memo_digest", "")
    else:  # pragma: no cover - payloads are built by run_sweep
        raise ValueError(f"unknown sweep job kind {kind!r}")
    out["wall_seconds"] = time.perf_counter() - started
    return out


def _run_jobs(payloads: List[Dict[str, Any]],
              workers: int) -> List[Dict[str, Any]]:
    """Execute job payloads, in-process or across a worker pool.

    Jobs are dispatched largest-cluster-first (the N^2-ish points dominate
    wall time; starting them first keeps the pool busy), one job per task
    so two heavyweight jobs never serialize onto one worker.  A worker
    that dies (killed, out of memory) raises ``RuntimeError`` naming every
    point left unfinished.
    """
    if not payloads:
        return []
    ordered = sorted(payloads,
                     key=lambda p: p["point"]["nodes"], reverse=True)
    if workers <= 1 or len(ordered) == 1:
        return [_execute_job(p) for p in ordered]
    # Imported here: the pool machinery adds about 1 MB of resident
    # modules that in-process sweeps never use.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(max_workers=min(workers, len(ordered)),
                             mp_context=fork_context()) as pool:
        futures = [pool.submit(_execute_job, p) for p in ordered]
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            unfinished = [SweepPoint.from_dict(p["point"]).label()
                          for p, future in zip(ordered, futures)
                          if future.exception() is not None]
            raise RuntimeError(
                f"a sweep worker died; unfinished points: "
                f"{', '.join(unfinished)}") from exc


@dataclass
class PointResult:
    """One resolved grid point (executed or cache-served)."""

    point: SweepPoint
    key: str
    cached: bool
    report: Dict[str, Any]
    replay: Optional[Dict[str, Any]] = None
    db_stats: Optional[Dict[str, Any]] = None
    memo_digest: str = ""
    wall_seconds: float = 0.0

    @property
    def flaps(self) -> int:
        """The paper's headline symptom count for this point."""
        return int(self.report.get("flaps", 0))

    @property
    def hit_rate(self) -> Optional[float]:
        """Replay hit rate (None for non-replay modes)."""
        if self.replay is None:
            return None
        return float(self.replay.get("hit_rate", 0.0))

    def payload(self) -> Dict[str, Any]:
        """The cacheable result payload (everything but provenance)."""
        return {
            "report": self.report,
            "replay": self.replay,
            "db_stats": self.db_stats,
            "memo_digest": self.memo_digest,
        }

    @classmethod
    def from_payload(cls, point: SweepPoint, key: str,
                     payload: Dict[str, Any],
                     cached: bool) -> "PointResult":
        """Rebuild from a cached payload."""
        return cls(
            point=point, key=key, cached=cached,
            report=payload["report"],
            replay=payload.get("replay"),
            db_stats=payload.get("db_stats"),
            memo_digest=payload.get("memo_digest", ""),
        )


@dataclass
class SweepSummary:
    """Everything one sweep run produced, plus how cheaply it got there."""

    results: List[PointResult]
    executed: int = 0
    cached: int = 0
    memo_built: int = 0
    memo_reused: int = 0
    wall_seconds: float = 0.0
    workers: int = 1
    cache_dir: str = ""
    #: ``SweepCache.stats()`` of the result cache at the end of the run.
    cache_stats: Dict[str, int] = field(default_factory=dict)
    collector: Optional[SweepCollector] = field(default=None, repr=False)

    def table(self) -> str:
        """Deterministic per-point table.

        Contains only virtual-time results -- no host timings, no
        cache/executed provenance -- so a warm re-sweep renders the exact
        same table a cold sweep did (the incremental-cache correctness
        check the benchmarks assert on).
        """
        lines = [
            f"{'point':<36} {'flaps':>7} {'msgs':>8} {'duration':>9} "
            f"{'hit rate':>9}"
        ]
        for result in self.results:
            rate = result.hit_rate
            lines.append(
                f"{result.point.label():<36} {result.flaps:>7d} "
                f"{int(result.report.get('messages_delivered', 0)):>8d} "
                f"{float(result.report.get('duration', 0.0)):>8.1f}s "
                f"{'' if rate is None else format(rate, '.0%'):>9}"
            )
        return "\n".join(lines)

    def stats_line(self) -> str:
        """Host-side provenance: what ran, what the cache absorbed."""
        return (f"{self.executed} executed, {self.cached} cached | "
                f"recordings: {self.memo_built} built, "
                f"{self.memo_reused} reused | "
                f"wall {self.wall_seconds:.1f}s with {self.workers} "
                f"worker{'s' if self.workers != 1 else ''}")

    def render(self) -> str:
        """Table plus provenance footer."""
        return f"{self.table()}\n{self.stats_line()}"

    def flap_series(self) -> Dict[str, Dict[int, int]]:
        """Figure-3-shaped series: mode -> {nodes -> flaps} (first seed wins)."""
        series: Dict[str, Dict[int, int]] = {}
        for result in self.results:
            by_scale = series.setdefault(result.point.mode, {})
            by_scale.setdefault(result.point.nodes, result.flaps)
        return series


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    cache_dir=None,
    force: bool = False,
    params: Optional[ScenarioParams] = None,
    constants: Optional[CostConstants] = None,
    machine: Optional[MachineSpec] = None,
    collector: Optional[SweepCollector] = None,
) -> SweepSummary:
    """Run (or cache-resolve) every point of ``spec``.

    ``cache_dir`` is the persistent home of recordings and results; when
    None a temporary directory is used (recordings are still shared within
    the run, nothing survives it).  ``force`` re-executes every point and
    recording but still refreshes the cache.  ``constants`` overrides the
    per-bug calibrated cost constants (benchmarks that sweep affordability
    knobs need this); ``params``/``machine`` likewise default to the
    current calibration and the paper's host.
    """
    started = time.perf_counter()
    points = spec.expand()
    tmp: Optional[tempfile.TemporaryDirectory] = None
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-sweep-")
        cache_dir = tmp.name
    cache = SweepCache(cache_dir)
    collector = collector if collector is not None else SweepCollector()

    params = params if params is not None else calibrate.scenario_params()
    params_dict = dataclasses.asdict(params)
    machine_dict = dataclasses.asdict(machine) if machine is not None else None

    constants_cache: Dict[str, Dict[str, Any]] = {}

    def constants_dict(bug_id: str) -> Dict[str, Any]:
        if bug_id not in constants_cache:
            resolved = (constants if constants is not None
                        else calibrate.experiment_constants(bug_id))
            constants_cache[bug_id] = dataclasses.asdict(resolved)
        return constants_cache[bug_id]

    def key_for(point: SweepPoint, memo_digest: str = "") -> str:
        return result_key(point.to_dict(), params_dict,
                          constants_dict(point.bug_id), memo_digest,
                          __version__, machine_dict)

    def identity_for(point: SweepPoint) -> str:
        return memo_identity_key(point.memo_identity(), params_dict,
                                 constants_dict(point.bug_id), machine_dict)

    def base_payload(point: SweepPoint, kind: str, key: str) -> Dict[str, Any]:
        return {
            "kind": kind,
            "point": point.to_dict(),
            "key": key,
            "params": params_dict,
            "constants": constants_dict(point.bug_id),
            "machine": machine_dict,
        }

    resolved: Dict[SweepPoint, PointResult] = {}
    memo_built = 0
    memo_reused = 0

    # -- wave 0: serve points straight from the result cache ------------------
    # A pil point's key needs its recording's digest; with no recording yet
    # it waits for wave 2.  Keys that missed here are not looked up again.
    missed: Dict[SweepPoint, str] = {}
    for point in points:
        digest = (cache.memo_digest(identity_for(point))
                  if point.mode == "pil" else "")
        if force or digest is None:
            continue
        key = key_for(point, memo_digest=digest)
        payload = cache.get(key)
        if payload is None:
            missed[point] = key
        else:
            resolved[point] = PointResult.from_payload(point, key, payload,
                                                       cached=True)

    # -- wave 1: recording jobs (colo runs double as MemoDB producers) ---------
    # An unresolved pil point will replay its recording, so that recording
    # must load: a damaged one is re-recorded like a missing one.
    recording_jobs: Dict[str, Dict[str, Any]] = {}
    for point in points:
        if point in resolved or point.workload is not None:
            continue  # workload points never record or replay a MemoDB
        identity = identity_for(point)
        if identity in recording_jobs:
            continue
        needs_recording = (
            point.mode == "colo"
            or (point.mode == "pil"
                and (force or cache.loadable_memo_digest(identity) is None))
        )
        if needs_recording:
            memo_point = SweepPoint.from_dict(
                dict(point.to_dict(), mode="colo"))
            job = base_payload(memo_point, "memo", key_for(memo_point))
            job["identity_key"] = identity
            job["memo_path"] = str(cache.memo_path(identity))
            recording_jobs[identity] = job

    for out in _run_jobs(list(recording_jobs.values()), workers):
        identity = out["identity_key"]
        cache.record_memo_digest(identity, out["memo_digest"])
        memo_built += 1
        collector.memo_built()
        memo_point = SweepPoint.from_dict(out["point"])
        result = PointResult(
            point=memo_point, key=out["key"], cached=False,
            report=out["report"], db_stats=out["db_stats"],
            memo_digest=out["memo_digest"],
            wall_seconds=out["wall_seconds"],
        )
        # The colo report is cached even when only PIL points needed the
        # recording: a later `colo` sweep of the same scenario is then free.
        cache.put(out["key"], result.payload(), point=memo_point.to_dict())
        for point in points:
            if (point.mode == "colo" and point not in resolved
                    and identity_for(point) == identity):
                own_key = key_for(point)
                resolved[point] = dataclasses.replace(
                    result, point=point, key=own_key)
                if own_key != out["key"]:
                    cache.put(own_key, result.payload(),
                              point=point.to_dict())

    # -- wave 2: real runs and PIL replays -------------------------------------
    jobs: List[Dict[str, Any]] = []
    for point in points:
        if point in resolved:
            continue
        if point.workload is not None:
            key = key_for(point)
            jobs.append(base_payload(point, "workload", key))
        elif point.mode == "real":
            key = key_for(point)
            jobs.append(base_payload(point, "real", key))
        elif point.mode == "pil":
            identity = identity_for(point)
            digest = cache.memo_digest(identity)
            if digest is None:  # pragma: no cover - wave 1 guarantees it
                raise RuntimeError(f"recording missing for {point.label()}")
            key = key_for(point, memo_digest=digest)
            if not force and missed.get(point) != key:
                payload = cache.get(key)
                if payload is not None:
                    resolved[point] = PointResult.from_payload(
                        point, key, payload, cached=True)
                    continue
            job = base_payload(point, "replay", key)
            job["identity_key"] = identity
            job["memo_path"] = str(cache.memo_path(identity))
            job["memo_digest"] = digest
            if identity not in recording_jobs:
                memo_reused += 1
                collector.memo_reused()
            jobs.append(job)
        elif point.mode == "colo":  # pragma: no cover - resolved in wave 1
            raise RuntimeError(f"colo point unresolved: {point.label()}")

    for out in _run_jobs(jobs, workers):
        point = SweepPoint.from_dict(out["point"])
        result = PointResult(
            point=point, key=out["key"], cached=False,
            report=out["report"], replay=out.get("replay"),
            memo_digest=out.get("memo_digest", ""),
            wall_seconds=out["wall_seconds"],
        )
        cache.put(out["key"], result.payload(), point=point.to_dict())
        resolved[point] = result

    ordered = [resolved[point] for point in points]
    executed = sum(1 for r in ordered if not r.cached)
    cached_count = len(ordered) - executed
    for result in ordered:
        collector.point_finished(result.point.mode, result.cached,
                                 result.wall_seconds)
    summary = SweepSummary(
        results=ordered,
        executed=executed,
        cached=cached_count,
        memo_built=memo_built,
        memo_reused=memo_reused,
        wall_seconds=time.perf_counter() - started,
        workers=workers,
        cache_dir=str(cache_dir),
        cache_stats=cache.stats(),
        collector=collector,
    )
    if tmp is not None:
        tmp.cleanup()
    return summary
