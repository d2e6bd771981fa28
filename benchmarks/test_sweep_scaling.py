"""X-SWEEP -- the parallel sweep engine: speedup, sharing, incrementality.

The engine's three claims, measured on a 6-point c6127 grid at the paper's
Figure 3 scales (N in {32, 64, 128}, two simulation seeds):

1. **parallel fan-out pays**: 2 workers resolve the cold grid >= 1.5x
   faster than 1 worker (jobs are dispatched largest-cluster-first, so the
   N=128 stragglers start immediately on both workers);
2. **recordings are shared**: a colo+pil grid builds each scenario's
   MemoDB exactly once; the replay points reload it from the persistent
   store instead of re-recording;
3. **re-sweeps are incremental**: a warm second invocation executes zero
   grid points and renders the byte-identical per-point table -- the
   content-addressed cache is the result's identity, not a lossy summary.

Affordability (same pattern as X-CHAOS): c6127 runs with a reduced vnode
count, cost constants mapped onto a healthy small-scale point, and a
shortened observation window, so the whole module stays around a minute.
Deselect with ``-m "not sweep"``.
"""

import os
import shutil

import pytest

from repro.bench.calibrate import ci_cost_constants
from repro.cassandra.cluster import MachineSpec
from repro.cassandra.workloads import ScenarioParams
from repro.sweep import SweepSpec, run_sweep

pytestmark = pytest.mark.sweep

SCALES = [32, 64, 128]
SEEDS = [1, 2]
VNODES = 8
MIN_SPEEDUP = 1.5

PARAMS = ScenarioParams(warmup=5.0, observe=20.0, bootstrap_stagger=1.0)
CONSTANTS = ci_cost_constants("c6127", ci_top=SCALES[-1], paper_top=32)
MACHINE = MachineSpec(cores=SCALES[-1])


def grid_spec(**overrides):
    kwargs = dict(bugs=["c6127"], scales=SCALES, seeds=SEEDS,
                  modes=["real"], vnodes=VNODES)
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def sweep(spec, workers, cache_dir, force=False):
    return run_sweep(spec, workers=workers, cache_dir=cache_dir,
                     force=force, params=PARAMS, constants=CONSTANTS,
                     machine=MACHINE)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Serial cold, parallel cold, and warm resolutions of the 6-point grid."""
    spec = grid_spec()
    serial = sweep(spec, 1, tmp_path_factory.mktemp("serial"))
    par_dir = tmp_path_factory.mktemp("parallel")
    parallel = sweep(spec, 2, par_dir)
    warm = sweep(spec, 2, par_dir)
    return {"spec": spec, "serial": serial, "parallel": parallel,
            "warm": warm}


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def test_two_workers_beat_one(benchmark, runs):
    """The headline: 2 workers resolve the cold 6-point grid >= 1.5x

    faster than 1 worker (ideal is ~2x: the two N=128 jobs dominate and
    run concurrently).  The timing claim needs two actual cores; on a
    single-core host the fan-out still *works* (the determinism and cache
    tests below run regardless) but cannot be faster, so only the ratio
    assertion is skipped there."""
    result = benchmark.pedantic(lambda: runs, rounds=1, iterations=1)
    serial, parallel = result["serial"], result["parallel"]
    assert serial.executed == parallel.executed == 6
    if available_cores() < 2:
        pytest.skip("parallel speedup needs >= 2 cores; host has "
                    f"{available_cores()}")
    speedup = serial.wall_seconds / parallel.wall_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"2 workers only {speedup:.2f}x faster "
        f"({serial.wall_seconds:.1f}s vs {parallel.wall_seconds:.1f}s)")


def test_worker_count_does_not_change_results(benchmark, runs):
    """Determinism across process fan-out: serial and parallel resolutions

    produce identical tables and identical content-addressed keys."""
    result = benchmark.pedantic(lambda: runs, rounds=1, iterations=1)
    serial, parallel = result["serial"], result["parallel"]
    assert serial.table() == parallel.table()
    assert ([r.key for r in serial.results]
            == [r.key for r in parallel.results])


def test_warm_cache_executes_zero_points(benchmark, runs):
    """The incremental re-sweep: zero executions, identical summary."""
    result = benchmark.pedantic(lambda: runs, rounds=1, iterations=1)
    warm, parallel = result["warm"], result["parallel"]
    assert warm.executed == 0
    assert warm.cached == 6
    assert warm.table() == parallel.table()


def test_recordings_built_once_and_reused(benchmark, tmp_path_factory):
    """A colo+pil grid shares one MemoDB per scenario; a follow-up

    pil-only sweep against the same cache, its results cleared, replays
    the recordings and re-records nothing."""
    cache_dir = tmp_path_factory.mktemp("recordings")
    spec = grid_spec(scales=SCALES[:2], seeds=[1], modes=["colo", "pil"])

    def record_then_replay():
        first = sweep(spec, 2, cache_dir)
        shutil.rmtree(cache_dir / "results")
        again = sweep(grid_spec(scales=SCALES[:2], seeds=[1], modes=["pil"]),
                      2, cache_dir)
        return first, again

    first, again = benchmark.pedantic(record_then_replay,
                                      rounds=1, iterations=1)
    assert first.memo_built == 2            # one recording per scale
    assert first.executed == 4              # 2 colo + 2 pil points
    assert again.memo_built == 0            # recordings reloaded from disk
    assert again.memo_reused == 2
    assert again.executed == 2              # fresh replays, old recordings
    for result in again.results:
        assert result.replay["hit_rate"] > 0.65


def test_sweep_report(benchmark, runs, capsys):
    def render():
        serial, parallel, warm = (runs["serial"], runs["parallel"],
                                  runs["warm"])
        speedup = serial.wall_seconds / parallel.wall_seconds
        return "\n".join([
            f"X-SWEEP: c6127 grid N={SCALES} x seeds {SEEDS} (P={VNODES})",
            parallel.table(),
            f"serial:   {serial.stats_line()}",
            f"parallel: {parallel.stats_line()}  ({speedup:.2f}x)",
            f"warm:     {warm.stats_line()}",
        ])

    text = benchmark.pedantic(render, rounds=1, iterations=1)
    with capsys.disabled():
        print("\n" + text)
