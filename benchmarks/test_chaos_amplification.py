"""X-CHAOS -- chaos schedules amplify C6127 flaps; PIL stays accurate.

The paper's bugs are *triggered* by cluster events ("flapping, reboots,
... network partition", section 3).  This bench closes the loop with the
``repro.faults`` engine at a deployment scale the paper calls real
(N=128, the Figure 3 x-axis):

1. a fault-free baseline bootstrap is quiet;
2. the seeded chaos generator finds a schedule that amplifies the flap
   count to >= 2x the baseline;
3. the delta-debugging shrinker minimizes that schedule while the
   amplification predicate keeps holding;
4. the identical minimized schedule is enacted during the colo
   memoization run *and* the PIL-infused replay, and the replay's flap
   count lands within 10% of the non-PIL colocated run -- chaos does not
   break the processing illusion.

Affordability at N=128 on one host: the dominating cost is the *actual*
pending-range computation (O(N x vnodes) ring scans per calc), so this
bench runs c6127 with a reduced vnode count and cost constants mapped
onto a healthy small-scale point.  The guarded V3 bootstrap path still
executes; the point here is chaos amplification on a sub-saturated
cluster (at the paper calibration N=128 already saturates: every ordered
pair convicts, leaving no headroom to amplify).  Deselect this module
with ``-m "not chaos"``; it simulates ~20 cluster runs at N=128.
"""

import pytest

from repro.bench.calibrate import ci_cost_constants
from repro.cassandra.cluster import MachineSpec, node_name
from repro.cassandra.workloads import ScenarioParams
from repro.core.scalecheck import ScaleCheck
from repro.faults import ChaosConfig, FaultSchedule, generate_schedule, shrink

pytestmark = pytest.mark.chaos

NODES = 128
VNODES = 32
SEED = 42
TARGET_RATIO = 2.0
GENERATOR_SEEDS = 3
MAX_SHRINK_EVALS = 16

PARAMS = ScenarioParams(warmup=10.0, observe=55.0, bootstrap_stagger=5.0)

#: Faults land in [10, 18) so the phi-accrual conviction wave (~22-35 s of
#: silence per observer) falls inside the observation window; outages and
#: partitions last longer than the conviction latency, and every crash
#: gets a restart so the recovery path is exercised too.
CHAOS = ChaosConfig(
    events=4,
    start=10.0,
    horizon=18.0,
    outage=(35.0, 42.0),
    permanent_crash_p=0.0,
    partition_duration=(35.0, 42.0),
)


def make_chaos_check() -> ScaleCheck:
    return ScaleCheck(
        "c6127", NODES, seed=SEED, params=PARAMS, vnodes=VNODES,
        cost_constants=ci_cost_constants("c6127", ci_top=NODES, paper_top=32),
        machine=MachineSpec(cores=NODES))


@pytest.fixture(scope="module")
def hunt():
    """Baseline -> generate -> shrink -> colo-vs-PIL, all computed once."""
    check = make_chaos_check()
    population = [node_name(i) for i in range(NODES)]
    evaluations = {}

    def flaps_under(schedule: FaultSchedule) -> int:
        key = schedule.to_json()
        if key not in evaluations:
            evaluations[key] = check.run_real(faults=schedule).flaps
        return evaluations[key]

    baseline = check.run_real().flaps
    target = TARGET_RATIO * max(baseline, 1)

    found = None
    for generator_seed in range(GENERATOR_SEEDS):
        candidate = generate_schedule(population, generator_seed, CHAOS)
        if flaps_under(candidate) >= target:
            found = candidate
            break
    assert found is not None, (
        f"no schedule reached {target} flaps in {GENERATOR_SEEDS} seeds")

    shrunk = shrink(found, lambda s: flaps_under(s) >= target,
                    max_evals=MAX_SHRINK_EVALS)
    minimized = shrunk.schedule
    pipeline = check.check(faults=minimized)
    return {
        "baseline": baseline,
        "target": target,
        "found": found,
        "shrunk": shrunk,
        "minimized": minimized,
        "chaos_flaps": flaps_under(minimized),
        "colo": pipeline.memo_report,
        "pil": pipeline.replay_report,
        "replay": pipeline.replay,
    }


def test_chaos_amplifies_c6127_flaps(benchmark, hunt):
    result = benchmark.pedantic(lambda: hunt, rounds=1, iterations=1)
    assert result["chaos_flaps"] >= TARGET_RATIO * max(result["baseline"], 1)


def test_shrinker_minimizes_while_preserving_symptom(benchmark, hunt):
    result = benchmark.pedantic(lambda: hunt, rounds=1, iterations=1)
    shrunk = result["shrunk"]
    assert len(result["minimized"]) < len(result["found"])
    assert result["chaos_flaps"] >= result["target"]  # predicate preserved
    assert shrunk.evaluations <= MAX_SHRINK_EVALS


def test_pil_replay_accurate_under_faults(benchmark, hunt):
    """The same schedule enacted during memoization and PIL replay yields
    flap counts within 10% of each other -- injected chaos survives the
    sleep substitution."""
    result = benchmark.pedantic(lambda: hunt, rounds=1, iterations=1)
    colo, pil = result["colo"].flaps, result["pil"].flaps
    assert abs(colo - pil) / max(colo, pil, 1) <= 0.10


def test_minimized_schedule_round_trips(benchmark, hunt, tmp_path):
    result = benchmark.pedantic(lambda: hunt, rounds=1, iterations=1)
    path = tmp_path / "minimized.json"
    result["minimized"].save(path)
    assert FaultSchedule.load(path) == result["minimized"]


def test_chaos_report(benchmark, hunt, capsys):
    def render():
        colo, pil = hunt["colo"], hunt["pil"]
        lines = [
            f"X-CHAOS: c6127 fresh bootstrap at N={NODES} (P={VNODES})",
            f"baseline (no faults, real): {hunt['baseline']} flaps",
            f"generated schedule: {len(hunt['found'])} events -> "
            f"{hunt['chaos_flaps']} flaps "
            f"({hunt['chaos_flaps'] / max(hunt['baseline'], 1):.0f}x)",
            hunt["shrunk"].summary(),
            f"colo under schedule: {colo.flaps} flaps | PIL replay: "
            f"{pil.flaps} flaps | memo hit rate "
            f"{hunt['replay'].hit_rate:.0%}",
        ]
        lines += [f"  {event.describe()}"
                  for event in hunt["minimized"].sorted_events()]
        return "\n".join(lines)

    text = benchmark.pedantic(render, rounds=1, iterations=1)
    with capsys.disabled():
        print("\n" + text)
