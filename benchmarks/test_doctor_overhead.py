"""X-DOCTOR -- the scale-doctor attributes chaos lateness; tracing is free.

Two acceptance properties of the ``repro.obs`` subsystem at deployment
scale (N=128, the Figure 3 x-axis, same affordability trick as X-CHAOS:
reduced vnodes + CI-mapped cost constants):

1. **Attribution**: on a c6127 chaos bootstrap the doctor's top-ranked
   bottleneck is the single-threaded gossip stage queue, and it accounts
   for >= 80% of the run's attributable event lateness -- the scale-doctor
   names the paper's actual scalability bottleneck, not a bystander.
2. **Zero-cost-when-disabled**: a run handed a *disabled* tracer takes
   < 5% longer wall-clock than a run with no tracer at all (a disabled
   tracer never attaches, so each kernel seam costs one ``is None``).

Deselect with ``-m "not obs"``; this module simulates ~7 cluster runs at
N=128.
"""

import dataclasses
import time

import pytest

from repro.bench.calibrate import ci_cost_constants
from repro.cassandra.bugs import get_bug
from repro.cassandra.cluster import MachineSpec, node_name
from repro.cassandra.workloads import ScenarioParams
from repro.core.scalecheck import ScaleCheck
from repro.faults import ChaosConfig, generate_schedule
from repro.obs import SpanTracer, diagnose

pytestmark = pytest.mark.obs

NODES = 128
VNODES = 32
SEED = 42
OVERHEAD_BUDGET = 0.05
TIMING_ROUNDS = 3

PARAMS = ScenarioParams(warmup=10.0, observe=55.0, bootstrap_stagger=5.0)

CHAOS = ChaosConfig(
    events=4,
    start=10.0,
    horizon=18.0,
    outage=(35.0, 42.0),
    permanent_crash_p=0.0,
    partition_duration=(35.0, 42.0),
)


class VnodeScaleCheck(ScaleCheck):
    """c6127 with a reduced vnode count so N=128 runs are affordable."""

    @property
    def bug(self):
        return dataclasses.replace(get_bug(self.bug_id), vnodes=VNODES)


def make_check() -> ScaleCheck:
    return VnodeScaleCheck(
        "c6127", NODES, seed=SEED, params=PARAMS,
        cost_constants=ci_cost_constants("c6127", ci_top=NODES, paper_top=32),
        machine=MachineSpec(cores=NODES))


def chaos_schedule():
    return generate_schedule(
        [node_name(i) for i in range(NODES)], seed=0, config=CHAOS)


@pytest.fixture(scope="module")
def diagnosis():
    """One traced chaos run at N=128, doctored."""
    check = make_check()
    tracer = SpanTracer()
    from repro.cassandra.cluster import Cluster, Mode
    from repro.cassandra.workloads import run_workload
    from repro.faults import install_faults

    cluster = Cluster(check.config(Mode.COLO), observer=tracer)
    install_faults(cluster, chaos_schedule())
    report = run_workload(cluster, check.bug.workload, check.params)
    return {
        "doctor": diagnose(cluster, tracer=tracer),
        "report": report,
        "tracer": tracer,
    }


def test_doctor_names_gossip_stage_as_top_bottleneck(benchmark, diagnosis):
    result = benchmark.pedantic(lambda: diagnosis, rounds=1, iterations=1)
    doctor = result["doctor"]
    top = doctor.top()
    assert top is not None
    assert top.stage == "gossip-stage-queue"
    assert doctor.share_of("gossip-stage-queue") >= 0.80
    assert doctor.total_lateness > 0


def test_trace_carries_span_evidence_at_scale(benchmark, diagnosis):
    result = benchmark.pedantic(lambda: diagnosis, rounds=1, iterations=1)
    tracer = result["tracer"]
    assert len(tracer) > 0
    top = result["doctor"].top()
    assert any(key.startswith("worst:inbox:") for key in top.evidence)


def test_stage_lateness_in_run_report_matches_doctor(benchmark, diagnosis):
    result = benchmark.pedantic(lambda: diagnosis, rounds=1, iterations=1)
    lateness = result["report"].stage_lateness
    doctor = result["doctor"]
    for bottleneck in doctor.bottlenecks:
        assert lateness[bottleneck.stage] == pytest.approx(bottleneck.lateness)


def test_disabled_tracing_overhead_under_budget(benchmark, capsys):
    """min-of-N wall clock: disabled-tracer run vs no-tracer run < +5%."""
    schedule = chaos_schedule()

    def timed(tracer_factory):
        best = float("inf")
        for __ in range(TIMING_ROUNDS):
            check = make_check()
            start = time.perf_counter()
            check.run_colo(faults=schedule, observer=tracer_factory())
            best = min(best, time.perf_counter() - start)
        return best

    def measure():
        # Interleave-free min-of-N on each arm; min filters scheduler noise.
        bare = timed(lambda: None)
        disabled = timed(lambda: SpanTracer(enabled=False))
        return bare, disabled

    bare, disabled = benchmark.pedantic(measure, rounds=1, iterations=1)
    overhead = disabled / bare - 1.0
    with capsys.disabled():
        print(f"\nX-DOCTOR overhead: bare={bare:.3f}s "
              f"disabled-tracer={disabled:.3f}s ({overhead:+.1%})")
    assert overhead < OVERHEAD_BUDGET
