"""ABLATION: the PIL design choices (DESIGN.md section 5).

* **Duration source** -- in-situ recorded durations (the paper's choice)
  vs a mispredicted static model: replaying with recorded durations tracks
  the real run; replaying against a 4x-wrong analytic prediction distorts
  flap counts.  "It is almost impossible to predict compute time with a
  prediction/static-analysis approach" (section 5).
* **Single-process redesign (SEDA)** -- per-process vs single-process
  deployment changes the max colocation factor dramatically (section 6).
"""

import dataclasses

import pytest

from repro.bench import calibrate
from repro.bench.runner import make_check
from repro.cassandra.metrics import accuracy_error
from repro.core.colocation import (
    ColocationAnalyzer,
    per_process_footprint,
    single_process_footprint,
)
from repro.core.memoization import MemoDB

BUG = "c3831"


@pytest.fixture(scope="module")
def pipeline():
    check = make_check(BUG, calibrate.figure3_scales()[-1])
    return check, check.check(), check.run_real()


def test_in_situ_durations_beat_static_misprediction(benchmark, pipeline):
    check, result, real = pipeline

    def ablate():
        # Static-prediction stand-in: empty DB forces the cost-model fallback,
        # and the replay cluster's cost model underestimates 4x.
        mispredicted = dataclasses.replace(
            check.cost_constants,
            k0_c3831=check.cost_constants.k0_c3831 / 4.0,
        )
        static_check = dataclasses.replace(check,
                                           cost_constants=mispredicted)
        return static_check.replay(MemoDB())

    static_replay = benchmark.pedantic(ablate, rounds=1, iterations=1)
    in_situ_error = accuracy_error(real, result.replay_report)
    static_error = accuracy_error(real, static_replay.report)
    assert in_situ_error < static_error
    # The 4x underestimate suppresses the symptom substantially.
    assert static_replay.report.flaps < real.flaps


def test_seda_redesign_multiplies_colocation_factor(benchmark):
    def measure():
        per_process = ColocationAnalyzer(
            pil=True, footprint=per_process_footprint())
        single = ColocationAnalyzer(
            pil=True, footprint=single_process_footprint())
        return (per_process.max_colocation_factor(),
                single.max_colocation_factor())

    per_proc_max, single_max = benchmark.pedantic(measure, rounds=1,
                                                  iterations=1)
    assert single_max > per_proc_max


def test_ablation_report(benchmark, pipeline, capsys):
    check, result, real = pipeline
    lines = [
        "ABLATION: PIL design choices "
        f"(bug {BUG}, N={check.nodes})",
        f"real flaps:               {real.flaps}",
        f"replay (in-situ, free):   {result.replay_report.flaps}",
        f"replay hit rate:          {result.replay.hit_rate:.0%}",
    ]
    text = benchmark.pedantic(lambda: "\n".join(lines), rounds=1,
                              iterations=1)
    with capsys.disabled():
        print("\n" + text)
