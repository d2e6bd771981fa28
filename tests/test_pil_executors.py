"""Tests for the simulator-integrated PIL executors (memoize + replay)."""

from types import SimpleNamespace

import pytest

from repro.cassandra import (
    Cluster,
    ClusterConfig,
    Mode,
    ScenarioParams,
    run_decommission,
    run_scale_out,
)
from repro.cassandra.node import CalcExecutor, CalcRequest
from repro.cassandra.pending_ranges import (
    CalculatorVariant,
    deserialize_pending,
    serialize_pending,
)
from repro.core.memoization import MemoDB
from repro.core.pil import (
    CALC_FUNC_ID,
    NOISE_SIGMA,
    MemoizingExecutor,
    PilReplayExecutor,
)
from repro.sim.kernel import Timeout
from repro.sim.rng import SplittableRng

FAST = ScenarioParams(warmup=10.0, observe=40.0, leaving_duration=8.0)


def memoized_run(bug_id="c3831", nodes=8, seed=5):
    db = MemoDB()
    config = ClusterConfig.for_bug(bug_id, nodes=nodes, mode=Mode.COLO,
                                   seed=seed)
    cluster = Cluster(config)
    cluster.executor = MemoizingExecutor(db)
    report = run_decommission(cluster, FAST)
    return db, report, cluster


def replay_run(db, bug_id="c3831", nodes=8, seed=5):
    config = ClusterConfig.for_bug(bug_id, nodes=nodes, mode=Mode.PIL,
                                   seed=seed)
    cluster = Cluster(config)
    executor = PilReplayExecutor(db)
    cluster.executor = executor
    report = run_decommission(cluster, FAST)
    return report, executor


def test_memoizing_executor_records_every_distinct_input():
    db, report, __ = memoized_run()
    assert len(report.calc_records) > 0
    assert len(db) >= 1
    assert db.func_ids() == [CALC_FUNC_ID]
    # Sample count equals total invocations across nodes.
    assert db.total_samples() == len(report.calc_records)


class CountingSerialize:
    """``serialize_pending`` that counts its calls."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, output):
        self.calls += 1
        return serialize_pending(output)


def test_memoize_serializes_each_output_once(tmp_path):
    """Converged nodes share one output object; the recording holds that
    object, nothing is serialized while recording, and a save serializes
    each record's output once, while every invocation is still put into the
    recording."""
    db = MemoDB()
    serialize = CountingSerialize()
    cluster = Cluster(ClusterConfig.for_bug("c3831", nodes=8, mode=Mode.COLO,
                                            seed=5))
    cluster.executor = MemoizingExecutor(
        db, codec=(serialize, deserialize_pending))
    cluster.outputs = outputs = db.outputs(CALC_FUNC_ID)
    report = run_decommission(cluster, FAST)
    puts = len(report.calc_records)
    assert puts > len(outputs)                    # repeats were recorded
    assert serialize.calls == 0
    assert len(db) == len(outputs)
    for record in db.records():
        assert record.output is outputs[record.input_key]
    db.save(tmp_path / "memo.json")
    assert serialize.calls == len(outputs)
    assert db.total_samples() == puts


class _StubNode:
    """Just enough of a node to drive an executor outside a simulation."""

    node_id = "n0"
    cpu = None
    sim = SimpleNamespace(rng=SplittableRng(0))


def record_one(executor, output):
    """Drive ``executor.execute`` for one calculation, always on the same
    ring, returning ``output``."""
    request = CalcRequest(node_id="n0", variant=CalculatorVariant.V0_C3831,
                          input_key="ring-a", demand=0.5, changes=1,
                          time=0.0, compute_output=lambda: output)
    steps = executor.execute(_StubNode(), request)
    next(steps)                                   # the Compute effect
    with pytest.raises(StopIteration):
        steps.send(0.5)


def test_a_conflicting_output_is_still_recorded():
    """Recording the output object keeps the PIL-safety check: a repeat key
    with a different output object is compared against the first record,
    and a save serializes the one record once."""
    first = deserialize_pending({"n1": [[1, 2]]})
    other = deserialize_pending({"n1": [[3, 4]]})
    db = MemoDB()
    serialize = CountingSerialize()
    executor = MemoizingExecutor(db, codec=(serialize, deserialize_pending))
    record_one(executor, first)
    record_one(executor, first)
    assert (serialize.calls, db.conflicts) == (0, 0)
    assert db.get(CALC_FUNC_ID, "ring-a").output is first
    record_one(executor, other)
    assert (serialize.calls, db.conflicts) == (0, 1)
    assert db.total_samples() == 3
    assert db.to_payload()["records"][0]["output"] == {"n1": [[1, 2]]}
    assert serialize.calls == 1


def folded_durations(report, noise=lambda: 0.0):
    """Each input key's duration as ``MemoDB.put`` folds it: the running
    mean of ``demand * (1 + noise())`` over the key's invocations, in the
    order the run made them."""
    folded = {}
    for calc in report.calc_records:
        duration = max(calc.demand * (1.0 + noise()), 0.0)
        if calc.input_key not in folded:
            folded[calc.input_key] = (duration, 1)
        else:
            mean, samples = folded[calc.input_key]
            folded[calc.input_key] = ((mean * samples + duration)
                                      / (samples + 1), samples + 1)
    return {key: mean for key, (mean, __) in folded.items()}


def seeded_noise(seed=5):
    """The ``memo-noise`` draws a run seeded ``seed`` makes, in order."""
    rng = SplittableRng(seed)
    return lambda: rng.gauss("memo-noise", 0.0, NOISE_SIGMA)


def test_memoized_duration_without_noise_equals_demand():
    """A recorded duration is the demand times the seeded noise draw, and
    nothing else: recomputing ``demand * (1 + g)`` from the same
    ``memo-noise`` stream gives every record's duration exactly."""
    db, report, __ = memoized_run()
    expected = folded_durations(report, seeded_noise())
    assert {record.input_key: record.duration
            for record in db.records()} == expected


def test_memoized_duration_noise_is_bounded_and_deterministic():
    db1, report, ___ = memoized_run()
    db2, __, ___ = memoized_run()
    for r1, r2 in zip(db1.records(), db2.records()):
        assert r1.duration == r2.duration   # same seed -> same noise
    clean = folded_durations(report)
    assert clean != folded_durations(report, seeded_noise())
    for noisy in db1.records():
        assert noisy.duration == pytest.approx(clean[noisy.input_key],
                                               rel=0.3)


def test_replay_hits_and_substitutes_outputs():
    db, memo_report, __ = memoized_run()
    replay_report, executor = replay_run(db)
    assert executor.hits > 0
    assert executor.hits / (executor.hits + executor.misses) > 0.9
    assert executor.pil_cpu.slept_seconds > 0
    # Replayed clusters still converge: victim removed everywhere.
    assert replay_report.bug == "c3831"


def test_replay_of_an_empty_recording_misses_every_calculation():
    db = MemoDB()  # empty: every lookup misses
    report, executor = replay_run(db)
    assert executor.hits == 0
    assert executor.misses > 0
    assert len(report.calc_records) == executor.misses


def test_replay_flaps_match_real_scale_at_small_n():
    """At a scale with no symptoms, all three modes agree on zero flaps."""
    db, memo_report, __ = memoized_run()
    replay_report, __e = replay_run(db)
    config = ClusterConfig.for_bug("c3831", nodes=8, mode=Mode.REAL, seed=5)
    real_report = run_decommission(Cluster(config), FAST)
    assert real_report.flaps == 0
    assert replay_report.flaps == 0
    assert memo_report.flaps == 0


def test_replay_is_deterministic():
    db, __, ___ = memoized_run()
    r1, __e1 = replay_run(db)
    r2, __e2 = replay_run(db)
    assert r1.flaps == r2.flaps
    assert r1.messages_sent == r2.messages_sent
    assert len(r1.calc_records) == len(r2.calc_records)


class _SlowExecutor(CalcExecutor):
    """Spends a few virtual seconds per calculation, resolving its output
    either before (correct) or after (stale) that wait."""

    def __init__(self, resolve_first: bool) -> None:
        self.resolve_first = resolve_first

    def execute(self, node, request):
        output = request.compute_output() if self.resolve_first else None
        yield Timeout(3.0)
        if not self.resolve_first:
            output = request.compute_output()
        return output, 3.0


def slow_scale_out(resolve_first: bool):
    # c5456-fixed clones the ring and releases its lock for the calculation,
    # so gossip keeps moving the ring while the executor waits.
    config = ClusterConfig.for_bug("c5456-fixed", nodes=6, mode=Mode.REAL,
                                   seed=5)
    cluster = Cluster(config)
    cluster.executor = _SlowExecutor(resolve_first)
    return run_scale_out(cluster, ScenarioParams(
        warmup=5.0, observe=20.0, join_count=3, join_stagger=1.0,
        join_duration=4.0))


def test_output_resolved_after_a_yield_is_refused():
    with pytest.raises(RuntimeError, match="after the ring moved"):
        slow_scale_out(resolve_first=False)


def test_output_resolved_before_the_first_yield_is_accepted():
    report = slow_scale_out(resolve_first=True)
    assert report.calc_records
