"""Tests for the simulator-integrated PIL executors (memoize + replay)."""

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
from repro.cassandra.pending_ranges import CalculatorVariant, serialize_pending
from repro.cassandra.tokens import TokenRange
from repro.core.memoization import MemoDB, PilViolationError
from repro.core.pil import CALC_FUNC_ID, MemoizingExecutor, PilReplayExecutor
from repro.sim.kernel import Timeout

FAST = ScenarioParams(warmup=10.0, observe=40.0, leaving_duration=8.0)


def memoized_run(bug_id="c3831", nodes=8, seed=5, noise=0.0):
    db = MemoDB()
    config = ClusterConfig.for_bug(bug_id, nodes=nodes, mode=Mode.COLO,
                                   seed=seed)
    cluster = Cluster(config)
    cluster.executor = MemoizingExecutor(db, noise_sigma=noise)
    report = run_decommission(cluster, FAST)
    db.record_message_order(cluster.network.delivery_log)
    return db, report, cluster


def replay_run(db, bug_id="c3831", nodes=8, seed=5):
    config = ClusterConfig.for_bug(bug_id, nodes=nodes, mode=Mode.PIL,
                                   seed=seed)
    cluster = Cluster(config)
    executor = PilReplayExecutor(db, cluster.sim)
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


def test_memoize_serializes_each_output_once():
    """Converged nodes share one output object; it is serialized once, while
    every invocation is still put into the recording."""
    db = MemoDB()
    serialize = CountingSerialize()
    cluster = Cluster(ClusterConfig.for_bug("c3831", nodes=8, mode=Mode.COLO,
                                            seed=5))
    cluster.executor = MemoizingExecutor(db, noise_sigma=0.0,
                                         serialize=serialize)
    report = run_decommission(cluster, FAST)
    puts = len(report.calc_records)
    assert puts > len(cluster.output_cache)       # repeats were recorded
    assert serialize.calls == len(cluster.output_cache)
    assert db.total_samples() == puts


class _StubNode:
    """Just enough of a node to drive an executor outside a simulation."""

    node_id = "n0"
    cpu = None


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
    """Serializing once per output object keeps the PIL-safety check: a
    repeat key with a different output object is serialized afresh and
    compared against the first record."""
    first = {"n1": [TokenRange(1, 2)]}
    other = {"n1": [TokenRange(3, 4)]}
    db = MemoDB()
    serialize = CountingSerialize()
    executor = MemoizingExecutor(db, noise_sigma=0.0, serialize=serialize)
    record_one(executor, first)
    record_one(executor, first)
    assert (serialize.calls, db.conflicts) == (1, 0)
    record_one(executor, other)
    assert (serialize.calls, db.conflicts) == (2, 1)
    assert db.total_samples() == 3

    strict = MemoizingExecutor(MemoDB(strict=True), noise_sigma=0.0)
    record_one(strict, first)
    with pytest.raises(PilViolationError):
        record_one(strict, other)


def test_memoized_duration_without_noise_equals_demand():
    db, report, __ = memoized_run(noise=0.0)
    demands = {round(r.demand, 12) for r in report.calc_records}
    for record in db.records():
        assert round(record.duration, 12) in demands


def test_memoized_duration_noise_is_bounded_and_deterministic():
    db1, __, ___ = memoized_run(noise=0.05)
    db2, __, ___ = memoized_run(noise=0.05)
    for r1, r2 in zip(db1.records(), db2.records()):
        assert r1.duration == r2.duration   # same seed -> same noise
    db0, __, ___ = memoized_run(noise=0.0)
    for noisy, clean in zip(db1.records(), db0.records()):
        assert noisy.duration == pytest.approx(clean.duration, rel=0.3)


def test_replay_hits_and_substitutes_outputs():
    db, memo_report, __ = memoized_run()
    replay_report, executor = replay_run(db)
    stats = executor.stats()
    assert stats["hits"] > 0
    assert stats["hit_rate"] > 0.9
    assert stats["slept_seconds"] > 0
    # Replayed clusters still converge: victim removed everywhere.
    assert replay_report.bug == "c3831"


def test_replay_of_an_empty_recording_misses_every_calculation():
    db = MemoDB()  # empty: every lookup misses
    report, executor = replay_run(db)
    stats = executor.stats()
    assert stats["hits"] == 0
    assert stats["misses"] > 0
    assert len(report.calc_records) == stats["misses"]


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
