"""Tests for PIL replay and the ScaleCheck pipeline orchestrator."""

import dataclasses
import gc
import weakref

import pytest

from repro.cassandra import Cluster, ScenarioParams
from repro.cassandra import node as node_module
from repro.cassandra.metrics import accuracy_error
from repro.cassandra.pending_ranges import serialize_pending
from repro.core.memoization import MemoDB
from repro.core.pil import CALC_FUNC_ID
from repro.core.scalecheck import ScaleCheck

FAST = ScenarioParams(warmup=10.0, observe=40.0, leaving_duration=8.0,
                      join_duration=8.0, join_stagger=1.0)


@pytest.fixture(scope="module")
def pipeline():
    check = ScaleCheck(bug_id="c3831", nodes=8, seed=5, params=FAST)
    result = check.check()
    return check, result


def test_memoize_produces_db_with_meta(pipeline):
    __, result = pipeline
    assert result.db.meta["bug"] == "c3831"
    assert result.db.meta["nodes"] == 8
    assert len(result.db) >= 1


def test_replay_has_high_hit_rate(pipeline):
    __, result = pipeline
    assert result.replay.hit_rate > 0.9
    assert result.replay.misses <= result.replay.hits


def test_reports_carry_modes(pipeline):
    __, result = pipeline
    assert result.memo_report.mode == "colo"
    assert result.replay_report.mode == "pil"


def test_compare_modes_returns_all_three(pipeline):
    check, __ = pipeline
    reports = check.compare_modes()
    assert set(reports) == {"real", "colo", "pil"}
    accuracy = ScaleCheck.accuracy(reports)
    assert 0.0 <= accuracy["pil_error"] <= 1.0
    assert 0.0 <= accuracy["colo_error"] <= 1.0


def test_find_offenders_runs_the_program_analysis(pipeline):
    check, __ = pipeline
    report = check.find_offenders()
    assert report.offenders()
    assert report.pil_candidates()


def test_scale_check_result_speedup_defined(pipeline):
    __, result = pipeline
    assert result.speedup() > 0


def counting(monkeypatch, owner, name):
    """Count calls to ``owner.name`` for the rest of the test."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_replay_hit_runs_no_calculation(pipeline, monkeypatch):
    """Step (f) replaces the function: a hit sleeps and substitutes the
    memoized output, so only misses run the calculation on the host."""
    check, result = pipeline
    calls = counting(monkeypatch, node_module, "compute_pending_ranges")
    replay = check.replay(result.db)
    assert replay.hits > 0
    assert len(calls) == replay.misses


def test_replay_miss_still_computes_the_output(pipeline, monkeypatch):
    """A miss computes the output on the host, once per ring the check has
    not met yet: a fresh check computes, the pipeline's check (whose runs
    met every ring) reuses what they computed."""
    check, __ = pipeline
    fresh = ScaleCheck(bug_id=check.bug_id, nodes=check.nodes,
                       seed=check.seed, params=check.params)
    calls = counting(monkeypatch, node_module, "compute_pending_ranges")
    replay = fresh.replay(MemoDB())    # empty: every lookup misses
    # One calculation per distinct ring; converged nodes share it.
    assert 0 < len(calls) <= replay.misses
    calls.clear()
    assert check.replay(MemoDB()).misses == replay.misses
    assert calls == []


def test_scalecheck_replay_of_its_own_recording_never_misses(pipeline):
    check, result = pipeline
    replay = check.replay(result.db)
    # Every input was memoized, so the replay never falls back to the cost
    # model.
    assert replay.misses == 0


#: A small c5456 scale-out: two joiners into an eight-node ring.
SCALE_OUT = ScenarioParams(warmup=5.0, observe=20.0, join_count=2,
                           join_stagger=1.0, join_duration=4.0)


def scale_out_check():
    return ScaleCheck(bug_id="c5456", nodes=8, seed=5, params=SCALE_OUT)


def input_keys(report):
    return {record.input_key for record in report.calc_records}


def test_one_check_computes_each_ring_once(monkeypatch):
    """The real and memoize runs of one check share each output: a ring the
    real run computed is not recomputed by the memoize run."""
    calls = counting(monkeypatch, node_module, "compute_pending_ranges")
    check = scale_out_check()
    real_keys = input_keys(check.run_real())
    memo = check.memoize()
    memo_keys = input_keys(memo.memo_report)
    # The disk form of each output, as the recording stores it now.
    recorded = {item["input_key"]: item["output"]
                for item in memo.db.to_payload()["records"]}
    assert real_keys & memo_keys, "the runs should meet on some ring"
    assert len(calls) == len(real_keys | memo_keys)

    # A fresh check shares nothing: its memoize run computes all its keys.
    calls.clear()
    assert input_keys(scale_out_check().memoize().memo_report) == memo_keys
    assert len(calls) == len(memo_keys)

    # Nothing mutated a shared output across runs: the recording holds the
    # very object the check's store holds for each ring, and that object
    # still serializes to what the recording stored for the ring.
    shared = {key: output
              for key, output in memo.db.outputs(CALC_FUNC_ID).items()
              if key in memo_keys}
    assert set(shared) == memo_keys
    for key, output in shared.items():
        assert memo.db.get(CALC_FUNC_ID, key).output is output
        assert serialize_pending(output) == recorded[key]


def test_memoize_returns_the_recording_not_a_replay():
    """A memoize run makes a recording and the colocated run's report and
    nothing that reads as a replay: no replay report, hit counts or
    speedup until :meth:`ScaleCheck.check` (or ``replay``) runs one."""
    recording = scale_out_check().memoize()
    for name in ("replay", "replay_report", "speedup"):
        assert not hasattr(recording, name), name
    assert [field.name for field in dataclasses.fields(recording)] == [
        "db", "memo_report"]
    assert recording.memo_report.mode == "colo" and len(recording.db) > 0


def test_a_recording_is_only_what_its_memoize_run_recorded(tmp_path,
                                                           monkeypatch):
    """Every run of a check resolves outputs through one store, but only a
    memoize run records: a second memoize records the same, a later real
    run or replay leaves the saved bytes alone, and an output the store
    holds unrecorded is a replay miss that computes nothing."""
    check = scale_out_check()
    first, second = check.memoize(), check.memoize()
    assert first.db.digest() == second.db.digest()
    store = second.db
    check.run_real()
    assert store.lookups == 0                     # only a replay looks up

    # A recording with one record dropped: replaying it misses that ring.
    key = min(record.input_key for record in store.records())
    payload = store.to_payload()
    payload["records"] = [item for item in payload["records"]
                          if item["input_key"] != key]
    partial = MemoDB.from_payload(payload)
    path = tmp_path / "partial.json"
    partial.save(path)
    saved = path.read_bytes()

    calls = counting(monkeypatch, node_module, "compute_pending_ranges")
    replay = scale_out_check().replay(partial)
    assert replay.misses > 0 and calls            # the miss computed it
    assert key in partial.outputs(CALC_FUNC_ID)
    assert (CALC_FUNC_ID, key) not in partial     # held, not recorded
    assert len(partial) == len(store) - 1
    assert partial.lookups == replay.hits + replay.misses
    assert partial.hits == replay.hits
    partial.save(path)
    assert path.read_bytes() == saved

    # The output is held now, unrecorded: still a miss, computed no more.
    calls.clear()
    again = scale_out_check().replay(partial)
    assert (again.hits, again.misses) == (replay.hits, replay.misses)
    assert again.report.digest() == replay.report.digest()
    assert calls == []
    partial.save(path)
    assert path.read_bytes() == saved


def test_a_check_holds_one_cluster_at_a_time(monkeypatch):
    """Each run's cluster is gone by the time the next run builds its own,
    without waiting for the automatic collector.  The cluster's simulator
    stands for it: its processes, nodes and network reference each other,
    so they outlive the ``Cluster`` object until a collection."""
    built = []
    alive_at_build = []
    original = Cluster.__init__

    def tracking(self, *args, **kwargs):
        alive_at_build.append([ref() is not None for ref in built])
        original(self, *args, **kwargs)
        built.append(weakref.ref(self.sim))

    monkeypatch.setattr(Cluster, "__init__", tracking)
    check = scale_out_check()
    gc.disable()
    try:
        check.run_real()
        check.check()        # memoize, then replay
    finally:
        gc.enable()
    assert alive_at_build == [[], [False], [False, False]]


def test_accuracy_error_helper():
    class R:
        def __init__(self, flaps):
            self.flaps = flaps

    assert accuracy_error(R(100), R(100)) == 0.0
    assert accuracy_error(R(100), R(50)) == pytest.approx(0.5)
    assert accuracy_error(R(0), R(0)) == 0.0
    assert accuracy_error(R(0), R(10)) == pytest.approx(1.0)
