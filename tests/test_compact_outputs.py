"""One compact copy of each pending-range output, from calculation to replay.

A calculation output is, per endpoint, its sorted ``(left, right]`` bounds
flattened into one ``array('q')``.  The check's output store, its records
and the replay hold that one object; the ``{endpoint: [[left, right], ...]}``
JSON form exists only on disk.  These tests pin the disk form to the bytes a
recording had before the compact form, count the objects a scale check
holds, and check the replica lookup that reads the bounds directly.
"""

import dataclasses
import hashlib
import json
import random
from array import array
from pathlib import Path

import pytest

from repro.cassandra import (
    Cluster,
    ClusterConfig,
    CostConstants,
    ScenarioParams,
)
from repro.cassandra import node as node_module
from repro.cassandra.pending_ranges import bounds_contain, serialize_pending
from repro.cassandra.tokens import TOKEN_SPACE, TokenRange, token_for_key
from repro.core import scalecheck, target
from repro.core.memoization import MemoDB
from repro.core.pil import CALC_FUNC_ID
from repro.core.scalecheck import ScaleCheck
from repro.sweep.executor import _execute_job
from repro.sweep.spec import SweepPoint

PIN = json.loads((Path(__file__).parent / "fixtures"
                  / "memo_c5456_pin.json").read_text())

#: The ``scalecheck_c5456`` benchmark's parameters and constants.
C5456_PARAMS = dict(warmup=5.0, observe=30.0, leaving_duration=7.5,
                    join_duration=7.5, join_stagger=0.75, join_count=4)


def pinned_check(nodes, params, constants):
    return ScaleCheck(PIN["bug"], nodes=nodes, seed=PIN["seed"],
                      params=ScenarioParams(**params),
                      cost_constants=CostConstants(**constants))


def test_a_recording_writes_the_pinned_bytes(tmp_path):
    """The saved file, its digest and the replay of the reloaded file are
    those a recording had when outputs were held in their JSON form."""
    check = pinned_check(PIN["nodes"], PIN["params"], PIN["cost_constants"])
    path = tmp_path / "memo.json"
    result = check.memoize()
    saved_digest = result.db.save(path)
    raw = path.read_bytes()
    assert (len(raw), hashlib.sha256(raw).hexdigest()) == (
        PIN["file_bytes"], PIN["file_sha256"])
    assert saved_digest == result.db.digest() == PIN["memo_digest"]
    loaded = MemoDB.load(path)
    assert len(loaded) == PIN["records"]
    assert loaded.digest() == PIN["memo_digest"]
    assert check.replay(loaded).report.digest() == PIN["replay_digest"]
    # Replaying converted the loaded records once; the content is unchanged.
    assert loaded.digest() == PIN["memo_digest"]


def test_a_memo_job_serializes_each_output_once(tmp_path, monkeypatch):
    """A sweep memo job writes the recording and reports its digest from
    one payload: each output is serialized once, and the file and digest
    are the pinned ones."""
    calls = []

    def serialize(output):
        calls.append(output)
        return serialize_pending(output)

    codec = (serialize, target.CASSANDRA.codec[1])
    monkeypatch.setattr(target, "CASSANDRA",
                        dataclasses.replace(target.CASSANDRA, codec=codec))
    path = tmp_path / "memo.json"
    point = SweepPoint(bug_id=PIN["bug"], nodes=PIN["nodes"],
                       seed=PIN["seed"], mode="colo")
    out = _execute_job({"kind": "memo", "point": point.to_dict(),
                        "params": PIN["params"],
                        "constants": PIN["cost_constants"],
                        "memo_path": str(path)})
    assert out["db_stats"]["distinct"] == PIN["records"]
    assert len(calls) == PIN["records"]
    raw = path.read_bytes()
    assert (len(raw), hashlib.sha256(raw).hexdigest()) == (
        PIN["file_bytes"], PIN["file_sha256"])
    assert out["memo_digest"] == PIN["memo_digest"]


def test_one_output_object_per_distinct_input(monkeypatch):
    """After the ``scalecheck_c5456`` flow (real, memoize, replay), the
    check's store, its records and the replay's LRU front hold one object
    per distinct input key, each endpoint's bounds a sorted ``array('q')``
    of pairs."""
    fronts = []
    original = scalecheck.PilReplayExecutor

    def capturing(*args, **kwargs):
        executor = original(*args, **kwargs)
        fronts.append(executor.lru)
        return executor

    monkeypatch.setattr(scalecheck, "PilReplayExecutor", capturing)
    check = pinned_check(24, C5456_PARAMS, PIN["cost_constants"])
    check.run_real()
    memo = check.memoize()
    replay = check.replay(memo.db)
    assert replay.hits > 0 and len(fronts) == 1

    cached = memo.db.outputs(CALC_FUNC_ID)
    records = {record.input_key: record.output
               for record in memo.db.records()}
    front = {key[1]: record.output
             for key, record in fronts[0]._cache.items()}
    assert records and front
    keys = set(cached) | set(records) | set(front)
    outputs = [*cached.values(), *records.values(), *front.values()]
    assert len({id(output) for output in outputs}) == len(keys)

    for output in outputs:
        for bounds in output.values():
            assert isinstance(bounds, array) and bounds.typecode == "q"
            assert len(bounds) % 2 == 0
            pairs = list(zip(bounds[::2], bounds[1::2]))
            assert pairs == sorted(pairs)


def test_a_replay_shares_the_check_output_cache(monkeypatch):
    """The replay is built like the check's other runs, so its one miss in
    the ``scalecheck_c5456`` flow is a ring the real or memoize run met:
    served from the check's store, where it is held unrecorded, not
    computed again."""
    check = pinned_check(24, C5456_PARAMS, PIN["cost_constants"])
    check.run_real()
    memo = check.memoize()
    outputs = memo.db.outputs(CALC_FUNC_ID)
    keys = set(outputs)
    calls = []
    compute = node_module.compute_pending_ranges
    monkeypatch.setattr(node_module, "compute_pending_ranges",
                        lambda *args: calls.append(args) or compute(*args))
    replay = check.replay(memo.db)
    assert (len(keys), replay.hits, replay.misses) == (21, 532, 1)
    assert set(outputs) == keys and calls == []
    assert len(memo.db) == 20               # the missed ring is not recorded


def ranges_of(bounds):
    return [TokenRange(left, right)
            for left, right in zip(bounds[::2], bounds[1::2])]


def disjoint_bounds(rng, count, wrap):
    """Sorted disjoint ``(left, right]`` bounds, the first range wrapping
    the origin when ``wrap`` (stored last, as a calculation sorts it)."""
    cuts = sorted(rng.sample(range(1, 9_990), 2 * count))
    pairs = [(cuts[i], cuts[i + 1]) for i in range(0, 2 * count, 2)]
    if wrap:
        first = cuts[0] if cuts else 9_990
        pairs.append((9_990 + rng.randrange(9), rng.randrange(0, first + 1)))
    return array("q", [bound for pair in pairs for bound in pair])


def test_bounds_lookup_matches_token_range_contains():
    rng = random.Random(7)
    for case in range(200):
        bounds = disjoint_bounds(rng, rng.randrange(0, 6), wrap=case % 2 == 0)
        ranges = ranges_of(bounds)
        edges = [t + d for r in ranges for t in (r.left, r.right)
                 for d in (-1, 0, 1)]
        for token in edges + [rng.randrange(0, 10_020) for __ in range(30)]:
            assert bounds_contain(bounds, token) == any(
                r.contains(token) for r in ranges), (list(bounds), token)
    # A single range whose ends meet covers the whole ring.
    whole = array("q", [5, 5])
    assert all(bounds_contain(whole, t) for t in (0, 4, 5, 6, TOKEN_SPACE - 1))


def test_replicas_for_reads_pending_bounds_directly():
    """``StorageService.replicas_for`` adds a pending endpoint exactly when
    one of its ranges contains the key's token, wrapping range included."""
    cluster = Cluster(ClusterConfig.for_bug("c3831-fixed", nodes=6, seed=3,
                                            enable_storage=True))
    cluster.build_established()
    node = next(iter(cluster.nodes.values()))
    quarter = TOKEN_SPACE // 4
    bounds = array("q", [quarter, 2 * quarter, 3 * quarter, quarter // 2])
    node.metadata.set_pending_ranges({"gainer": bounds})
    ranges = ranges_of(bounds)
    for i in range(300):
        key = f"probe-{i}"
        expected = any(r.contains(token_for_key(key)) for r in ranges)
        assert ("gainer" in node.storage.replicas_for(key)) == expected
