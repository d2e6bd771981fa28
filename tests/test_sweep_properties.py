"""Property-based tests with hand-rolled generators over ``sim.rng``.

Instead of hypothesis, these drive the repo's own deterministic
:class:`~repro.sim.rng.SplittableRng`: every generated case is a pure
function of (suite seed, case index), so a failing case prints an index
that reproduces it exactly -- the same determinism discipline the
simulator itself lives by.

Covered properties:

* MemoDB JSON round-trips losslessly -- records (outputs, folded
  durations, sample counts), metadata, strict flag, and
  conflict diagnostics -- and the content digest survives the trip;
* strict-mode conflict behaviour matches non-strict counting;
* SweepSpec grid expansion is duplicate-free, stable, sized like the
  deduplicated axis product, and survives its own JSON round-trip.
"""

import json

import pytest

from repro.core.memoization import MemoDB
from repro.sim.rng import SplittableRng
from repro.sweep import SweepPoint, SweepSpec

SUITE_SEED = 20260807
CASES = 30


def case_rng(case):
    """The deterministic RNG for one generated case."""
    return SplittableRng(SUITE_SEED + case)


# -- generators ---------------------------------------------------------------


def gen_json_value(rng, tag):
    """A random JSON-serializable output value."""
    kind = rng.choice(f"{tag}.kind",
                      ["int", "float", "str", "list", "dict", "none"])
    if kind == "int":
        return rng.randint(f"{tag}.int", -1000, 1000)
    if kind == "float":
        return rng.uniform(f"{tag}.float", -10.0, 10.0)
    if kind == "str":
        length = rng.randint(f"{tag}.len", 0, 8)
        return "".join(rng.choice(f"{tag}.ch{i}", "abcxyz019 _")
                       for i in range(length))
    if kind == "list":
        return [rng.randint(f"{tag}.item{i}", 0, 99)
                for i in range(rng.randint(f"{tag}.n", 0, 4))]
    if kind == "dict":
        return {f"k{i}": rng.uniform(f"{tag}.v{i}", 0.0, 1.0)
                for i in range(rng.randint(f"{tag}.n", 0, 3))}
    return None


def gen_memo_db(rng, conflicts=False):
    """A random MemoDB: records, repeats, metadata."""
    db = MemoDB()
    for i in range(rng.randint("records", 0, 15)):
        func = rng.choice(f"func{i}", ["calc", "scan", "merge"])
        key = f"key{rng.randint(f'key{i}', 0, 6)}"
        output = gen_json_value(rng, f"out.{func}.{key}")
        existing = (func, key) in db
        if existing:
            # Repeats must agree with the recorded output (PIL rule)...
            output = db.get(func, key).output
            if conflicts and rng.random(f"conflict{i}") < 0.5:
                # ...unless this case deliberately violates it.
                output = ["CONFLICT", i]
        db.put(func, key, output,
               duration=rng.uniform(f"dur{i}", 1e-6, 2.0),
               node_id=f"node{rng.randint(f'node{i}', 0, 3)}",
               time=rng.uniform(f"time{i}", 0.0, 300.0))
    db.meta = {"bug": rng.choice("bug", ["c3831", "c6127"]),
               "nodes": rng.randint("nodes", 1, 256),
               "virtual_duration": rng.uniform("vd", 0.0, 500.0)}
    return db


def assert_dbs_equal(db, back):
    """Structural equality down to float-exact durations."""
    assert len(back) == len(db)
    for record in db.records():
        twin = back.get(record.func_id, record.input_key)
        assert twin is not None
        assert twin.output == record.output
        assert twin.duration == record.duration      # exact: JSON repr round-trip
        assert twin.samples == record.samples
        assert twin.node_id == record.node_id
        assert twin.time == record.time
    assert back.meta == db.meta
    assert back.conflicts == db.conflicts
    assert back.conflict_keys == db.conflict_keys


@pytest.mark.parametrize("case", range(CASES))
def test_memo_db_payload_round_trip(case):
    rng = case_rng(case)
    db = gen_memo_db(rng, conflicts=(case % 3 == 0))
    back = MemoDB.from_payload(db.to_payload())
    assert_dbs_equal(db, back)
    assert back.digest() == db.digest()


@pytest.mark.parametrize("case", range(0, CASES, 5))
def test_memo_db_file_round_trip(case, tmp_path):
    """The on-disk form (the sweep engine's persistent recording store)

    round-trips too, including through the JSON text itself."""
    rng = case_rng(case)
    db = gen_memo_db(rng, conflicts=(case % 2 == 0))
    path = tmp_path / "db.json"
    db.save(path)
    back = MemoDB.load(path)
    assert_dbs_equal(db, back)
    assert back.digest() == db.digest()
    # A second save of the reloaded DB is byte-identical: digest-keyed
    # caches never see two byte-forms of one logical recording.
    again = tmp_path / "again.json"
    back.save(again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("case", range(10))
def test_strict_mode_conflicts_round_trip(case):
    """A conflict is counted, and the count and key survive
    serialization."""
    rng = case_rng(1000 + case)
    func = rng.choice("f", ["calc", "scan"])
    key = f"k{rng.randint('k', 0, 3)}"
    first = gen_json_value(rng, "first")
    second = ["DIFFERENT", case]

    loose = MemoDB()
    loose.put(func, key, first, duration=1.0)
    loose.put(func, key, second, duration=2.0)
    assert loose.conflicts == 1
    back = MemoDB.from_payload(loose.to_payload())
    assert back.conflicts == 1 and back.conflict_keys == [(func, key)]


# -- SweepSpec grid properties ------------------------------------------------


def gen_spec(rng):
    """A random spec; axes may contain duplicates on purpose."""
    def axis(tag, pool, max_len):
        return [rng.choice(f"{tag}{i}", pool)
                for i in range(rng.randint(tag, 1, max_len))]

    return SweepSpec(
        bugs=axis("bugs", ["c3831", "c3881", "c5456", "c6127"], 3),
        scales=axis("scales", [8, 16, 32, 64, 128], 4),
        seeds=axis("seeds", [1, 2, 3, 42], 3),
        modes=axis("modes", ["real", "colo", "pil"], 3),
        chaos_seeds=axis("chaos", [None, 0, 7], 2),
        chaos_events=rng.randint("events", 1, 16),
        vnodes=rng.choice("vnodes", [None, 16, 32]),
        name="case-spec",
    )


def dedup(values):
    return list(dict.fromkeys(values))


@pytest.mark.parametrize("case", range(CASES))
def test_spec_expansion_no_duplicates_and_stable(case):
    rng = case_rng(2000 + case)
    spec = gen_spec(rng)
    points = spec.expand()
    assert len(points) == len(set(points)), "expansion produced duplicates"
    assert points == spec.expand(), "expansion order is not stable"
    # Size is the product of the *deduplicated* axes.
    expected = (len(dedup(spec.bugs)) * len(dedup(spec.scales))
                * len(dedup(spec.seeds)) * len(dedup(spec.chaos_seeds))
                * len(dedup(spec.modes)))
    assert len(points) == expected == len(spec)
    # Declared axis order: bugs outermost, modes innermost.
    labels = [(p.bug_id, p.nodes, p.seed) for p in points]
    assert labels == sorted(
        labels, key=lambda t: (dedup(spec.bugs).index(t[0]),
                               dedup(spec.scales).index(t[1]),
                               dedup(spec.seeds).index(t[2])))


@pytest.mark.parametrize("case", range(CASES))
def test_spec_json_round_trip(case):
    rng = case_rng(3000 + case)
    spec = gen_spec(rng)
    back = SweepSpec.from_json(spec.to_json())
    assert back == spec
    assert back.expand() == spec.expand()


@pytest.mark.parametrize("case", range(CASES))
def test_point_dict_round_trip(case):
    rng = case_rng(4000 + case)
    spec = gen_spec(rng)
    for point in spec.expand():
        back = SweepPoint.from_dict(point.to_dict())
        assert back == point
        # to_dict is JSON-stable: the cache key input never drifts.
        assert (json.dumps(point.to_dict(), sort_keys=True)
                == json.dumps(back.to_dict(), sort_keys=True))


def test_spec_rejects_empty_axes():
    with pytest.raises(ValueError):
        SweepSpec(bugs=[], scales=[8]).expand()
    with pytest.raises(ValueError):
        SweepSpec(bugs=["c3831"], scales=[8], modes=[]).expand()


def test_point_rejects_bad_values():
    with pytest.raises(ValueError):
        SweepPoint(bug_id="c3831", nodes=0)
    with pytest.raises(ValueError):
        SweepPoint(bug_id="c3831", nodes=8, mode="warp")
