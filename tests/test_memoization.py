"""Tests for the memoization database."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.memoization import MemoDB, MemoRecord, PilViolationError


def test_put_and_get():
    db = MemoDB()
    db.put("f", "k1", {"out": 1}, duration=0.5, node_id="n0", time=2.0)
    record = db.get("f", "k1")
    assert record is not None
    assert record.output == {"out": 1}
    assert record.duration == 0.5
    assert db.get("f", "missing") is None


def test_first_output_wins_durations_fold_to_mean():
    db = MemoDB()
    db.put("f", "k", "first", duration=1.0)
    record = db.put("f", "k", "second", duration=3.0)
    assert record.output == "first"       # outputs identical by PIL rule
    assert record.samples == 2
    assert record.duration == pytest.approx(2.0)


def test_conflicting_output_is_counted_not_masked():
    db = MemoDB()
    db.put("f", "k", "first", duration=1.0)
    record = db.put("f", "k", "DIFFERENT", duration=3.0)
    assert record.output == "first"       # value behaviour unchanged...
    assert db.conflicts == 1              # ...but the violation is visible
    assert ("f", "k") in db.conflict_keys
    db.put("f", "k", "first", duration=2.0)  # agreeing repeat: no conflict
    assert db.conflicts == 1


def test_strict_mode_raises_on_pil_violation():
    db = MemoDB(strict=True)
    db.put("f", "k", {"ring": [1, 2]}, duration=1.0)
    db.put("f", "k", {"ring": [1, 2]}, duration=1.5)  # identical: fine
    with pytest.raises(PilViolationError, match="PIL-safety violation"):
        db.put("f", "k", {"ring": [9]}, duration=1.0)
    assert db.conflicts == 1


def test_conflict_keys_capped():
    db = MemoDB()
    for i in range(MemoDB.MAX_CONFLICT_KEYS + 10):
        db.put("f", f"k{i}", "a", duration=1.0)
        db.put("f", f"k{i}", "b", duration=1.0)
    assert db.conflicts == MemoDB.MAX_CONFLICT_KEYS + 10
    assert len(db.conflict_keys) == MemoDB.MAX_CONFLICT_KEYS


def test_len_and_contains():
    db = MemoDB()
    db.put("f", "a", 1, 0.1)
    db.put("f", "b", 2, 0.1)
    db.put("g", "a", 3, 0.1)
    assert len(db) == 3
    assert ("f", "a") in db
    assert ("f", "zzz") not in db
    assert db.func_ids() == ["f", "g"]


def test_duration_statistics():
    db = MemoDB()
    assert db.duration_range() == (0.0, 0.0)
    db.put("f", "a", 1, 0.5)
    db.put("f", "b", 2, 2.5)
    assert db.duration_range() == (0.5, 2.5)
    assert db.durations("f") == [0.5, 2.5]
    assert db.durations("g") == []


def test_hit_rate_tracking():
    db = MemoDB()
    db.put("f", "a", 1, 0.1)
    db.get("f", "a")
    db.get("f", "a")
    db.get("f", "b")
    assert db.lookups == 3
    assert db.hits == 2
    assert db.hit_rate() == pytest.approx(2 / 3)


def test_message_order_recording():
    db = MemoDB()
    db.record_message_order(iter(["k1", "k2"]))
    assert db.message_order == ["k1", "k2"]


def test_save_load_roundtrip(tmp_path):
    db = MemoDB()
    db.put("f", "a", {"x": [1, 2]}, 0.25, node_id="n1", time=3.5)
    db.put("f", "b", "str-output", 1.5)
    db.record_message_order(["m1", "m2"])
    db.meta["bug"] = "c3831"
    path = tmp_path / "memo.json"
    db.save(path)
    loaded = MemoDB.load(path)
    assert len(loaded) == 2
    assert loaded.get("f", "a").output == {"x": [1, 2]}
    assert loaded.get("f", "a").duration == 0.25
    assert loaded.message_order == ["m1", "m2"]
    assert loaded.meta["bug"] == "c3831"


def test_total_samples_counts_repeats():
    db = MemoDB()
    for __ in range(5):
        db.put("f", "a", 1, 0.1)
    db.put("f", "b", 2, 0.1)
    assert db.total_samples() == 6


@given(entries=st.lists(
    st.tuples(st.sampled_from(["f", "g"]),
              st.text(alphabet="abcdef", min_size=1, max_size=4),
              st.floats(min_value=0.0, max_value=10.0)),
    min_size=0, max_size=50))
@settings(max_examples=50)
def test_property_roundtrip_preserves_every_record(entries, tmp_path_factory):
    db = MemoDB()
    for func, key, duration in entries:
        db.put(func, key, {"d": duration}, duration)
    path = tmp_path_factory.mktemp("memo") / "db.json"
    db.save(path)
    loaded = MemoDB.load(path)
    assert len(loaded) == len(db)
    for record in db.records():
        restored = loaded.get(record.func_id, record.input_key)
        assert restored is not None
        assert restored.duration == pytest.approx(record.duration)
        assert restored.samples == record.samples
