"""Tests for tokens, ranges, and ring placement (incl. property tests)."""

import copy
import operator
import pickle
from dataclasses import FrozenInstanceError, dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cassandra.tokens import (
    Ring,
    TOKEN_SPACE,
    TokenRange,
    ownership_fraction,
    stable_hash64,
    token_for_key,
    tokens_for_node,
)

tokens_strategy = st.lists(
    st.integers(min_value=0, max_value=TOKEN_SPACE - 1),
    min_size=1, max_size=40, unique=True,
)


def simple_ring(owners):
    """Ring with evenly spaced tokens owned round-robin by `owners`."""
    n = len(owners)
    spacing = TOKEN_SPACE // n
    return Ring((i * spacing + 10, owners[i % len(owners)]) for i in range(n))


def test_stable_hash_is_deterministic_and_in_range():
    assert stable_hash64("x") == stable_hash64("x")
    assert stable_hash64("x") != stable_hash64("y")
    assert 0 <= stable_hash64("anything") < TOKEN_SPACE


def test_token_for_key_differs_from_node_tokens():
    assert token_for_key("k") != stable_hash64("k")


def test_tokens_for_node_count_and_determinism():
    tokens = tokens_for_node("node-001", 256)
    assert len(tokens) == 256
    assert tokens == sorted(tokens)
    assert tokens == tokens_for_node("node-001", 256)
    assert tokens != tokens_for_node("node-002", 256)


def test_tokens_for_node_requires_positive_vnodes():
    with pytest.raises(ValueError):
        tokens_for_node("n", 0)


class TestTokenRange:
    def test_contains_non_wrapping(self):
        rng = TokenRange(10, 20)
        assert not rng.contains(10)     # left-exclusive
        assert rng.contains(11)
        assert rng.contains(20)         # right-inclusive
        assert not rng.contains(21)

    def test_contains_wrapping(self):
        rng = TokenRange(TOKEN_SPACE - 5, 5)
        assert rng.contains(TOKEN_SPACE - 1)
        assert rng.contains(0)
        assert rng.contains(5)
        assert not rng.contains(6)
        assert not rng.contains(TOKEN_SPACE - 5)

    def test_full_ring_range(self):
        rng = TokenRange(7, 7)
        assert rng.wraps
        for token in (0, 7, 8, TOKEN_SPACE - 1):
            assert rng.contains(token)

    def test_width(self):
        assert TokenRange(10, 25).width() == 15
        assert TokenRange(TOKEN_SPACE - 10, 10).width() == 20

    def test_unwrap_non_wrapping_is_identity(self):
        rng = TokenRange(1, 2)
        assert rng.unwrap() == [rng]

    def test_unwrap_wrapping_splits(self):
        rng = TokenRange(TOKEN_SPACE - 10, 10)
        parts = rng.unwrap()
        assert all(not p.wraps for p in parts)
        for token in (TOKEN_SPACE - 5, 5):
            assert any(p.contains(token) for p in parts)


@dataclass(frozen=True, order=True)
class DataclassRange:
    """``TokenRange`` as it was: the behaviour the slotted record keeps."""

    left: int
    right: int


range_pairs = st.tuples(st.integers(-2, 3), st.integers(-2, 3))


class TestTokenRangeRecord:
    """The slotted ``TokenRange`` against the frozen dataclass it replaced."""

    @given(a=range_pairs, b=range_pairs)
    @settings(max_examples=200)
    def test_compares_and_hashes_like_the_dataclass(self, a, b):
        ours, theirs = (TokenRange(*a), TokenRange(*b)), (
            DataclassRange(*a), DataclassRange(*b))
        for compare in (operator.eq, operator.ne, operator.lt, operator.le,
                        operator.gt, operator.ge):
            assert compare(*ours) == compare(*theirs)
        assert hash(ours[0]) == hash(theirs[0])
        assert repr(ours[0]) == repr(theirs[0]).replace(
            "DataclassRange", "TokenRange")
        assert [(r.left, r.right) for r in sorted(ours)] == [
            (r.left, r.right) for r in sorted(theirs)]

    def test_other_types_compare_like_the_dataclass(self):
        for value in ((1, 2), DataclassRange(1, 2), None):
            assert TokenRange(1, 2) != value
            with pytest.raises(TypeError):
                TokenRange(1, 2) < value  # noqa: B015
        assert {TokenRange(1, 2): "x"}[TokenRange(1, 2)] == "x"

    def test_is_frozen_and_has_no_instance_dict(self):
        rng = TokenRange(1, 2)
        assert not hasattr(rng, "__dict__")
        with pytest.raises(FrozenInstanceError):
            rng.left = 5
        with pytest.raises(FrozenInstanceError):
            del rng.right
        assert (rng.left, rng.right) == (1, 2)

    def test_pickle_and_copy_round_trips(self):
        output = {"a": [TokenRange(-1, 5), TokenRange(TOKEN_SPACE - 3, 2)],
                  "b": []}
        copies = [pickle.loads(pickle.dumps(output, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.deepcopy(output), copy.copy(output)]
        for other in copies:
            assert other == output
            assert all(type(rng) is TokenRange for rng in other["a"])
        rng = pickle.loads(pickle.dumps(TokenRange(3, 4)))
        assert rng.contains(4) and not rng.contains(3)


class TestRing:
    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError):
            Ring([(1, "a"), (1, "b")])

    def test_primary_endpoint_successor_semantics(self):
        ring = Ring([(100, "a"), (200, "b"), (300, "c")])
        assert ring.primary_endpoint(100) == "a"
        assert ring.primary_endpoint(101) == "b"
        assert ring.primary_endpoint(250) == "c"
        assert ring.primary_endpoint(301) == "a"  # wraps

    def test_natural_endpoints_distinct_walk(self):
        ring = Ring([(100, "a"), (200, "a"), (300, "b"), (400, "c")])
        endpoints = ring.natural_endpoints(150, rf=2)
        assert endpoints == ["a", "b"]

    def test_natural_endpoints_rf_exceeds_cluster(self):
        ring = Ring([(100, "a"), (200, "b")])
        assert ring.natural_endpoints(0, rf=5) == ["a", "b"]

    def test_empty_ring(self):
        ring = Ring([])
        assert ring.natural_endpoints(1, rf=3) == []
        assert ring.ranges() == []
        with pytest.raises(ValueError):
            ring.successor_index(1)

    def test_ranges_cover_whole_space(self):
        ring = simple_ring(["a", "b", "c", "d"])
        total = sum(rng.width() for rng in ring.ranges())
        assert total == TOKEN_SPACE

    def test_single_token_owns_everything(self):
        ring = Ring([(42, "solo")])
        ranges = ring.ranges()
        assert len(ranges) == 1
        assert ranges[0].width() == TOKEN_SPACE

    def test_ranges_for_endpoint_includes_replicas(self):
        ring = Ring([(100, "a"), (200, "b"), (300, "c")])
        # With rf=2, "b" replicates its own range and its predecessor's.
        ranges_b = ring.ranges_for_endpoint("b", rf=2)
        assert len(ranges_b) == 2

    def test_ownership_fraction_sums_to_one(self):
        ring = simple_ring(["a", "b", "c"])
        total = sum(ownership_fraction(ring, e) for e in ("a", "b", "c"))
        assert total == pytest.approx(1.0)


@given(tokens=tokens_strategy)
@settings(max_examples=60)
def test_property_every_token_maps_to_some_endpoint(tokens):
    ring = Ring((t, f"e{i % 5}") for i, t in enumerate(tokens))
    for probe in [0, 1, TOKEN_SPACE // 2, TOKEN_SPACE - 1] + tokens[:5]:
        endpoint = ring.primary_endpoint(probe)
        assert endpoint in set(ring.endpoints)


@given(tokens=tokens_strategy, rf=st.integers(min_value=1, max_value=5))
@settings(max_examples=60)
def test_property_natural_endpoints_distinct_and_bounded(tokens, rf):
    ring = Ring((t, f"e{i % 7}") for i, t in enumerate(tokens))
    endpoints = ring.natural_endpoints(tokens[0], rf)
    assert len(endpoints) == len(set(endpoints))
    assert len(endpoints) <= min(rf, len(ring.distinct_endpoints()))


@given(tokens=tokens_strategy)
@settings(max_examples=60)
def test_property_ranges_partition_token_space(tokens):
    """Primary ranges are disjoint and cover the whole space."""
    ring = Ring((t, "e") for t in tokens)
    ranges = ring.ranges()
    assert sum(r.width() for r in ranges) == TOKEN_SPACE
    # Each ring token is contained in exactly one range.
    for token in tokens:
        assert sum(1 for r in ranges if r.contains(token)) == 1


@given(left=st.integers(min_value=0, max_value=TOKEN_SPACE - 1),
       right=st.integers(min_value=0, max_value=TOKEN_SPACE - 1),
       probe=st.integers(min_value=0, max_value=TOKEN_SPACE - 1))
@settings(max_examples=100)
def test_property_unwrap_preserves_containment(left, right, probe):
    rng = TokenRange(left, right)
    parts = rng.unwrap()
    assert all(not p.wraps for p in parts)
    # Unwrapped parts agree with the original on membership (except the
    # synthetic -1 left sentinel, which only widens coverage at token 0).
    original = rng.contains(probe)
    unwrapped = any(p.contains(probe) for p in parts)
    assert unwrapped == original
