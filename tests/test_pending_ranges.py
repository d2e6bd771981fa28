"""Tests for pending-range calculation: correctness, differential oracles,
cost model, serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cassandra.legacy_calc import calculate_pending_ranges_legacy
from repro.cassandra.pending_ranges import (
    CalculatorVariant,
    CostConstants,
    calc_cost,
    compute_pending_ranges,
    deserialize_pending,
    pending_ranges_input_key,
    serialize_pending,
    token_ranges,
)
from repro.cassandra.ring import TokenMetadata
from repro.cassandra.tokens import TOKEN_SPACE, tokens_for_node


def metadata_with(normal, boot=None, leaving=None):
    metadata = TokenMetadata()
    for endpoint, tokens in normal.items():
        metadata.update_normal_tokens(endpoint, tokens)
    for endpoint, tokens in (boot or {}).items():
        metadata.add_bootstrap_tokens(endpoint, tokens)
    for endpoint in leaving or []:
        metadata.add_leaving_endpoint(endpoint)
    return metadata


def spaced_cluster(names, vnodes=1):
    """Evenly spaced deterministic cluster (stable test geometry)."""
    spacing = TOKEN_SPACE // (len(names) * vnodes)
    normal = {}
    token = 1
    for name in names:
        normal[name] = [token + i * spacing * len(names) for i in range(vnodes)]
        token += spacing
    return normal


def test_no_pending_changes_returns_empty():
    metadata = metadata_with(spaced_cluster(["a", "b", "c"]))
    assert compute_pending_ranges(metadata, rf=2) == {}


def test_invalid_rf_rejected():
    metadata = metadata_with(spaced_cluster(["a", "b"]))
    with pytest.raises(ValueError):
        compute_pending_ranges(metadata, rf=0)
    with pytest.raises(ValueError):
        calculate_pending_ranges_legacy(metadata, 0)


def test_joining_node_gains_pending_ranges():
    metadata = metadata_with(spaced_cluster(["a", "b", "c"]),
                             boot={"d": [TOKEN_SPACE // 2 + 7]})
    pending = compute_pending_ranges(metadata, rf=2)
    assert "d" in pending
    assert all(ranges for ranges in pending.values())


def test_leaving_node_gives_ranges_to_survivors():
    metadata = metadata_with(spaced_cluster(["a", "b", "c", "d"]),
                             leaving=["d"])
    pending = compute_pending_ranges(metadata, rf=2)
    assert "d" not in pending
    assert pending  # survivors gain d's responsibilities
    gainers = set(pending)
    assert gainers <= {"a", "b", "c"}


def test_fresh_bootstrap_all_ranges_pending():
    boot = {f"n{i}": [tok] for i, tok in
            enumerate(spaced_cluster(["x", "y", "z"]).values())}
    boot = {name: tokens for name, (tokens) in
            zip(boot, spaced_cluster(["x", "y", "z"]).values())}
    metadata = metadata_with({}, boot=boot)
    pending = compute_pending_ranges(metadata, rf=2)
    # Every bootstrapping endpoint gains something; nothing exists yet.
    assert set(pending) == set(boot)


def test_pending_ranges_are_sorted_lists():
    metadata = metadata_with(spaced_cluster(["a", "b", "c"]),
                             leaving=["c"])
    pending = token_ranges(compute_pending_ranges(metadata, rf=3))
    for ranges in pending.values():
        assert ranges == sorted(ranges)


# -- differential oracle: legacy naive == efficient ------------------------------------


def assert_equivalent(metadata, rf):
    expected = token_ranges(compute_pending_ranges(metadata, rf))
    actual = calculate_pending_ranges_legacy(metadata, rf)
    assert actual == expected


def test_legacy_matches_efficient_on_join():
    metadata = metadata_with(spaced_cluster(["a", "b", "c", "d"]),
                             boot={"e": [12345, 9876543]})
    assert_equivalent(metadata, rf=3)


def test_legacy_matches_efficient_on_decommission():
    metadata = metadata_with(spaced_cluster(["a", "b", "c", "d", "e"]),
                             leaving=["c"])
    assert_equivalent(metadata, rf=2)


def test_legacy_matches_efficient_on_fresh_bootstrap():
    names = [f"n{i}" for i in range(6)]
    boot = {name: tokens_for_node(name, 4) for name in names}
    metadata = metadata_with({}, boot=boot)
    assert_equivalent(metadata, rf=3)


def test_legacy_matches_efficient_with_vnodes():
    normal = {name: tokens_for_node(name, 8) for name in ("a", "b", "c")}
    metadata = metadata_with(normal, boot={"d": tokens_for_node("d", 8)},
                             leaving=["a"])
    assert_equivalent(metadata, rf=3)


cluster_strategy = st.integers(min_value=1, max_value=6)


@given(
    n_normal=st.integers(min_value=0, max_value=6),
    n_boot=st.integers(min_value=0, max_value=3),
    n_leaving=st.integers(min_value=0, max_value=2),
    vnodes=st.integers(min_value=1, max_value=4),
    rf=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_property_legacy_equals_efficient(n_normal, n_boot, n_leaving,
                                          vnodes, rf):
    """Differential property: on every reachable ring configuration the
    literal buggy-era structure and the efficient implementation agree --
    the output-equivalence that historically made the fixes possible and
    that PIL-safety relies on."""
    metadata = TokenMetadata()
    for i in range(n_normal):
        metadata.update_normal_tokens(f"n{i}", tokens_for_node(f"n{i}", vnodes))
    for i in range(n_boot):
        metadata.add_bootstrap_tokens(f"b{i}", tokens_for_node(f"b{i}", vnodes))
    for i in range(min(n_leaving, n_normal)):
        metadata.add_leaving_endpoint(f"n{i}")
    assert_equivalent(metadata, rf)


#: Tokens from a 32-value space: bootstrap tokens land on normal ones and an
#: endpoint's tokens sit next to each other, which hashed tokens never do.
tiny_tokens = st.lists(st.integers(min_value=0, max_value=31),
                       min_size=1, max_size=4)


@given(
    normal=st.dictionaries(st.sampled_from(["n0", "n1", "n2", "n3"]),
                           tiny_tokens, max_size=4),
    boot=st.dictionaries(st.sampled_from(["b0", "b1"]), tiny_tokens,
                         max_size=2),
    leaving=st.sets(st.sampled_from(["n0", "n1", "n2", "n3"]), max_size=2),
    wrap_owner_leaves=st.booleans(),
    rf=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=300, deadline=None)
def test_property_legacy_equals_efficient_on_colliding_tokens(
        normal, boot, leaving, wrap_owner_leaves, rf):
    """The same differential property on adversarial rings: colliding
    tokens, an empty current ring (``normal`` may be empty), the owner of
    the range that wraps the origin leaving, and ``rf`` above the number of
    distinct endpoints."""
    metadata = metadata_with(normal, boot, leaving)
    if wrap_owner_leaves and metadata.token_to_endpoint:
        lowest = min(metadata.token_to_endpoint)
        metadata.add_leaving_endpoint(metadata.token_to_endpoint[lowest])
    assert_equivalent(metadata, rf)


# -- cost model ----------------------------------------------------------------------------


def test_cost_grows_superlinearly_with_scale():
    c = CostConstants()
    cost_small = calc_cost(CalculatorVariant.V0_C3831, 32, 32, 1, c)
    cost_large = calc_cost(CalculatorVariant.V0_C3831, 256, 256, 1, c)
    assert cost_large > cost_small * 8 ** 2  # much worse than linear in 8x


def test_cost_scales_linearly_with_changes():
    c = CostConstants(floor=0.0)
    one = calc_cost(CalculatorVariant.V1_C3881, 64, 64, 1, c)
    five = calc_cost(CalculatorVariant.V1_C3881, 64, 64, 5, c)
    assert five == pytest.approx(5 * one)


def test_vnode_fix_beats_v1_at_vnode_scale():
    c = CostConstants()
    tokens = 128 * 256
    v1 = calc_cost(CalculatorVariant.V1_C3881, 128, tokens, 1, c)
    v2 = calc_cost(CalculatorVariant.V2_VNODE_FIX, 128, tokens, 1, c)
    assert v2 < v1 / 4
    # The gap widens with scale: the fix is asymptotically better.
    big = 512 * 256
    v1_big = calc_cost(CalculatorVariant.V1_C3881, 512, big, 1, c)
    v2_big = calc_cost(CalculatorVariant.V2_VNODE_FIX, 512, big, 1, c)
    assert v2_big / v1_big < v2 / v1


def test_paper_duration_band_at_paper_scales():
    """Section 3: offending durations range ~0.001 to 4 seconds."""
    c = CostConstants()
    worst = calc_cost(CalculatorVariant.V0_C3831, 256, 256, 1, c)
    mild = calc_cost(CalculatorVariant.V0_C3831, 64, 64, 1, c)
    assert 1.0 < worst < 6.0
    assert 0.001 < mild < 0.2


def test_cost_floor_applies():
    c = CostConstants()
    assert calc_cost(CalculatorVariant.V2_VNODE_FIX, 1, 1, 1, c) == c.floor


def test_unknown_scale_inputs_clamped():
    c = CostConstants()
    assert calc_cost(CalculatorVariant.V0_C3831, 0, 0, 0, c) == pytest.approx(
        calc_cost(CalculatorVariant.V0_C3831, 1, 1, 1, c))


# -- keys and serialization ---------------------------------------------------------------------


def test_input_key_depends_on_content_rf_and_variant():
    m1 = metadata_with(spaced_cluster(["a", "b"]), leaving=["a"])
    m2 = metadata_with(spaced_cluster(["a", "b"]), leaving=["a"])
    v = CalculatorVariant.V0_C3831
    assert (pending_ranges_input_key(m1, 3, v)
            == pending_ranges_input_key(m2, 3, v))
    assert (pending_ranges_input_key(m1, 2, v)
            != pending_ranges_input_key(m1, 3, v))
    assert (pending_ranges_input_key(m1, 3, CalculatorVariant.V1_C3881)
            != pending_ranges_input_key(m1, 3, v))


def test_serialize_roundtrip():
    """The disk form round-trips to equal compact bounds, and it is the
    ``[[left, right], ...]`` list of every range."""
    metadata = metadata_with(spaced_cluster(["a", "b", "c"]), leaving=["b"])
    pending = compute_pending_ranges(metadata, rf=2)
    assert pending  # meaningful payload
    data = serialize_pending(pending)
    assert data == {endpoint: [[rng.left, rng.right] for rng in ranges]
                    for endpoint, ranges in token_ranges(pending).items()}
    restored = deserialize_pending(data)
    assert restored == pending
    assert token_ranges(restored) == token_ranges(pending)


def test_serialize_empty():
    assert deserialize_pending(serialize_pending({})) == {}
