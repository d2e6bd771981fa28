"""Tests for pending-range calculation: correctness, differential oracles,
cost model, serialization."""

from functools import lru_cache

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
from repro.cassandra.tokens import TOKEN_SPACE, Ring, tokens_for_node


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


#: A 64-value token space: small enough that rings built from it wrap,
#: collide and repeat an endpoint, large enough for runs of several tokens.
WINDOW_SPACE = 64


@st.composite
def window_rings(draw):
    """Rings aimed at the windows the calculation walks back over: runs of
    one endpoint longer than ``rf``, a ring rotated so that runs (and the
    windows inside them) wrap the origin, joiners and leavers at once (a
    normal endpoint that is not leaving may bootstrap tokens too),
    bootstrap tokens taken from a leaving endpoint, and ``rf`` above the
    number of distinct future endpoints."""
    rf = draw(st.integers(min_value=1, max_value=5))
    runs = draw(st.lists(
        st.tuples(st.sampled_from(["n0", "n1", "n2", "n3"]),
                  st.integers(min_value=1, max_value=rf + 3)),
        max_size=8))
    token = draw(st.integers(min_value=0, max_value=WINDOW_SPACE - 1))
    owners = {}
    for endpoint, length in runs:
        for _ in range(length):
            owners[token % WINDOW_SPACE] = endpoint
            token += draw(st.integers(min_value=1, max_value=3))
    normal = {}
    for token, endpoint in owners.items():
        normal.setdefault(endpoint, []).append(token)
    leaving = draw(st.sets(st.sampled_from(sorted(normal) or ["n0"]),
                           max_size=2))
    left_behind = sorted(t for t, e in owners.items() if e in leaving)
    boot = {}
    joiners = ["b0", "b1"] + (["n0"] if "n0" in normal
                              and "n0" not in leaving else [])
    for joiner in draw(st.sets(st.sampled_from(joiners), max_size=2)):
        tokens = draw(st.lists(
            st.integers(min_value=0, max_value=WINDOW_SPACE - 1),
            max_size=4))
        if left_behind:
            tokens += draw(st.lists(st.sampled_from(left_behind),
                                    max_size=2))
        if tokens:
            boot[joiner] = tokens
    return metadata_with(normal, boot, leaving), rf


@given(window_rings())
@settings(max_examples=300, deadline=None)
def test_property_legacy_equals_efficient_on_window_edges(case):
    """The differential property where the windows have edges: a window
    that runs through a long same-endpoint run or wraps the origin, a
    change that is a join and a leave at once, a joiner taking over a
    leaving endpoint's token, and a future ring with fewer distinct
    endpoints than ``rf`` (the window is the whole ring).  The future ring
    derived by edits is the one its definition gives."""
    metadata, rf = case
    assert_equivalent(metadata, rf)
    expected = {token: endpoint
                for token, endpoint in metadata.token_to_endpoint.items()
                if endpoint not in metadata.leaving_endpoints}
    expected.update(metadata.bootstrap_tokens)
    future = metadata.future_ring()
    assert list(zip(future.tokens, future.endpoints)) == sorted(
        expected.items())


# -- work census: replica walks per calculation --------------------------------------------


@lru_cache(maxsize=None)
def vnode_ring(nodes, joiners, leavers):
    """``nodes`` normal nodes at 256 vnodes, ``joiners`` bootstrapping
    and the first ``leavers`` leaving."""
    metadata = TokenMetadata()
    for i in range(nodes):
        name = f"node-{i:03d}"
        metadata.update_normal_tokens(name, tokens_for_node(name, 256))
    for j in range(joiners):
        name = f"joiner-{j}"
        metadata.add_bootstrap_tokens(name, tokens_for_node(name, 256))
    for i in range(leavers):
        metadata.add_leaving_endpoint(f"node-{i:03d}")
    return metadata


def walks_per_calculation(monkeypatch, metadata, rf=3):
    """``Ring.replicas_from`` calls made by one calculation."""
    walks = []
    walk = Ring.replicas_from
    monkeypatch.setattr(Ring, "replicas_from", lambda ring, index, rf: (
        walks.append(index) or walk(ring, index, rf)))
    compute_pending_ranges(metadata, rf)
    monkeypatch.undo()
    return len(walks)


@pytest.mark.parametrize("nodes,joiners,leavers", [
    (64, 4, 0), (128, 4, 0), (256, 4, 0), (64, 0, 1), (64, 2, 1)])
def test_walks_are_bounded_by_the_changed_tokens(monkeypatch, nodes,
                                                  joiners, leavers):
    """A calculation walks only where a walk can meet a changed token: at
    most a few walks per changed token and replica, whatever the ring
    size (a walk per union boundary would be 11-43 times the bound)."""
    changed = 256 * (joiners + leavers)
    walks = walks_per_calculation(
        monkeypatch, vnode_ring(nodes, joiners, leavers))
    assert walks <= 3 * changed * 3


def test_walks_do_not_grow_with_the_ring(monkeypatch):
    """The same change on a ring four times larger costs about the same
    number of walks."""
    small = walks_per_calculation(monkeypatch, vnode_ring(64, 4, 0))
    large = walks_per_calculation(monkeypatch, vnode_ring(256, 4, 0))
    assert large <= 1.5 * small


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
