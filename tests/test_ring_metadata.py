"""Tests for TokenMetadata: mutations, content hash, endpoint index, cloning."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cassandra import (
    Cluster,
    ClusterConfig,
    Mode,
    ScenarioParams,
    run_scale_out,
)
from repro.cassandra import ring
from repro.cassandra.legacy_calc import _is_fresh_bootstrap
from repro.cassandra.pending_ranges import compute_pending_ranges
from repro.cassandra.ring import TokenMetadata
from repro.cassandra.tokens import TOKEN_SPACE
from repro.core.memoization import MemoDB
from repro.core.pil import CALC_FUNC_ID


def build_metadata(normal=None, boot=None, leaving=None):
    metadata = TokenMetadata()
    for endpoint, tokens in (normal or {}).items():
        metadata.update_normal_tokens(endpoint, tokens)
    for endpoint, tokens in (boot or {}).items():
        metadata.add_bootstrap_tokens(endpoint, tokens)
    for endpoint in leaving or []:
        metadata.add_leaving_endpoint(endpoint)
    return metadata


def test_update_normal_tokens_and_queries():
    metadata = build_metadata(normal={"a": [10, 20], "b": [30]})
    assert metadata.normal_endpoints() == ["a", "b"]
    assert metadata.endpoint_tokens("a") == [10, 20]
    assert metadata.token_count() == 3
    assert not metadata.has_pending_changes()


def test_token_ownership_transfer():
    metadata = build_metadata(normal={"a": [10]})
    metadata.update_normal_tokens("b", [10])
    assert metadata.token_to_endpoint[10] == "b"
    assert metadata.endpoint_tokens("a") == []


def test_bootstrap_then_normal_clears_bootstrap_state():
    metadata = build_metadata(normal={"a": [10]})
    metadata.add_bootstrap_tokens("b", [20])
    assert metadata.has_pending_changes()
    assert metadata.bootstrapping_endpoints() == ["b"]
    metadata.update_normal_tokens("b", [20])
    assert not metadata.has_pending_changes()
    assert metadata.token_to_endpoint[20] == "b"


def test_leaving_then_removed():
    metadata = build_metadata(normal={"a": [10], "b": [20]})
    metadata.add_leaving_endpoint("b")
    assert metadata.has_pending_changes()
    metadata.remove_endpoint("b")
    assert not metadata.has_pending_changes()
    assert metadata.normal_endpoints() == ["a"]


def test_fresh_bootstrap_means_no_normal_owner_survives():
    metadata = build_metadata(normal={"a": [10]}, boot={"b": [20]})
    assert not metadata.is_fresh_bootstrap()
    metadata.add_leaving_endpoint("a")
    assert metadata.is_fresh_bootstrap()
    metadata.remove_bootstrap_tokens_for("b")
    assert not metadata.is_fresh_bootstrap()
    assert build_metadata(boot={"b": [20]}).is_fresh_bootstrap()


def test_future_ring_excludes_leaving_includes_boot():
    metadata = build_metadata(
        normal={"a": [10], "b": [20]},
        boot={"c": [30]},
        leaving=["b"],
    )
    future = metadata.future_ring()
    assert sorted(set(future.endpoints)) == ["a", "c"]


def test_clone_only_token_map_is_independent():
    metadata = build_metadata(normal={"a": [10]}, boot={"b": [20]},
                              leaving=["a"])
    clone = metadata.clone_only_token_map()
    assert clone.content_hash == metadata.content_hash
    clone.update_normal_tokens("c", [30])
    assert metadata.token_count() == 1
    assert metadata.node_count() == 2
    assert clone.content_hash != metadata.content_hash
    # Pending ranges are derived state: not cloned.
    assert clone.pending_ranges == {}


def test_bulk_loaded_tables_share_the_index_until_one_writes():
    template = build_metadata(normal={"a": [1], "b": [2]})
    first, second = TokenMetadata(), TokenMetadata()
    for table in (first, second):
        table.load_normal_ring(template)
    assert first._normal_counts is template._normal_counts
    first.remove_endpoint("a")
    template.update_normal_tokens("c", [3])
    assert first.normal_endpoints() == ["b"]
    assert second.normal_endpoints() == ["a", "b"]
    assert template.normal_endpoints() == ["a", "b", "c"]


def test_content_hash_tracks_membership_not_pending_ranges():
    metadata = build_metadata(normal={"a": [10]})
    before = metadata.content_hash
    metadata.set_pending_ranges({"a": []})
    assert metadata.content_hash == before


def test_content_hash_identical_for_identical_content():
    m1 = build_metadata(normal={"a": [10], "b": [20]}, leaving=["a"])
    m2 = TokenMetadata()
    # Build in a different order; hash is order-independent.
    m2.add_leaving_endpoint("a")
    m2.update_normal_tokens("b", [20])
    m2.update_normal_tokens("a", [10])
    # update_normal_tokens clears leaving state, so re-add.
    m2.add_leaving_endpoint("a")
    assert m1.content_hash == m2.content_hash


def test_idempotent_mutations_keep_hash_consistent():
    metadata = build_metadata(normal={"a": [10]})
    h = metadata.content_hash
    metadata.update_normal_tokens("a", [10])   # no-op
    metadata.add_leaving_endpoint("b")
    metadata.add_leaving_endpoint("b")         # no-op
    metadata.remove_leaving_endpoint("b")
    assert metadata.content_hash == h


def test_removing_an_endpoint_leaves_a_shared_calculation_output_alone():
    """Nodes with the same ring install the one output object their store
    holds, so one node learning LEFT must not edit the others' pending
    ranges or the output later requesters get."""
    outputs = MemoDB().outputs(CALC_FUNC_ID)
    tables = [build_metadata(normal={"a": [10], "b": [20]}, boot={"c": [30]})
              for _ in range(2)]
    for table in tables:
        if "ring" not in outputs:
            outputs["ring"] = compute_pending_ranges(tables[0], rf=1)
        table.set_pending_ranges(outputs["ring"])
    assert "c" in tables[1].pending_ranges
    tables[0].remove_endpoint("c")
    assert "c" not in tables[0].pending_ranges
    assert "c" in tables[1].pending_ranges
    assert "c" in outputs["ring"]


def test_each_token_set_is_hashed_once_per_process(monkeypatch):
    """Every node learns each joiner's BOOT and NORMAL token sets from
    gossip.  Hashing a set once per process keeps the cluster's ring-table
    bookkeeping at O(N*P) entry hashes, not O(N^2*P): one normal set per
    member plus a boot and a normal set per joiner, each P tokens."""
    calls = []
    entry_hash = ring._entry_hash
    monkeypatch.setattr(ring, "_entry_hash",
                        lambda *entry: calls.append(entry) or entry_hash(*entry))
    for nodes in (8, 16):
        ring._set_hash.cache_clear()
        calls.clear()
        joiners = nodes // 4
        config = ClusterConfig.for_bug("c5456", nodes=nodes, mode=Mode.REAL,
                                       seed=3)
        run_scale_out(Cluster(config), ScenarioParams(
            warmup=2.0, observe=6.0, join_count=joiners, join_stagger=0.5,
            join_duration=2.0))
        assert len(calls) == (nodes + 2 * joiners) * config.bug.vnodes, nodes


ENDPOINTS = ["a", "b", "c", "d"]


def _ops(tokens, kinds, min_tokens=1):
    token_lists = st.lists(tokens, min_size=min_tokens, max_size=4)
    return st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["normal", "boot"]),
                      st.sampled_from(ENDPOINTS), token_lists),
            st.tuples(st.sampled_from(kinds), st.sampled_from(ENDPOINTS),
                      st.just([])),
        ),
        min_size=0, max_size=30,
    )


ops_strategy = _ops(st.integers(0, TOKEN_SPACE - 1), ["leave", "remove"])
#: Tokens from 0..7: sets collide with owned tokens (the per-token path) as
#: often as they miss them (the memoized set hash).
colliding_ops_strategy = _ops(
    st.integers(0, 7),
    ["leave", "remove", "unleave", "unboot", "clone", "load"], min_tokens=0)


def apply_op(metadata, op, endpoint, tokens):
    """Apply one generated op; returns the table to carry on with."""
    if op == "normal":
        metadata.update_normal_tokens(endpoint, tokens)
    elif op == "boot":
        metadata.add_bootstrap_tokens(endpoint, tokens)
    elif op == "leave":
        metadata.add_leaving_endpoint(endpoint)
    elif op == "remove":
        metadata.remove_endpoint(endpoint)
    elif op == "unleave":
        metadata.remove_leaving_endpoint(endpoint)
    elif op == "unboot":
        metadata.remove_bootstrap_tokens_for(endpoint)
    elif op == "clone":
        return metadata.clone_only_token_map()
    elif op == "load" and not metadata.has_pending_changes():
        # A node that so far knows its own tokens learns the whole ring.
        table = TokenMetadata()
        table.update_normal_tokens(endpoint, metadata.endpoint_tokens(endpoint))
        table.load_normal_ring(metadata)
        return table
    return metadata


def assert_bookkeeping_consistent(metadata):
    """Hash and index against a brute-force recount over the token maps."""
    normal = metadata.token_to_endpoint
    boot = metadata.bootstrap_tokens
    assert metadata.content_hash == metadata.recomputed_content_hash()
    assert metadata._normal_counts == Counter(normal.values())
    assert metadata._boot_counts == Counter(boot.values())
    assert metadata.normal_endpoints() == sorted(set(normal.values()))
    assert metadata.bootstrapping_endpoints() == sorted(set(boot.values()))
    assert metadata.node_count() == len(set(normal.values())
                                        | set(boot.values()))
    assert metadata.is_fresh_bootstrap() == _is_fresh_bootstrap(metadata)
    for endpoint in ENDPOINTS:
        assert metadata.endpoint_tokens(endpoint) == sorted(
            t for t, e in normal.items() if e == endpoint)


@given(ops=ops_strategy)
@settings(max_examples=80)
def test_property_incremental_hash_equals_recomputed(ops):
    """The load-bearing invariant: the incrementally maintained content
    hash always equals a from-scratch recomputation, whatever the mutation
    sequence."""
    metadata = TokenMetadata()
    for op in ops:
        metadata = apply_op(metadata, *op)
        assert metadata.content_hash == metadata.recomputed_content_hash()


@given(ops=colliding_ops_strategy)
@settings(max_examples=150)
def test_property_bookkeeping_holds_on_colliding_tokens(ops):
    metadata = TokenMetadata()
    for op in ops:
        metadata = apply_op(metadata, *op)
        assert_bookkeeping_consistent(metadata)


@given(ops=ops_strategy)
@settings(max_examples=40)
def test_property_clone_equals_original(ops):
    metadata = TokenMetadata()
    for op in ops:
        metadata = apply_op(metadata, *op)
    clone = metadata.clone_only_token_map()
    assert clone.token_to_endpoint == metadata.token_to_endpoint
    assert clone.bootstrap_tokens == metadata.bootstrap_tokens
    assert clone.leaving_endpoints == metadata.leaving_endpoints
    assert clone.content_hash == metadata.content_hash
