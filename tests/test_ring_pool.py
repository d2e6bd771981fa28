"""Ring token maps pooled by content (``repro.cassandra.ring.TokenTable``).

Every :class:`~repro.cassandra.ring.TokenMetadata` a cluster builds keeps
its two token maps in one per-cluster pool, shared copy-on-write by every
table with the same content.  The property here drives several tables over
one pool against a plain-dict reference; the count tests check the sharing
on real clusters.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cassandra import Cluster, ClusterConfig, CostConstants, Mode
from repro.cassandra.ring import TokenMetadata, new_table_pool
from repro.cassandra.workloads import ScenarioParams
from repro.core.scalecheck import ScaleCheck

ENDPOINTS = ["a", "b", "c"]


class Reference:
    """``TokenMetadata``'s membership semantics over private plain dicts."""

    def __init__(self):
        self.normal, self.boot, self.leaving = {}, {}, set()

    def apply(self, op, endpoint, tokens):
        if op == "normal":
            self.unboot(endpoint)
            self.leaving.discard(endpoint)
            self.normal.update(dict.fromkeys(tokens, endpoint))
        elif op == "boot":
            self.boot.update(dict.fromkeys(tokens, endpoint))
        elif op == "unboot":
            self.unboot(endpoint)
        elif op == "leave":
            self.leaving.add(endpoint)
        elif op == "unleave":
            self.leaving.discard(endpoint)
        elif op == "remove":
            self.normal = {t: e for t, e in self.normal.items()
                           if e != endpoint}
            self.unboot(endpoint)
            self.leaving.discard(endpoint)

    def unboot(self, endpoint):
        self.boot = {t: e for t, e in self.boot.items() if e != endpoint}


def apply_op(metadata, op, endpoint, tokens):
    {
        "normal": lambda: metadata.update_normal_tokens(endpoint, tokens),
        "boot": lambda: metadata.add_bootstrap_tokens(endpoint, tokens),
        "unboot": lambda: metadata.remove_bootstrap_tokens_for(endpoint),
        "leave": lambda: metadata.add_leaving_endpoint(endpoint),
        "unleave": lambda: metadata.remove_leaving_endpoint(endpoint),
        "remove": lambda: metadata.remove_endpoint(endpoint),
    }[op]()


def held_state(metadata):
    """What another table must not see change: both maps and both indexes,
    each with the object holding it, and the ring snapshot."""
    ring = metadata.ring()
    return [(id(obj), dict(obj)) for obj in (
        metadata.token_to_endpoint, metadata.bootstrap_tokens,
        metadata._normal_counts, metadata._boot_counts)] + [
        (list(ring.tokens), list(ring.endpoints))]


#: Tokens from 0..3 over three endpoints: tables reach equal contents (pool
#: hits, after which a write must copy) and move tokens between owners (the
#: per-token path) often.
pool_ops = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.sampled_from(["normal", "boot", "unboot", "leave", "unleave",
                         "remove"]),
        st.sampled_from(ENDPOINTS),
        st.lists(st.integers(0, 3), max_size=2),
    ),
    max_size=60,
)


@given(tables=st.integers(2, 5), ops=pool_ops)
@settings(max_examples=200, deadline=None)
def test_tables_sharing_a_pool_behave_as_private_tables(tables, ops):
    pool = new_table_pool()
    metadata = [TokenMetadata(pool) for __ in range(tables)]
    references = [Reference() for __ in range(tables)]
    for index, op, endpoint, tokens in ops:
        index %= tables
        others = [m for i, m in enumerate(metadata) if i != index]
        before = [held_state(m) for m in others]
        apply_op(metadata[index], op, endpoint, tokens)
        references[index].apply(op, endpoint, tokens)
        assert [held_state(m) for m in others] == before
        for table, reference in zip(metadata, references):
            assert table.token_to_endpoint == reference.normal
            assert table.bootstrap_tokens == reference.boot
            assert table.leaving_endpoints == reference.leaving
            assert table.content_hash == table.recomputed_content_hash()
            assert table._normal_counts == Counter(reference.normal.values())
            assert table._boot_counts == Counter(reference.boot.values())
            ring = table.ring()
            assert list(zip(ring.tokens, ring.endpoints)) == sorted(
                reference.normal.items())
    # One table object per distinct content, whatever the interleaving.
    for attr in ("token_to_endpoint", "bootstrap_tokens"):
        maps = [getattr(m, attr) for m in metadata if getattr(m, attr)]
        assert len({id(m) for m in maps}) == len(
            {frozenset(m.items()) for m in maps})


def test_an_established_cluster_holds_one_normal_table():
    cluster = Cluster(ClusterConfig.for_bug("c3831", nodes=64))
    cluster.build_established()
    nodes = list(cluster.nodes.values())
    table = nodes[0].metadata.token_to_endpoint
    assert len(table) == 64
    for node in nodes:
        assert node.metadata.token_to_endpoint is table
        assert node.metadata._normal_counts is nodes[0].metadata._normal_counts
        assert node.metadata.ring() is nodes[0].metadata.ring()


def test_a_scale_out_run_ends_with_one_table_per_content():
    """The ``scalecheck_c5456`` benchmark's real run: 24 established nodes,
    four joiners, 256 vnodes each."""
    check = ScaleCheck(
        "c5456", nodes=24, seed=42,
        params=ScenarioParams(warmup=5.0, observe=30.0, leaving_duration=7.5,
                              join_duration=7.5, join_stagger=0.75,
                              join_count=4),
        cost_constants=CostConstants(
            k0_c3831=9.437184e-07, k1_c3881=2.9084023668639055e-10,
            k2_vnode_fix=2.4236686390532546e-07, k3_bootstrap=3.584e-10,
            floor=0.0001, k_close_scan=0.03456, k_handoff_scan=2.88e-06,
            k_retry=0.002944))
    cluster = check.target.cluster(check.config(Mode.REAL))
    check.target.run(cluster, check.params)
    nodes = list(cluster.nodes.values())
    assert len(nodes) == 28
    for attr in ("token_to_endpoint", "bootstrap_tokens"):
        maps = [getattr(node.metadata, attr) for node in nodes]
        maps = [m for m in maps if m]
        assert len({id(m) for m in maps}) <= len(
            {frozenset(m.items()) for m in maps})
    assert len(nodes[0].metadata.token_to_endpoint) == 28 * 256
