"""The bulk-loaded established cluster against the per-pair path.

``Cluster.build_established`` builds one
:class:`~repro.cassandra.state_columnar.EstablishedView` and bulk-loads it
into every hosted node.  It replaced a loop calling
``gossiper.populate(other, blob)`` for every observer x endpoint pair; that
loop is kept here as the reference, and the bulk load has to leave every
node exactly as it does.
"""

import pytest

from repro.cassandra.cluster import (
    Cluster,
    ClusterConfig,
    node_name,
    phantom_blob,
)
from repro.cassandra.failure_detector import PhiAccrualFailureDetector
from repro.cassandra.gossip import Gossiper
from repro.cassandra.ring import TokenMetadata
from repro.cassandra.state import STATUS, STATUS_LEAVING, STATUS_NORMAL, TOKENS
from repro.cassandra.state_columnar import EstablishedView, SharedClusterState
from repro.cassandra.workloads import ScenarioParams, run_scale_out
from repro.sim.kernel import Simulator


def _every_other(node_id: str) -> bool:
    return int(node_id.split("-")[1]) % 2 == 0


def _cluster(nodes: int, hosts=None, bug: str = "c3831") -> Cluster:
    config = ClusterConfig.for_bug(bug, nodes=nodes)
    return Cluster(config) if hosts is None else Cluster(config, hosts=hosts)


def _build_per_pair(cluster: Cluster) -> None:
    """``build_established`` as it was before the view: N^2 populates."""
    names = [node_name(i) for i in range(cluster.config.nodes)]
    local = [name for name in names if cluster.hosts(name)]
    for name in local:
        cluster.add_node(name)
    for name in local:
        cluster.nodes[name].establish_normal()
    vnodes = cluster.config.bug.vnodes
    blobs = {
        name: (cluster.nodes[name].gossiper.own_state.to_blob()
               if name in cluster.nodes else phantom_blob(name, vnodes))
        for name in names
    }
    for name in local:
        node = cluster.nodes[name]
        for other, blob in blobs.items():
            if other != name:
                node.gossiper.populate(other, blob)
        node._ring_dirty = False
    for name in local:
        cluster.start_node(cluster.nodes[name])


def _node_state(node) -> dict:
    gossiper = node.gossiper
    store = gossiper._store
    fd = gossiper.fd
    return {
        "generation": store.generation,
        "hb_version": store.hb_version,
        "update_ts": store.update_ts,
        "alive": store.alive,
        "app": store.app,
        "digest_cache": store.digest_cache,
        "present": store.present,
        "order_names": store.order_names,
        "order_gids": store.order_gids,
        # The detector's last arrivals are the store's timestamps.
        "fd_arrivals_are_update_ts": fd._arrivals is store.update_ts,
        "fd_interval_sum": fd._interval_sum,
        "fd_count": fd._count,
        "fd_head": fd._head,
        "fd_tail": fd._tail,
        "fd_pool": fd._pool,
        "fd_next": fd._next,
        "fd_free": fd._free,
        "fd_known": fd.known_endpoints(),
        "fd_reports": fd.stats.reports,
        "live": set(gossiper.live_endpoints),
        "unreachable": set(gossiper.unreachable_endpoints),
        "liveness": store.liveness,
        "liveness_sizes": store.liveness_sizes,
        "states_applied": gossiper.states_applied,
        "ring": list(node.metadata.token_to_endpoint.items()),
        "content_hash": node.metadata.content_hash,
        "ring_dirty": node._ring_dirty,
        "running": node.running,
    }


@pytest.mark.parametrize("hosts", [None, _every_other],
                         ids=["all-hosted", "phantoms"])
@pytest.mark.parametrize("nodes", [8, 33])
def test_bulk_load_equals_per_pair_population(nodes, hosts):
    bulk = _cluster(nodes, hosts)
    bulk.build_established()
    twin = _cluster(nodes, hosts)
    _build_per_pair(twin)

    assert bulk.shared_state.names == twin.shared_state.names
    assert bulk.shared_state.registry == twin.shared_state.registry
    assert (len(bulk.shared_state._app_table)
            == len(twin.shared_state._app_table))
    assert list(bulk.nodes) == list(twin.nodes)
    for name, node in bulk.nodes.items():
        expected = _node_state(twin.nodes[name])
        # Interned records are per-cluster objects: compare what they hold.
        for state in (got := _node_state(node)), expected:
            state["app"] = [record.items for record in state["app"]]
        assert got == expected, name
        assert node.metadata.content_hash == (
            node.metadata.recomputed_content_hash())


def test_bulk_load_equals_per_pair_population_with_vnodes():
    """256 tokens a member: the same ring table content in both.  Tables
    are shared by content, so insertion order is not compared (it reaches
    no output: test_token_table_insertion_order_reaches_no_output)."""
    bulk = _cluster(6, bug="c3881")
    bulk.build_established()
    twin = _cluster(6, bug="c3881")
    _build_per_pair(twin)
    for name, node in bulk.nodes.items():
        ring = node.metadata.token_to_endpoint
        assert len(ring) == 6 * 256
        assert ring == twin.nodes[name].metadata.token_to_endpoint
        assert node.metadata.content_hash == (
            twin.nodes[name].metadata.content_hash)


def _reverse_token_tables(cluster: Cluster) -> int:
    """Rebuild every distinct token map of ``cluster`` in reversed insertion
    order, in place; returns how many maps changed order."""
    seen, changed = set(), 0
    for node in cluster.nodes.values():
        metadata = node.metadata
        for table in (metadata.token_to_endpoint, metadata.bootstrap_tokens):
            if id(table) in seen:
                continue
            seen.add(id(table))
            items = list(table.items())
            table.clear()
            table.update(reversed(items))
            changed += len(items) > 1
    return changed


def test_token_table_insertion_order_reaches_no_output():
    """A map's insertion order is not part of its content: a scale-out run
    whose every token table starts reversed runs step for step like the
    original and reports the same bytes."""
    params = ScenarioParams(warmup=2.0, observe=6.0, join_duration=2.0,
                            join_stagger=0.5, join_count=2)
    runs, changed = [], []
    for reverse in (False, True):
        cluster = _cluster(6, bug="c3881")
        if reverse:
            def build(cluster=cluster):
                Cluster.build_established(cluster)
                changed.append(_reverse_token_tables(cluster))
            cluster.build_established = build
        report = run_scale_out(cluster, params)
        runs.append((cluster.sim.steps, report.digest()))
    assert changed and changed[0] >= 1
    assert runs[0] == runs[1]


def test_bulk_and_per_pair_clusters_run_identically():
    reports = []
    for build in (Cluster.build_established, _build_per_pair):
        cluster = _cluster(12, _every_other)
        build(cluster)
        cluster.run(until=4.0)
        reports.append((cluster.sim.steps, cluster.report().digest()))
    assert reports[0] == reports[1]


def test_build_established_does_counted_work_once(monkeypatch):
    nodes = 16
    calls = {"populate": 0, "report": 0, "intern_wire": 0,
             "update_normal_tokens": 0}

    def counted(owner, attr):
        original = vars(owner)[attr]

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    counted(Gossiper, "populate")
    counted(PhiAccrualFailureDetector, "report")
    counted(SharedClusterState, "intern_wire")
    counted(TokenMetadata, "update_normal_tokens")
    _cluster(nodes).build_established()
    assert calls["populate"] == 0
    assert calls["report"] == 0
    assert calls["intern_wire"] == nodes
    assert calls["update_normal_tokens"] <= 2 * nodes


def test_sanitizer_wrappers_survive_the_build():
    """Containers wrapped (or wrappable) at ``add_node`` time are filled in
    place: a rebound attribute would silently drop its tracked wrapper."""
    from repro.analysis import Program
    from repro.analysis.locks import walk_locks
    from repro.analysis.shared import harvest_shared_state
    from repro.sanitize import RaceTracker, TrackedMap, instrument_cluster

    program = Program.load(["repro.cassandra"])
    sites = harvest_shared_state(program, walk_locks(program)).shared()
    tracker = RaceTracker()
    cluster = Cluster(ClusterConfig.for_bug("c3831", nodes=8),
                      observer=tracker)
    instrument_cluster(cluster, sites, tracker)
    instrumented_add = cluster.add_node
    held = {}

    def remembering_add(node_id, generation=1):
        node = instrumented_add(node_id, generation)
        held[node_id] = (node.metadata.token_to_endpoint,
                         node.gossiper._store.update_ts,
                         node.gossiper._store.liveness)
        return node

    cluster.add_node = remembering_add
    cluster.build_established()
    assert len(held) == 8
    for name, node in cluster.nodes.items():
        ring, stamps, liveness = held[name]
        assert type(node.metadata.token_to_endpoint) is TrackedMap
        assert node.metadata.token_to_endpoint is ring
        assert len(ring) == 8
        assert node.gossiper._store.update_ts is stamps
        assert node.gossiper.fd._arrivals is stamps
        assert len(stamps) == 8
        assert node.gossiper._store.liveness is liveness
        assert len(liveness) == 8


def _normal_blob(*tokens: int) -> tuple:
    return (1, 0, ((STATUS, STATUS_NORMAL, 2, None),
                   (TOKENS, "", 1, tokens)))


def test_view_refuses_members_sharing_a_token():
    blobs = {"node-000": _normal_blob(10, 20), "node-001": _normal_blob(30, 20)}
    with pytest.raises(ValueError) as raised:
        EstablishedView(SharedClusterState(), blobs)
    for part in ("node-000", "node-001", "20"):
        assert part in str(raised.value)


def test_view_refuses_a_member_that_is_not_normal():
    leaving = (1, 0, ((STATUS, STATUS_LEAVING, 3, None),
                      (TOKENS, "", 1, (10,))))
    for blob in (leaving, (1, 0, ()), _normal_blob()):
        with pytest.raises(ValueError, match="node-000"):
            EstablishedView(SharedClusterState(), {"node-000": blob})


def test_view_refuses_a_registry_with_other_endpoints():
    shared = SharedClusterState()
    shared.gid("stranger")
    with pytest.raises(ValueError, match="registry"):
        EstablishedView(shared, {"node-000": phantom_blob("node-000", 1)})


def test_bulk_load_refuses_a_gossiper_that_knows_peers():
    cluster = _cluster(4)
    cluster.build_established()
    names = [node_name(i) for i in range(4)]
    view = EstablishedView(
        cluster.shared_state,
        {name: cluster.nodes[name].gossiper.own_state.to_blob()
         for name in names})
    with pytest.raises(ValueError, match="one row"):
        cluster.nodes["node-000"].gossiper.load_established(view)


def test_bulk_load_refuses_a_view_that_misstates_the_owner():
    cluster = _cluster(2)
    for name in ("node-000", "node-001"):
        cluster.add_node(name).establish_normal()
    view = EstablishedView(
        cluster.shared_state,
        {name: node.gossiper.own_state.to_blob()
         for name, node in cluster.nodes.items()})
    gossiper = cluster.nodes["node-000"].gossiper
    gossiper.own_state.heartbeat.beat(gossiper.versions)
    with pytest.raises(ValueError, match="node-000's own row"):
        gossiper.load_established(view)
    cluster.nodes["node-001"].gossiper.load_established(view)


def test_ring_bulk_load_refuses_foreign_tokens():
    ring = TokenMetadata()
    ring.update_normal_tokens("a", (1, 2))
    table = TokenMetadata()
    table.update_normal_tokens("b", (3,))
    with pytest.raises(ValueError):
        table.load_normal_ring(ring)
    leaving = TokenMetadata()
    leaving.add_leaving_endpoint("a")
    with pytest.raises(ValueError):
        leaving.load_normal_ring(ring)


class TestDigestTableGenerations:
    #: sha256 of the canonical report of the N=32 c3831 steady run to 120
    #: virtual seconds at seed 42, recorded from the append-only table.
    PARENT_DIGEST = (
        "d78541a38196ac9c44add74640238888b6cf1b6c28a3493e45b1eab1b9b96d68")

    def test_both_generations_stay_bounded_and_the_run_is_unchanged(self):
        nodes = 32
        cluster = _cluster(nodes)
        cluster.build_established()
        shared = cluster.shared_state
        bound = 16 * nodes + 1
        for until in (10.0, 40.0, 120.0):
            cluster.run(until=until)
            assert len(shared._digest_table) <= bound
            assert len(shared._digest_old) <= bound
        assert shared._digest_old                 # it did age out
        assert cluster.report().digest() == self.PARENT_DIGEST

    def test_a_miss_is_served_from_the_old_generation(self):
        shared = SharedClusterState()
        shared.gid("a")
        first = shared.intern_digest("a", 1, 0)
        for version in range(1, 17):
            shared.intern_digest("a", 1, version)
        assert ("a", 1, 0) not in shared._digest_table
        assert shared.intern_digest("a", 1, 0) is first
        assert ("a", 1, 0) in shared._digest_table


class TestBenchmarkCensusSeams:
    """``scalebench/round.py`` patches these two by ``vars(owner)[attr]``:
    moving either to a base class is a ``KeyError`` in every round."""

    def test_populate_is_defined_on_gossiper(self):
        assert "populate" in vars(Gossiper)

    def test_run_is_defined_on_simulator(self):
        assert "run" in vars(Simulator)

