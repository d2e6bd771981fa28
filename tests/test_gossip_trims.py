"""The gossip stage's fast paths against the definitions they must match.

The steady-state SYN -> ACK -> ACK2 path skips work whose result is empty
or thrown away: a delta at or above a row's max app version is ``()``
without a scan, entry counts are summed at C speed, and ACK replies are
read from the columns by ``ColumnarStateMap.delta_blobs`` instead of one
``EndpointStateView`` per request.  Each test here pins one of those trims
to the slow form it replaced: ``EndpointStateView.delta_blob`` through
``ColumnarStateMap.get``, and ``blob_entry_count`` summed blob by blob.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cassandra.cluster import Cluster, ClusterConfig, Mode
from repro.cassandra.gossip import ACK, ACK2, SYN, Gossiper
from repro.cassandra.metrics import FlapCounter
from repro.cassandra.node import estimate_entries
from repro.cassandra.state import (
    LOAD,
    STATUS,
    TOKENS,
    GossipDigest,
    blob_entry_count,
)
from repro.cassandra.state_columnar import (
    ColumnarStateMap,
    EndpointStateView,
)
from repro.sim.rng import SplittableRng

OWNER = "self"
PEERS = ["p0", "p1", "p2", "p3", "p4"]
#: Names the generated stores may hold, plus two they never do.
NAMES = [OWNER, *PEERS, "stranger", "ghost"]

wires = st.builds(
    lambda items: tuple(sorted(items)),
    st.lists(st.tuples(st.sampled_from([LOAD, STATUS, TOKENS]),
                       st.just("v"), st.integers(0, 12), st.none()),
             max_size=3, unique_by=lambda item: item[0]))
blobs = st.tuples(st.integers(1, 3), st.integers(0, 12), wires)
#: Peer name -> blob for the peers the observer has learned about.
stores = st.dictionaries(st.sampled_from(PEERS), blobs, max_size=len(PEERS))
versions = st.integers(-1, 14)
requests = st.lists(st.tuples(st.sampled_from(NAMES), versions), max_size=10)


def _gossiper(known, sent=None):
    """An observer that knows ``known``, appending what it sends to ``sent``."""
    outbox = [] if sent is None else sent
    gossiper = Gossiper(
        node_id=OWNER, generation=2, seeds=[], rng=SplittableRng(1),
        send=lambda dst, kind, payload: outbox.append((kind, payload)),
        now=lambda: 1.0, flaps=FlapCounter())
    for __ in range(3):
        gossiper.own_state.heartbeat.beat(gossiper.versions)
    # Both are unknown to this observer: "stranger" is registered before
    # the peers (inside the columns once one is learned), "ghost" after
    # them (past the columns' end).
    gossiper._shared.gid("stranger")
    for name, blob in known.items():
        gossiper.populate(name, blob)
    gossiper._shared.gid("ghost")
    return gossiper


def _entry_sum(blob_map):
    return sum(blob_entry_count(blob) for blob in blob_map.values())


# -- delta_blobs -----------------------------------------------------------------


@given(known=stores, reqs=requests)
@settings(max_examples=200, deadline=None)
def test_delta_blobs_equals_a_view_per_request(known, reqs):
    state_map = _gossiper(known).endpoint_state_map
    expected = {name: state_map.get(name).delta_blob(newer_than)
                for name, newer_than in reqs if name in state_map}
    accesses = []
    state_map.track_accesses(accesses.append)
    assert list(state_map.delta_blobs(reqs).items()) == list(expected.items())
    assert accesses == ["r"] * len(reqs)


def test_delta_blobs_covers_every_branch():
    wire = ((LOAD, "v", 4, None), (STATUS, "v", 7, None))
    state_map = _gossiper({"p0": (1, 9, wire)}).endpoint_state_map
    reqs = [("stranger", 0), ("p0", 7), ("p0", 12), ("p0", 5), ("p0", -1)]
    assert state_map.delta_blobs(reqs[:1]) == {}
    assert state_map.delta_blobs(reqs[1:2]) == {"p0": (1, 9, ())}
    assert state_map.delta_blobs(reqs[2:3]) == {"p0": (1, 9, ())}
    assert state_map.delta_blobs(reqs[3:4]) == {"p0": (1, 9, wire[1:])}
    assert state_map.delta_blobs(reqs[4:]) == {"p0": (1, 9, wire)}
    # A name asked for twice keeps its first slot and its last answer,
    # as a dict built request by request does.
    reply = state_map.delta_blobs([("p0", 5), (OWNER, 0), ("p0", 0)])
    assert list(reply.items()) == [
        ("p0", (1, 9, wire)), (OWNER, state_map.get(OWNER).delta_blob(0))]


# -- entry counts ------------------------------------------------------------------


@given(send_states=stores, reqs=requests, reply=stores)
@settings(max_examples=100, deadline=None)
def test_estimate_entries_sums_blob_entry_count(send_states, reqs, reply):
    assert estimate_entries(ACK, (send_states, reqs)) == (
        _entry_sum(send_states) + len(reqs))
    assert estimate_entries(ACK2, reply) == _entry_sum(reply)
    assert estimate_entries(SYN, list(reqs)) == len(reqs)


def test_estimate_entries_of_empty_payloads():
    assert estimate_entries(ACK, ({}, [])) == 0
    assert estimate_entries(ACK2, {}) == 0
    assert estimate_entries(SYN, []) == 0


digests = st.lists(
    st.builds(GossipDigest, st.sampled_from(NAMES), st.integers(1, 3),
              versions),
    max_size=8, unique_by=lambda digest: digest.endpoint)


@given(known=stores, syn=digests)
@settings(max_examples=200, deadline=None)
def test_handle_syn_matches_the_views(known, syn):
    sent = []
    gossiper = _gossiper(known, sent)
    entries = gossiper.handle_message(SYN, syn, "peer")
    [(kind, (send_states, reqs))] = sent
    assert kind == ACK
    assert entries == len(syn) + _entry_sum(send_states)
    state_map = gossiper.endpoint_state_map
    expected_states, expected_reqs = {}, []
    for endpoint, generation, max_version in syn:
        local = state_map.get(endpoint)
        if local is None or generation > local.heartbeat.generation:
            expected_reqs.append((endpoint, 0))
        elif generation < local.heartbeat.generation:
            expected_states[endpoint] = local.to_blob()
        elif max_version > local.max_version():
            expected_reqs.append((endpoint, local.max_version()))
        elif max_version < local.max_version():
            expected_states[endpoint] = local.delta_blob(max_version)
    named = {digest.endpoint for digest in syn}
    for endpoint in state_map:
        if endpoint not in named:
            expected_states[endpoint] = state_map[endpoint].to_blob()
    assert list(send_states.items()) == list(expected_states.items())
    assert reqs == expected_reqs


def test_handle_syn_of_no_digests_sends_everything_it_knows():
    sent = []
    gossiper = _gossiper({"p0": (1, 2, ())}, sent)
    entries = gossiper.handle_message(SYN, [], "peer")
    [(kind, (send_states, reqs))] = sent
    assert (kind, reqs) == (ACK, [])
    assert list(send_states) == [OWNER, "p0"]
    assert entries == _entry_sum(send_states)


# -- the hot path builds no views ----------------------------------------------------


def test_steady_state_builds_no_views(monkeypatch):
    """An established cluster gossiping for five virtual seconds reads
    its ACK replies from the columns: neither a view nor its delta is
    built.  The counts were recorded when every ACK reply still went
    through ``get(...).delta_blob(...)``, so the trims dropped no work."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the gossip hot path built a view")

    replies = []
    delta_blobs = ColumnarStateMap.delta_blobs

    def counted(self, reqs):
        reply = delta_blobs(self, reqs)
        replies.append(len(reply))
        return reply

    monkeypatch.setattr(EndpointStateView, "delta_blob", forbidden)
    monkeypatch.setattr(ColumnarStateMap, "get", forbidden)
    monkeypatch.setattr(ColumnarStateMap, "delta_blobs", counted)
    cluster = Cluster(ClusterConfig.for_bug("c3831", nodes=32,
                                            mode=Mode.REAL, seed=42))
    cluster.build_established()
    cluster.run(until=5.0)
    gossipers = [node.gossiper for node in cluster.nodes.values()]
    assert sum(g.fd.stats.reports for g in gossipers) == 3594
    assert sum(g.states_applied for g in gossipers) == 3594
    assert sum(replies) > 0               # ACK2s were sent from the columns
