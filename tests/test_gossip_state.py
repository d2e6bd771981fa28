"""Tests for gossip endpoint-state wire formats, views and digests."""

import pytest

from repro.cassandra.gossip import Gossiper
from repro.cassandra.metrics import FlapCounter
from repro.cassandra.state import (
    GossipDigest,
    STATUS,
    STATUS_NORMAL,
    TOKENS,
    VersionGenerator,
    VersionedValue,
    blob_entry_count,
)
from repro.cassandra.state_columnar import SharedClusterState
from repro.sim.rng import SplittableRng


def make_gossiper(node_id="self", generation=1, beats=0, shared=None):
    gossiper = Gossiper(
        node_id=node_id, generation=generation, seeds=[],
        rng=SplittableRng(1), send=lambda dst, kind, payload: None,
        now=lambda: 0.0, flaps=FlapCounter(), shared=shared)
    for __ in range(beats):
        gossiper.own_state.heartbeat.beat(gossiper.versions)
    return gossiper


def make_state(generation=1, beats=0):
    """A gossiper's own-state view plus the gossiper that publishes to it."""
    gossiper = make_gossiper(generation=generation, beats=beats)
    return gossiper.own_state, gossiper


def test_version_generator_monotonic():
    versions = VersionGenerator()
    values = [versions.next() for __ in range(10)]
    assert values == sorted(values)
    assert len(set(values)) == 10


def test_beat_advances_version():
    state, gossiper = make_state()
    assert state.heartbeat.version == 0
    state.heartbeat.beat(gossiper.versions)
    first = state.heartbeat.version
    state.heartbeat.beat(gossiper.versions)
    assert state.heartbeat.version > first


def test_max_version_covers_heartbeat_and_app_states():
    state, gossiper = make_state(beats=1)
    hb_version = state.heartbeat.version
    for __ in range(4):
        gossiper.versions.next()
    gossiper.set_app_state(STATUS, STATUS_NORMAL)
    assert state.app_states[STATUS].version == hb_version + 5
    assert state.max_version() == hb_version + 5


def test_status_and_tokens_accessors():
    state, gossiper = make_state()
    assert state.status() is None
    assert state.tokens() is None
    gossiper.set_app_state(STATUS, STATUS_NORMAL)
    gossiper.set_app_state(TOKENS, "", payload=(10, 20))
    assert state.status() == STATUS_NORMAL
    assert state.tokens() == (10, 20)


def test_blob_roundtrip():
    blob = (3, 2, ((STATUS, STATUS_NORMAL, 7, None),
                   (TOKENS, "", 8, (1, 2, 3))))
    clock = [42.0]
    observer = make_gossiper()
    observer._now = lambda: clock[0]
    observer._apply_state("peer", blob)
    restored = observer.endpoint_state_map["peer"]
    assert restored.to_blob() == blob
    assert restored.heartbeat.generation == 3
    assert restored.heartbeat.version == 2
    assert restored.status() == STATUS_NORMAL
    assert restored.tokens() == (1, 2, 3)
    assert restored.update_timestamp == 42.0


def test_delta_blob_filters_by_version():
    observer = make_gossiper()
    observer._apply_state("peer", (1, 1, (("A", "old", 2, None),
                                          ("B", "new", 9, None))))
    state = observer.endpoint_state_map["peer"]
    full = state.delta_blob(0)
    delta = state.delta_blob(5)
    assert len(full[2]) == 2
    assert len(delta[2]) == 1
    assert delta[2][0][0] == "B"
    # Heartbeat always rides along.
    assert delta[1] == state.heartbeat.version


def test_blob_entry_count():
    state, gossiper = make_state(beats=1)
    gossiper.set_app_state(STATUS, STATUS_NORMAL)
    assert blob_entry_count(state.to_blob()) == 2  # heartbeat + STATUS


def test_make_digests_sorted_and_complete():
    shared = SharedClusterState()
    zeta = make_gossiper("zeta", generation=1, beats=3, shared=shared)
    alpha = make_gossiper("alpha", generation=2, beats=1, shared=shared)
    zeta.populate("alpha", alpha.own_state.to_blob())
    digests = zeta._build_digests()
    assert [d.endpoint for d in digests] == ["alpha", "zeta"]
    assert digests[0] == GossipDigest("alpha", 2, alpha.own_state.max_version())
    assert digests[1] == GossipDigest("zeta", 1, zeta.own_state.max_version())
    assert digests[1] == zeta.own_state.digest("zeta")
    # A beat invalidates only the beating row's memoized digest.
    zeta.own_state.heartbeat.beat(zeta.versions)
    again = zeta._build_digests()
    assert again[0] is digests[0]
    assert again[1].max_version == zeta.own_state.heartbeat.version


def test_versioned_value_is_immutable():
    value = VersionedValue("x", 1)
    with pytest.raises(Exception):
        value.value = "y"


# -- the read surface ---------------------------------------------------------


def test_writing_through_a_view_raises():
    """App states change only through the gossiper, which re-interns."""
    state, gossiper = make_state()
    gossiper.set_app_state(STATUS, STATUS_NORMAL)
    with pytest.raises(TypeError):
        state.app_states[STATUS] = VersionedValue("LEFT", 99)
    with pytest.raises(TypeError):
        del state.app_states[STATUS]
    with pytest.raises(TypeError):
        gossiper.endpoint_state_map["other"] = state
    assert state.status() == STATUS_NORMAL


def test_state_map_reads_follow_discovery_order():
    observer = make_gossiper("m")
    for name in ("z", "a", "k"):
        observer.populate(name, (1, 0, ()))
    esm = observer.endpoint_state_map
    assert list(esm) == ["m", "z", "a", "k"]
    assert len(esm) == 4
    assert "a" in esm and "ghost" not in esm
    assert esm.get("ghost") is None
    with pytest.raises(KeyError):
        esm["ghost"]
    # A name another observer registered is still unknown to this one.
    observer._shared.gid("registered-elsewhere")
    assert "registered-elsewhere" not in esm
    assert observer.known_endpoints() == ["a", "k", "m", "z"]


def test_view_writes_reach_the_columns():
    observer = make_gossiper("m")
    observer.populate("p", (1, 4, ()))
    view = observer.endpoint_state_map["p"]
    before = view.digest("p")
    view.heartbeat.version = 9
    view.alive = False
    view.update_timestamp = 3.5
    fresh = observer.endpoint_state_map["p"]
    assert (fresh.heartbeat.version, fresh.alive, fresh.update_timestamp) == (
        9, False, 3.5)
    assert before.max_version == 4 and fresh.digest("p").max_version == 9


def test_gossipers_default_to_private_tables():
    shared = SharedClusterState()
    a = make_gossiper("a", shared=shared)
    b = make_gossiper("b", shared=shared)
    lone = make_gossiper("lone")
    assert a._shared is b._shared is shared is a.fd.shared
    assert list(shared.registry) == ["a", "b"]
    assert list(lone._shared.registry) == ["lone"]
    assert lone.fd.shared is lone._shared


def test_store_reports_row_writes_and_facade_reads():
    """The sanitizer's hook: "w" per materialized or replaced row, "r" per
    read through the map; heartbeat updates and digest builds stay silent."""
    observer = make_gossiper("m")
    seen = []
    observer.endpoint_state_map.track_accesses(seen.append)
    observer._apply_state("p", (1, 1, ()))
    assert seen == ["w"]                     # row materialized
    observer._apply_state("p", (1, 2, ()))
    observer._build_digests()
    observer._handle_syn([GossipDigest("p", 1, 1)], "p")
    assert [kind for kind in seen if kind == "w"] == ["w"]
    observer._apply_state("p", (2, 1, ()))
    assert [kind for kind in seen if kind == "w"] == ["w", "w"]  # restart
    del seen[:]
    observer.endpoint_state_map.get("p")
    "p" in observer.endpoint_state_map
    observer.endpoint_state_map["p"]
    next(iter(observer.endpoint_state_map))
    len(observer.endpoint_state_map)
    assert seen == ["r"] * 5
