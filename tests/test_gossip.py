"""Tests for the gossip protocol logic (wired directly, no simulator)."""

import pytest

from repro.cassandra.gossip import ACK, ACK2, SYN, GossipConfig, Gossiper
from repro.cassandra.metrics import FlapCounter
from repro.cassandra.state import (
    STATUS,
    STATUS_LEAVING,
    STATUS_LEFT,
    STATUS_NORMAL,
    TOKENS,
    blob_entry_count,
)
from repro.sim.rng import SplittableRng


class Bus:
    """Synchronous loopback fabric for protocol-level tests."""

    def __init__(self):
        self.gossipers = {}
        self.queue = []
        self.clock = 0.0
        self.flaps = FlapCounter()
        self.status_changes = []

    def now(self):
        return self.clock

    def add(self, node_id, seeds=(), generation=1, config=None):
        gossiper = Gossiper(
            node_id=node_id,
            generation=generation,
            seeds=list(seeds),
            rng=SplittableRng(1),
            send=lambda dst, kind, payload, src=node_id: self.queue.append(
                (src, dst, kind, payload)),
            now=self.now,
            flaps=self.flaps,
            config=config or GossipConfig(),
            on_status_change=lambda ep, status, state, me=node_id:
                self.status_changes.append((me, ep, status)),
        )
        self.gossipers[node_id] = gossiper
        return gossiper

    def pump(self, max_rounds=50):
        """Deliver messages until quiescent."""
        for __ in range(max_rounds):
            if not self.queue:
                return
            src, dst, kind, payload = self.queue.pop(0)
            if dst in self.gossipers:
                self.gossipers[dst].handle_message(kind, payload, src)
        raise AssertionError("bus did not quiesce")

    def exchange(self, a, b):
        """One full gossip exchange initiated by a towards b."""
        digests = self.gossipers[a]._build_digests()
        self.gossipers[b].handle_message(SYN, digests, a)
        self.pump()


def make_pair():
    bus = Bus()
    a = bus.add("a", seeds=["a"])
    b = bus.add("b", seeds=["a"])
    a.set_app_state(TOKENS, "", payload=(100,))
    a.set_app_state(STATUS, STATUS_NORMAL)
    b.set_app_state(TOKENS, "", payload=(200,))
    b.set_app_state(STATUS, STATUS_NORMAL)
    return bus, a, b


def test_syn_ack_ack2_converges_two_nodes():
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    assert "a" in b.endpoint_state_map
    assert "b" in a.endpoint_state_map
    assert b.endpoint_state_map["a"].status() == STATUS_NORMAL
    assert a.endpoint_state_map["b"].tokens() == (200,)


def test_heartbeat_versions_propagate():
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    version_before = b.endpoint_state_map["a"].heartbeat.version
    bus.clock = 1.0
    a.do_round()
    bus.pump()  # SYN went to some target; deliver everything
    # Force an exchange to b regardless of random targeting.
    bus.exchange("a", "b")
    assert b.endpoint_state_map["a"].heartbeat.version > version_before


def test_status_change_callback_fires_once_per_change():
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    changes_before = list(bus.status_changes)
    a.set_app_state(STATUS, STATUS_LEAVING)
    bus.exchange("a", "b")
    new = [c for c in bus.status_changes if c not in changes_before]
    assert ("b", "a", STATUS_LEAVING) in new
    # Re-exchange without changes: no duplicate notification.
    before = len(bus.status_changes)
    bus.exchange("a", "b")
    assert len(bus.status_changes) == before


def test_left_status_removes_from_liveness_tracking():
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    assert "a" in b.live_endpoints
    a.set_app_state(STATUS, STATUS_LEFT)
    bus.exchange("a", "b")
    assert "a" not in b.live_endpoints
    assert "a" not in b.unreachable_endpoints


def test_restart_with_higher_generation_replaces_state():
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    old_generation = b.endpoint_state_map["a"].heartbeat.generation
    # a restarts: new gossiper, same id, generation+1.
    bus.gossipers.pop("a")
    a2 = bus.add("a", seeds=["a"], generation=old_generation + 1)
    a2.set_app_state(TOKENS, "", payload=(100,))
    a2.set_app_state(STATUS, STATUS_NORMAL)
    bus.exchange("a", "b")
    assert b.endpoint_state_map["a"].heartbeat.generation == old_generation + 1


def test_stale_generation_ignored():
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    state = b.endpoint_state_map["a"]
    version = state.heartbeat.version
    # Deliver an old-generation blob directly: must be ignored.
    b._apply_state("a", (0, 999, ()))
    assert b.endpoint_state_map["a"].heartbeat.version == version


def test_conviction_and_recovery_counts_flap():
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    # Feed regular arrivals, then go silent.
    for t in range(1, 20):
        bus.clock = float(t)
        b.fd.report("a", bus.clock)
    bus.clock = 100.0
    convicted = b.check_convictions()
    assert convicted == ["a"]
    assert bus.flaps.total == 1
    assert "a" in b.unreachable_endpoints
    # A newer heartbeat marks it alive again (recovery).
    a.do_round()
    bus.queue.clear()
    bus.exchange("a", "b")
    assert "a" in b.live_endpoints
    assert bus.flaps.recoveries == 1


def test_do_round_targets_live_peer_and_returns_targets():
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    targets = a.do_round()
    assert targets  # at least one target chosen
    assert all(t != "a" for t in targets)
    bus.pump()


def test_do_round_with_no_live_peers_contacts_seed():
    bus = Bus()
    lonely = bus.add("x", seeds=["seed-1"])
    targets = lonely.do_round()
    assert targets == ["seed-1"]


def test_syn_requests_unknown_endpoints():
    bus, a, b = make_pair()
    # b receives digests naming an endpoint it has never seen; it must
    # request full state (version 0).
    from repro.cassandra.state import GossipDigest
    b.handle_message(SYN, [GossipDigest("mystery", 1, 5)], "a")
    src, dst, kind, payload = bus.queue.pop(0)
    assert kind == ACK
    send_states, requests = payload
    assert ("mystery", 0) in requests


def test_ack_offers_states_sender_lacks():
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    # a knows about b; send a SYN digest that omits b entirely.
    from repro.cassandra.state import GossipDigest
    a.handle_message(SYN, [GossipDigest("a", 1, 1)], "c")
    src, dst, kind, payload = bus.queue.pop(0)
    assert dst == "c" and kind == ACK
    send_states, __ = payload
    assert "b" in send_states  # offered proactively


def test_unknown_message_kind_rejected():
    bus, a, b = make_pair()
    with pytest.raises(ValueError):
        a.handle_message("bogus", None, "b")


def test_status_notification_sees_tokens_from_same_blob():
    """Regression: TOKENS and STATUS ride in one blob; the STATUS handler
    must observe the tokens even though 'STATUS' sorts before 'TOKENS' in
    the wire format (real Cassandra orders ApplicationState handling the
    same way).  Broken ordering silently dropped BOOT tokens for every
    endpoint discovered before it announced, gutting fresh bootstraps."""
    bus = Bus()
    a = bus.add("a", seeds=["a"])
    b = bus.add("b", seeds=["a"])
    bus.exchange("a", "b")          # b discovers a (no status yet)
    seen = []
    b.on_status_change = lambda ep, status, state: seen.append(
        (ep, status, state.tokens()))
    a.set_app_state(TOKENS, "", payload=(123, 456))
    a.set_app_state(STATUS, "BOOT")
    bus.exchange("a", "b")          # delta carries TOKENS + STATUS together
    assert ("a", "BOOT", (123, 456)) in seen


# -- direct writers against the per-peer reference ------------------------------


class PerPeerGossiper(Gossiper):
    """The reference: one ``should_convict`` per live peer per sweep and
    one ``_apply_state`` per blob, with no cached candidates."""

    def check_convictions(self):
        now = self._now()
        convicted = []
        for endpoint in sorted(self.live_endpoints):
            state = self.endpoint_state_map.get(endpoint)
            if (endpoint == self.node_id or state is None
                    or state.status() == STATUS_LEFT):
                continue
            if self.fd.should_convict(endpoint, now):
                self.live_endpoints.discard(endpoint)
                self.unreachable_endpoints.add(endpoint)
                self._store.alive[self._shared.registry[endpoint]] = 0
                self.flaps.record_conviction(now, self.node_id, endpoint)
                convicted.append(endpoint)
        return convicted

    def _apply_states(self, blobs):
        for endpoint, blob in blobs.items():
            self._apply_state(endpoint, blob)
        return sum(blob_entry_count(blob) for blob in blobs.values())


class Twins:
    """The same observer twice -- the real gossiper and the reference --
    fed identical blobs and direct writes, compared after every step."""

    def __init__(self):
        self.clock = 0.0
        self.subject, self.reference = (
            cls(node_id="o", generation=1, seeds=[], rng=SplittableRng(1),
                send=lambda *message: None, now=lambda: self.clock,
                flaps=FlapCounter())
            for cls in (Gossiper, PerPeerGossiper))
        self.convictions = 0

    def both(self, act):
        act(self.subject)
        act(self.reference)

    def apply(self, blobs):
        assert (self.subject._apply_states(blobs)
                == self.reference._apply_states(blobs))
        self.check()

    def sweep(self):
        convicted = self.subject.check_convictions()
        assert convicted == self.reference.check_convictions()
        self.convictions += len(convicted)
        self.check()

    def check(self):
        subject, reference = self.subject, self.reference
        assert bytes(subject._store.alive) == bytes(reference._store.alive)
        assert subject.live_endpoints == reference.live_endpoints
        assert subject.unreachable_endpoints == reference.unreachable_endpoints
        assert subject.states_applied == reference.states_applied
        assert subject.flaps.flaps == reference.flaps.flaps
        assert subject.flaps.recoveries == reference.flaps.recoveries
        assert subject.fd.stats == reference.fd.stats


def _joined(status=STATUS_NORMAL, generation=1, hb=1):
    return (generation, hb, ((STATUS, status, hb, None),
                             (TOKENS, "", hb, (hb,))))


def test_direct_writers_match_the_per_peer_reference():
    """Direct writes to the live set leave the cached conviction candidates
    and the inline heartbeat apply exactly where the per-peer reference
    is.  Each write is followed by silence from the peer it concerns, with
    nothing else touching the live set, until the reference convicts it:
    a stale candidate list would miss that conviction."""
    twins = Twins()
    #: What each peer is sending: [generation, heartbeat].
    sending = {peer: [1, 1] for peer in ("p0", "p1", "p2", "p3", "p4")}
    twins.apply({peer: _joined() for peer in sending})

    def tick(silent=()):
        twins.clock += 1.0
        blobs = {}
        for peer, incarnation in sending.items():
            if peer != silent:
                incarnation[1] += 1
                blobs[peer] = (incarnation[0], incarnation[1], ())
        twins.apply(blobs)
        twins.sweep()

    def silence(peer):
        before = twins.convictions
        for __ in range(30):
            tick(silent=peer)
            if twins.convictions > before:
                break
        assert peer in twins.subject.unreachable_endpoints
        for __ in range(2):
            tick()

    def leave_and_put_back(peer):
        incarnation = sending.pop(peer)
        twins.apply({peer: _joined(STATUS_LEFT, hb=incarnation[1] + 1)})
        twins.both(lambda g: g.live_endpoints.add(peer))
        tick()
        return incarnation[1] + 2

    for __ in range(5):
        tick()
    # An endpoint enters the live set before the store has its row; the
    # row (no app states, so no STATUS notification) arrives later and
    # moves no live-set counter.
    twins.both(lambda g: g.live_endpoints.add("late"))
    tick()
    twins.apply({"late": (1, 1, ())})
    sending["late"] = [1, 1]
    silence("late")
    # A live peer leaves the set and heartbeats back in; another is
    # discarded and re-added by hand.
    twins.both(lambda g: g.live_endpoints.discard("p1"))
    tick()
    twins.both(lambda g: g.live_endpoints.discard("p2"))
    twins.sweep()
    twins.both(lambda g: g.live_endpoints.add("p2"))
    silence("p2")
    # A LEFT peer put back by hand stops being LEFT with the live set
    # untouched: by restarting with no app states, or by a STATUS change
    # in the same generation.
    leave_and_put_back("p3")
    twins.apply({"p3": (2, 1, ())})
    sending["p3"] = [2, 1]
    silence("p3")
    hb = leave_and_put_back("p4")
    twins.apply({"p4": (1, hb, ((STATUS, STATUS_NORMAL, hb, None),))})
    sending["p4"] = [1, hb]
    silence("p4")
    # A plain set instead of the tracked one, and a convicted peer put
    # back by hand while it is still unreachable.
    twins.both(lambda g: setattr(g, "live_endpoints", set(g.live_endpoints)))
    silence("p0")
    twins.clock += 30.0
    twins.sweep()                   # all six peers convicted at once
    twins.both(lambda g: g.live_endpoints.add("p1"))
    for __ in range(3):
        tick()
    assert twins.subject.unreachable_endpoints == set()
    assert twins.convictions == twins.subject.flaps.recoveries == 5 + 6
