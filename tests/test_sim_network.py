"""Tests for the network: delivery, failure injection, order enforcement."""

import pytest

from repro.sim import Get, LatencyModel, Network, OrderEnforcer, Simulator


def make_net(seed=1, latency=None, enforcer=None):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=latency or LatencyModel(base=0.001, jitter=0.0),
                  enforcer=enforcer)
    return sim, net


def collect_inbox(sim, net, node_id, sink):
    inbox = sim.channel(node_id)
    net.register(node_id, inbox)

    def receiver():
        while True:
            message = yield Get(inbox)
            sink.append(message)

    sim.spawn(receiver(), name=f"recv:{node_id}")
    return inbox


def test_basic_delivery_and_keys():
    sim, net = make_net()
    got = []
    collect_inbox(sim, net, "b", got)
    net.send("a", "b", "ping", {"x": 1})
    net.send("a", "b", "ping", {"x": 2})
    sim.run()
    assert [m.key for m in got] == ["a>b:ping#1", "a>b:ping#2"]
    assert got[0].payload == {"x": 1}
    assert net.delivered == 2


def test_send_to_unknown_node_is_dropped():
    sim, net = make_net()
    assert net.send("a", "ghost", "ping", None) is None
    assert net.dropped == 1


def test_duplicate_registration_rejected():
    sim, net = make_net()
    net.register("a", sim.channel())
    with pytest.raises(ValueError):
        net.register("a", sim.channel())


def test_crash_drops_traffic_until_recover():
    sim, net = make_net()
    got = []
    collect_inbox(sim, net, "b", got)
    net.crash("b")
    net.send("a", "b", "ping", 1)
    sim.run()
    assert got == []
    net.recover("b")
    net.send("a", "b", "ping", 2)
    sim.run()
    assert [m.payload for m in got] == [2]


def test_partition_and_heal():
    sim, net = make_net()
    got_b, got_c = [], []
    collect_inbox(sim, net, "b", got_b)
    collect_inbox(sim, net, "c", got_c)
    net.partition(["a"], ["b"])
    net.send("a", "b", "ping", 1)   # crosses cut: dropped
    net.send("a", "c", "ping", 2)   # same side: delivered
    sim.run()
    assert got_b == [] and [m.payload for m in got_c] == [2]
    net.heal()
    net.send("a", "b", "ping", 3)
    sim.run()
    assert [m.payload for m in got_b] == [3]


def test_latency_model_jitter_is_deterministic():
    def run(seed):
        sim, net = make_net(seed=seed,
                            latency=LatencyModel(base=0.01, jitter=0.01))
        got = []
        collect_inbox(sim, net, "b", got)
        for __ in range(5):
            net.send("a", "b", "ping", None)
        sim.run()
        return [round(m.send_time, 9) for m in got], sim.now

    assert run(3) == run(3)


def test_negative_latency_rejected():
    with pytest.raises(ValueError):
        LatencyModel(base=-0.1)


def test_delivery_log_records_order():
    sim, net = make_net()
    assert net.delivery_log is None         # no log unless a run asks
    net.delivery_log = []
    got = []
    collect_inbox(sim, net, "b", got)
    net.send("a", "b", "x", None)
    net.send("a", "b", "y", None)
    sim.run()
    assert net.delivery_log == ["a>b:x#1", "a>b:y#1"]


class TestOrderEnforcer:
    def test_releases_in_recorded_order(self):
        enforcer = OrderEnforcer(["k1", "k2", "k3"])
        released = []

        class Msg:
            def __init__(self, key):
                self.key = key

        # Offer out of order: k2 parks until k1 arrives.
        enforcer.offer(Msg("k2"), lambda m: released.append(m.key))
        assert released == []
        assert enforcer.parked_count == 1
        enforcer.offer(Msg("k1"), lambda m: released.append(m.key))
        assert released == ["k1", "k2"]
        enforcer.offer(Msg("k3"), lambda m: released.append(m.key))
        assert released == ["k1", "k2", "k3"]
        assert enforcer.released_in_order == 3

    def test_unrecorded_keys_pass_through(self):
        enforcer = OrderEnforcer(["k1"])
        released = []

        class Msg:
            def __init__(self, key):
                self.key = key

        enforcer.offer(Msg("new"), lambda m: released.append(m.key))
        assert released == ["new"]
        assert enforcer.released_unrecorded == 1

    def test_skip_stalled_unblocks_missing_keys(self):
        enforcer = OrderEnforcer(["never-sent", "k2"])
        released = []

        class Msg:
            def __init__(self, key):
                self.key = key

        enforcer.offer(Msg("k2"), lambda m: released.append(m.key))
        assert released == []
        assert enforcer.stalled
        skipped = enforcer.skip_stalled()
        assert skipped == 1
        assert released == ["k2"]
        # A skipped key arriving late is released immediately.
        enforcer.offer(Msg("never-sent"), lambda m: released.append(m.key))
        assert released == ["k2", "never-sent"]

    def test_network_integration_reorders_deliveries(self):
        # Record an order that reverses the natural send order, then check
        # the enforcer makes deliveries follow the recording.
        enforcer = OrderEnforcer(["a>b:m2#1", "a>b:m1#1"])
        sim = Simulator(seed=1)
        net = Network(sim, latency=LatencyModel(base=0.001, jitter=0.0),
                      enforcer=enforcer)
        got = []
        collect_inbox(sim, net, "b", got)
        net.send("a", "b", "m1", None)
        net.send("a", "b", "m2", None)
        sim.run()
        assert [m.kind for m in got] == ["m2", "m1"]
