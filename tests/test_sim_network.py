"""Tests for the network: delivery and failure injection."""

import pytest

from repro.sim import Get, LatencyModel, Network, Simulator
from repro.sim.kernel import KernelObserver


class DeliveryLog(KernelObserver):
    """The key of each delivered message, in delivery order."""

    def __init__(self):
        self.keys = []

    def deliver(self, message):
        self.keys.append(message.key)


def make_net(seed=1, latency=None):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=latency or LatencyModel(base=0.001, jitter=0.0))
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
    """The network keeps no log; an observer's ``deliver`` seam sees each
    delivery at the point it reaches the inbox, in order."""
    sim, net = make_net()
    assert not hasattr(net, "delivery_log")
    log = DeliveryLog().attach(sim)
    got = []
    collect_inbox(sim, net, "b", got)
    net.send("a", "b", "x", None)
    net.send("a", "nobody", "x", None)      # dropped: never delivered
    net.send("a", "b", "y", None)
    sim.run()
    assert log.keys == ["a>b:x#1", "a>b:y#1"]
