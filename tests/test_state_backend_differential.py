"""The gossip state against its frozen reference.

The columnar store (struct-of-arrays columns plus cluster-shared interned
app states and digests) replaced a reference implementation that kept one
``EndpointState`` object per (observer, endpoint) pair and one
``ArrivalWindow`` per failure-detector target.  The two were run side by
side -- byte-identical canonical ``RunReport`` JSON (flap ordering
included), simulator step counts and delivery logs for seeds 0..9 at N in
{8, 32, 64} -- before the reference was deleted; its outputs on that grid,
its wire artifacts and its phi arithmetic are recorded in
``tests/fixtures/gossip_state_golden.json`` and the one implementation
must keep reproducing them.

The second half pins the protocol surface (SYN/ACK/ACK2 convergence,
restart generations, LEFT handling, conviction/recovery flaps) on
gossipers that share one ``SharedClusterState`` the way a ``Cluster``'s
nodes do; ``tests/test_gossip.py`` runs the same protocol on private
tables.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cassandra.cluster import Cluster, ClusterConfig, Mode
from repro.cassandra.failure_detector import PhiAccrualFailureDetector
from repro.cassandra.gossip import SYN, GossipConfig, Gossiper
from repro.cassandra.metrics import FlapCounter
from repro.cassandra.state import (
    STATUS,
    STATUS_LEAVING,
    STATUS_LEFT,
    STATUS_NORMAL,
    TOKENS,
)
from repro.cassandra.state_columnar import SharedClusterState
from repro.cassandra.workloads import ScenarioParams, run_workload
from repro.sim.kernel import KernelObserver
from repro.sim.rng import SplittableRng

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "gossip_state_golden.json")
    .read_text())

#: Short scenario: long enough for decommission + conviction traffic,
#: short enough that the 10-seed x 3-scale sweep stays in tier-1.
FAST = ScenarioParams(warmup=2.0, observe=5.0, leaving_duration=2.0,
                      join_duration=2.0, join_stagger=0.5)


class _DeliveryLog(KernelObserver):
    """The key of each delivered message, in delivery order."""

    def __init__(self):
        self.keys = []

    def deliver(self, message):
        self.keys.append(message.key)


def _run(nodes: int, seed: int):
    config = ClusterConfig.for_bug("c3831", nodes=nodes, mode=Mode.REAL,
                                   seed=seed)
    log = _DeliveryLog()
    cluster = Cluster(config, observer=log)
    report = run_workload(cluster, config.bug.workload, FAST)
    return cluster, report, log.keys


def _canonical(report) -> str:
    data = report.to_dict()
    # Host wall time is the one legitimately nondeterministic field.
    data.pop("wall_seconds", None)
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("nodes", [8, 32, 64])
@pytest.mark.parametrize("seed", range(10))
def test_backends_byte_identical(nodes, seed):
    """Seeds 0..9, N in {8,32,64}: the reference's report, steps and log."""
    cluster, report, deliveries = _run(nodes, seed)
    assert {
        "report_sha256": _sha256(_canonical(report)),
        "steps": cluster.sim.steps,
        "delivery_log_sha256": _sha256(
            "\n".join(deliveries)),
    } == GOLDEN["grid"][f"n{nodes}-s{seed}"]


def test_no_state_backend_knob():
    """The representation is not selectable anywhere (no alias, no no-op)."""
    import dataclasses
    import inspect

    from repro.cassandra.node import Node
    from repro.cassandra.partition import PartitionSpec

    with pytest.raises(TypeError):
        ClusterConfig.for_bug("c3831", nodes=4, state_backend="columnar")
    with pytest.raises(TypeError):
        PartitionSpec(nodes=4, state_backend="columnar")
    assert len(dataclasses.fields(PartitionSpec)) == 11
    assert "state_backend" not in inspect.signature(Node.__init__).parameters


# -- protocol level, shared cluster tables ----------------------------------


class Bus:
    """Synchronous loopback fabric for protocol-level tests."""

    def __init__(self):
        self.shared = SharedClusterState()
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
            shared=self.shared,
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
    bus.pump()
    bus.exchange("a", "b")
    assert b.endpoint_state_map["a"].heartbeat.version > version_before


def test_left_status_removes_from_liveness_tracking():
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    assert "a" in b.live_endpoints
    a.set_app_state(STATUS, STATUS_LEFT)
    bus.exchange("a", "b")
    assert "a" not in b.live_endpoints
    assert "a" not in b.unreachable_endpoints
    assert "a" not in b.fd.known_endpoints()


def test_restart_with_higher_generation_replaces_state():
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    old_generation = b.endpoint_state_map["a"].heartbeat.generation
    bus.gossipers.pop("a")
    a2 = bus.add("a", seeds=["a"], generation=old_generation + 1)
    a2.set_app_state(TOKENS, "", payload=(100,))
    a2.set_app_state(STATUS, STATUS_NORMAL)
    bus.exchange("a", "b")
    assert b.endpoint_state_map["a"].heartbeat.generation == old_generation + 1


def test_stale_generation_ignored():
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    version = b.endpoint_state_map["a"].heartbeat.version
    b._apply_state("a", (0, 999, ()))
    assert b.endpoint_state_map["a"].heartbeat.version == version


def test_conviction_and_recovery_counts_flap():
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    for t in range(1, 20):
        bus.clock = float(t)
        b.fd.report("a", bus.clock)
    bus.clock = 100.0
    convicted = b.check_convictions()
    assert convicted == ["a"]
    assert bus.flaps.total == 1
    assert "a" in b.unreachable_endpoints
    assert b.endpoint_state_map["a"].alive is False
    a.do_round()
    bus.queue.clear()
    bus.exchange("a", "b")
    assert "a" in b.live_endpoints
    assert b.endpoint_state_map["a"].alive is True
    assert bus.flaps.recoveries == 1


def test_status_change_callback_fires_once_per_change():
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    changes_before = list(bus.status_changes)
    a.set_app_state(STATUS, STATUS_LEAVING)
    bus.exchange("a", "b")
    new = [c for c in bus.status_changes if c not in changes_before]
    assert ("b", "a", STATUS_LEAVING) in new
    before = len(bus.status_changes)
    bus.exchange("a", "b")
    assert len(bus.status_changes) == before


def test_status_notification_sees_tokens_from_same_blob():
    bus = Bus()
    a = bus.add("a", seeds=["a"])
    b = bus.add("b", seeds=["a"])
    bus.exchange("a", "b")
    seen = []
    b.on_status_change = lambda ep, status, state: seen.append(
        (ep, status, state.tokens()))
    a.set_app_state(TOKENS, "", payload=(123, 456))
    a.set_app_state(STATUS, "BOOT")
    bus.exchange("a", "b")
    assert ("a", "BOOT", (123, 456)) in seen


def _jsonable(value):
    """``value`` as JSON would return it (tuples become lists)."""
    return json.loads(json.dumps(value))


def test_blobs_and_digests_match_across_backends():
    """Wire artifacts -- blobs, deltas, digest lists -- are the reference's."""
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    bus.clock = 1.0
    a.do_round()
    bus.pump()
    assert _jsonable({
        "to_blob": a.own_state.to_blob(),
        "delta_blob_1": a.own_state.delta_blob(1),
        "max_version": a.own_state.max_version(),
        "digests": a._build_digests(),
        "known_endpoints": a.known_endpoints(),
        "stats": a.stats(),
    }) == GOLDEN["wire"]


def test_columnar_failure_detector_matches_dict_arithmetic():
    """phi / mean / window-slide arithmetic is the reference's, bit for bit."""
    golden = GOLDEN["failure_detector"]
    detector = PhiAccrualFailureDetector(
        phi_threshold=golden["phi_threshold"],
        window_size=golden["window_size"],
        expected_interval=golden["expected_interval"])
    for step in golden["steps"]:
        t = step["t"]
        detector.report("p", t)
        assert {
            "t": t,
            "mean": detector.mean_interval("p"),
            "phi": detector.phi("p", t + 3.3),
            "convict": detector.should_convict("p", t + 40.0),
        } == step
    assert vars(detector.stats) == golden["stats"]
    assert detector.phis(11.0) == golden["phis_at_11"]
    assert detector.known_endpoints() == golden["known_endpoints"]
    detector.forget("p")
    assert detector.known_endpoints() == golden["known_after_forget"] == []
    # Re-reporting after forget re-bootstraps identically.
    detector.report("p", 20.0)
    assert detector.mean_interval("p") == golden["mean_after_rereport"]


def test_columnar_interning_is_shared():
    """Two observers of the same app states share one interned record."""
    bus = Bus()
    a = bus.add("a", seeds=["a"])
    b = bus.add("b", seeds=["a"])
    c = bus.add("c", seeds=["a"])
    a.set_app_state(TOKENS, "", payload=(100,))
    a.set_app_state(STATUS, STATUS_NORMAL)
    bus.exchange("a", "b")
    bus.exchange("a", "c")
    gid = bus.shared.registry["a"]
    assert b._store.app[gid] is c._store.app[gid]
    assert (b._store.digest_cache[gid] is None
            or b._store.digest_cache[gid] is c.endpoint_state_map["a"]
            .digest("a"))
