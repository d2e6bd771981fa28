"""Shard-merge determinism: the partitioned kernel is K-invariant.

The contract of :mod:`repro.cassandra.partition` is that sharding is pure
mechanism: the same :class:`PartitionSpec` run with any shard count K --
including the K=1 serial baseline -- and with any worker-process count
produces a byte-identical canonical :class:`RunReport` (flap ordering,
float sums, and the total kernel step count included).  These tests pin
that property across scenarios (steady gossip, decommission, mid-run
joiners), fault schedules (crash/restart, partition/heal, degraded
links), and the in-process vs forked-worker paths.
"""

from dataclasses import replace

import pytest

from repro.cassandra.cluster import Cluster, ClusterConfig, Mode, phantom_blob
from repro.cassandra.partition import (
    DEFAULT_PARAMS,
    PartitionSpec,
    run_partitioned,
)
from repro.faults import (
    Fault,
    FaultSchedule,
    Heal,
    LinkDegrade,
    NodeCrash,
    NodeRestart,
    PartitionCut,
)
from repro.sim.kernel import Simulator
from repro.sim.network import LatencyModel
from repro.sim.partition import ShardFabric, keyed_fraction


def _canonical(spec: PartitionSpec) -> str:
    return run_partitioned(spec).canonical_json()


# -- K-invariance across scenarios -------------------------------------------


@pytest.mark.parametrize("shards", [2, 4, 8])
def test_steady_gossip_matches_serial(shards):
    """Steady-state gossip: K-sharded == serial, byte for byte."""
    base = dict(nodes=16, epoch=0.05, until=4.0, seed=1)
    assert (_canonical(PartitionSpec(shards=shards, **base))
            == _canonical(PartitionSpec(shards=1, **base)))


@pytest.mark.parametrize("seed", range(3))
def test_decommission_matches_serial(seed):
    """The decommission scenario (LEAVING/LEFT/stop) is K-invariant."""
    base = dict(nodes=12, epoch=0.05, until=5.0, seed=seed,
                scenario="decommission",
                params=replace(DEFAULT_PARAMS, warmup=1.0,
                               leaving_duration=1.5))
    serial = _canonical(PartitionSpec(shards=1, **base))
    assert _canonical(PartitionSpec(shards=4, **base)) == serial
    assert _canonical(PartitionSpec(shards=3, **base)) == serial


def test_midrun_joiners_match_serial():
    """Nodes added mid-run in their owning shard gossip identically."""
    base = dict(nodes=12, epoch=0.05, until=5.0, seed=5, scenario="join",
                params=replace(DEFAULT_PARAMS, join_count=3, warmup=1.0))
    serial = _canonical(PartitionSpec(shards=1, **base))
    for shards in (2, 4):
        assert _canonical(PartitionSpec(shards=shards, **base)) == serial


def test_chaos_schedule_matches_serial():
    """Barrier-quantized faults (crash/restart, cuts, degrade) are K-invariant."""
    faults = FaultSchedule(events=[
        NodeCrash(1.0, "node-004"),
        PartitionCut(1.2, ("node-000", "node-001"), ("node-002", "node-003")),
        LinkDegrade(2.0, "node-005", "node-006", 0.5, 2.0, symmetric=False),
        Heal(2.6),
        NodeRestart(3.0, "node-004"),
    ])
    base = dict(nodes=12, epoch=0.05, until=6.0, seed=9, faults=faults)
    serial = run_partitioned(PartitionSpec(shards=1, **base))
    assert serial.dropped_cut > 0      # the cut was live and mattered
    assert serial.dropped_down > 0     # the crash dropped traffic
    for shards in (2, 4):
        assert (_canonical(PartitionSpec(shards=shards, **base))
                == serial.canonical_json())


def test_crash_conviction_flaps_match_serial():
    """A long crash is convicted by peers identically under any K."""
    faults = FaultSchedule(events=[NodeCrash(1.0, "node-005")])
    base = dict(nodes=8, epoch=0.05, until=25.0, seed=2, faults=faults)
    serial = run_partitioned(PartitionSpec(shards=1, **base))
    assert serial.flaps > 0            # peers actually convicted the victim
    assert all(e.target == "node-005" for e in serial.flap_events)
    assert (_canonical(PartitionSpec(shards=4, **base))
            == serial.canonical_json())


# -- execution modes -----------------------------------------------------------


def test_worker_processes_match_in_process():
    """Forked shard workers reproduce the in-process run byte for byte."""
    base = dict(nodes=12, shards=4, epoch=0.05, until=4.0, seed=7,
                scenario="decommission",
                params=replace(DEFAULT_PARAMS, warmup=1.0))
    assert (_canonical(PartitionSpec(workers=4, **base))
            == _canonical(PartitionSpec(workers=0, **base)))


def test_observe_from_filters_headline_flaps():
    faults = FaultSchedule(events=[NodeCrash(1.0, "node-005")])
    base = dict(nodes=8, epoch=0.05, until=25.0, seed=2, faults=faults)
    full = run_partitioned(PartitionSpec(shards=2, **base))
    first_flap = min(e.time for e in full.flap_events)
    late = run_partitioned(
        PartitionSpec(shards=2, observe_from=first_flap + 1e-9, **base))
    assert late.flaps < full.flaps


# -- construction invariants ---------------------------------------------------


def test_phantom_blob_matches_established_state():
    """A remote peer's phantom blob is the blob it would really publish."""
    config = ClusterConfig.for_bug("c3831", nodes=4, mode=Mode.REAL)
    cluster = Cluster(config)
    cluster.build_established()
    for name in ("node-000", "node-002"):
        real = cluster.nodes[name].gossiper.own_state.to_blob()
        assert phantom_blob(name, config.bug.vnodes) == real


def test_spec_validation():
    with pytest.raises(ValueError):
        PartitionSpec(nodes=4, shards=5)
    with pytest.raises(ValueError):
        PartitionSpec(nodes=4, shards=0)
    with pytest.raises(ValueError):
        PartitionSpec(nodes=4, epoch=0.0)
    with pytest.raises(ValueError):
        PartitionSpec(nodes=4, scenario="meteor")
    # A link speed-up would break the conservative bound: refused up front,
    # not mid-run inside a worker.
    speedup = FaultSchedule(events=[
        LinkDegrade(1.0, "node-000", "node-001", latency_mult=0.5)])
    with pytest.raises(ValueError, match="latency_mult"):
        PartitionSpec(nodes=4, faults=speedup)


def test_unknown_chaos_kind_rejected():
    """An event the injector cannot enact fails the run, not silently."""
    spec = PartitionSpec(nodes=4, shards=1, epoch=0.05, until=0.1,
                         faults=FaultSchedule(events=[Fault(0.0)]))
    with pytest.raises(TypeError):
        run_partitioned(spec)


# -- fabric mechanics ----------------------------------------------------------


def test_fabric_enforces_epoch_latency_floor():
    """Every captured arrival lands at least one epoch after the send."""
    sim = Simulator(seed=0)
    fabric = ShardFabric(sim, LatencyModel(base=0.0005, jitter=0.0005),
                         seed=0, epoch=0.25)
    fabric.register("a", sim.channel("a"))
    fabric.register("b", sim.channel("b"))
    for __ in range(20):
        fabric.send("a", "b", "SYN", ())
    for arrival, message in fabric.collect():
        assert arrival - message.send_time >= 0.25


def test_fabric_randomness_is_keyed_not_streamed():
    """The same message key draws the same jitter in any fabric instance.

    Interleaving senders differently must not change per-key delays --
    this is exactly the property the classic global ``net-jitter`` stream
    lacks, and what makes fabric randomness shardable.
    """
    sim = Simulator(seed=0)
    fabric = ShardFabric(sim, LatencyModel(base=0.0, jitter=1.0),
                         seed=0, epoch=0.01)
    fabric.send("a", "z", "SYN", ())
    fabric.send("b", "z", "SYN", ())
    one = {m.key: t for t, m in fabric.collect()}
    sim2 = Simulator(seed=0)
    fabric2 = ShardFabric(sim2, LatencyModel(base=0.0, jitter=1.0),
                          seed=0, epoch=0.01)
    fabric2.send("b", "z", "SYN", ())
    fabric2.send("a", "z", "SYN", ())
    other = {m.key: t for t, m in fabric2.collect()}
    assert one == other
    assert keyed_fraction(0, "jit:a>z:SYN#1") != keyed_fraction(
        0, "jit:b>z:SYN#1")


def test_fabric_rejects_latency_speedup():
    """latency_mult < 1 would break the conservative bound; reject it."""
    sim = Simulator(seed=0)
    fabric = ShardFabric(sim, LatencyModel(), seed=0, epoch=0.05)
    with pytest.raises(ValueError):
        fabric.degrade("a", "b", 0.0, 0.5)
    fabric.degrade("a", "b", 0.1, 1.0)  # >= 1 is fine


def test_fabric_counts_destination_drops_at_arrival():
    """dst-down / dst-unregistered are arrival-side decisions for every K."""
    sim = Simulator(seed=0)
    fabric = ShardFabric(sim, LatencyModel(jitter=0.0), seed=0, epoch=0.05)
    fabric.register("a", sim.channel("a"))
    # Destination never registered: the send itself is still captured.
    assert fabric.send("a", "ghost", "SYN", ()) is not None
    assert fabric.dropped_unknown_dst == 0
    fabric.inject(fabric.collect())
    sim.run(until=1.0)
    assert fabric.dropped_unknown_dst == 1
    # Source down is known locally and dropped at send.
    fabric.crash("a")
    assert fabric.send("a", "a", "SYN", ()) is None
    assert fabric.dropped_down == 1
