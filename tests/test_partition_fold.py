"""Invariants of folding the partitioned runner into ``Cluster``.

A shard is an ordinary :class:`Cluster` on a :class:`ShardFabric`, so the
whole :mod:`repro.faults` vocabulary, the ``workloads`` drivers and the one
report assembler serve sharded runs too.  These tests pin what that buys
(fault kinds the old partition-only chaos type never had, K-invariantly),
how far a partitioned run sits from the classic run of the same scenario,
and the coordinator's scatter/gather and worker-failure behaviour.
"""

import multiprocessing
import os
import time

import pytest

from repro.cassandra import partition
from repro.cassandra.cluster import Cluster
from repro.cassandra.partition import (
    PartitionSpec,
    ShardWorkerError,
    run_partitioned,
)
from repro.faults import (
    CpuStress,
    FaultSchedule,
    Heal,
    LinkDegrade,
    PartitionCut,
)
from repro.obs.doctor import CPU_CONTENTION
from repro.sim.network import LatencyModel

# -- fault kinds that arrive with FaultSchedule ---------------------------------

CUT_A = (("node-000", "node-001"), ("node-002", "node-003"))
CUT_B = (("node-004", "node-005", "node-008"),
         ("node-009", "node-010", "node-011"))


def _rich_schedule(degrade_duration: float = 1.5) -> FaultSchedule:
    lossy = [LinkDegrade(1.0, "node-006", f"node-{peer:03d}", drop_p=1.0,
                         duration=degrade_duration)
             for peer in range(12) if peer != 6]
    return FaultSchedule(events=lossy + [
        PartitionCut(0.5, *CUT_A),
        PartitionCut(0.5, *CUT_B),
        CpuStress(1.0, "node-008", hogs=4, duration=1.0),
        Heal(1.5, *CUT_A),                       # selective: CUT_B stays
    ])


def _spec(**overrides) -> PartitionSpec:
    base = dict(nodes=12, epoch=0.05, until=8.0, seed=3,
                faults=_rich_schedule())
    base.update(overrides)
    return PartitionSpec(**base)


def test_rich_fault_schedule_is_k_and_worker_invariant():
    """CpuStress, auto-restoring LinkDegrade and selective Heal: K=1 ==
    K=2 == K=4 == forked, byte for byte, and every fault was live."""
    serial = run_partitioned(_spec(shards=1))
    assert serial.dropped_cut > 0
    assert serial.dropped_degraded > 0
    assert serial.stage_lateness[CPU_CONTENTION] > 0.0   # the hogs contended
    for shards in (2, 4):
        assert (run_partitioned(_spec(shards=shards)).canonical_json()
                == serial.canonical_json())
    forked = run_partitioned(_spec(shards=4, workers=4))
    assert forked.canonical_json() == serial.canonical_json()


def test_duration_bounded_degrade_restores_itself():
    bounded = run_partitioned(_spec(shards=2))
    unbounded = run_partitioned(
        _spec(shards=2, faults=_rich_schedule(degrade_duration=0.0)))
    assert 0 < bounded.dropped_degraded < unbounded.dropped_degraded


def test_selective_heal_leaves_the_other_cut_in_force():
    selective = run_partitioned(_spec(shards=2))
    events = [e if not isinstance(e, Heal) else Heal(1.5)
              for e in _rich_schedule()]
    heal_all = run_partitioned(
        _spec(shards=2, faults=FaultSchedule(events=events)))
    assert selective.dropped_cut > heal_all.dropped_cut > 0


# -- distance from the classic runner -------------------------------------------

UNTIL = 8.0


def _classic(nodes: int):
    cluster = Cluster(PartitionSpec(nodes=nodes).cluster_config())
    cluster.build_established()
    cluster.run(until=UNTIL)
    return cluster.report()


@pytest.mark.parametrize("nodes", [32, 64])
def test_serial_partitioned_run_matches_classic_counts(nodes):
    """K=1 with no latency floor above ``latency.base`` sends, delivers and
    flaps exactly like the classic runner; the default 5 ms epoch stays
    within 1% (measured: EXPERIMENTS.md)."""
    classic = _classic(nodes)
    exact = run_partitioned(PartitionSpec(
        nodes=nodes, epoch=LatencyModel().base, until=UNTIL))
    assert ((exact.messages_sent, exact.messages_delivered, exact.flaps)
            == (classic.messages_sent, classic.messages_delivered,
                classic.flaps))
    default = run_partitioned(PartitionSpec(nodes=nodes, until=UNTIL))
    assert default.flaps == classic.flaps
    for name in ("messages_sent", "messages_delivered"):
        ours, theirs = getattr(default, name), getattr(classic, name)
        assert abs(ours - theirs) <= 0.01 * theirs, name


# -- coordinator: scatter before gather -----------------------------------------


class RecordingHandle:
    """Fake shard handle: logs the coordinator's calls, routes nothing."""

    def __init__(self, index, log):
        self.index, self.log = index, log

    def submit(self, method, *args):
        self.log.append(("submit", method, self.index))

    def result(self):
        self.log.append(("result", self.index))
        return []


def test_every_scatter_precedes_the_first_gather():
    """All K ``advance`` commands go out before any reply is awaited, so
    forked workers run their epochs concurrently; replies are gathered in
    shard order."""
    spec = PartitionSpec(nodes=8, shards=4, epoch=0.25, until=1.0)
    log = []
    partition._lockstep(spec, [RecordingHandle(i, log) for i in range(4)])
    rounds = [log[i:i + 8] for i in range(0, len(log), 8)]
    assert len(rounds) == 4 + 1                  # four barriers, then finish
    for number, calls in enumerate(rounds):
        method = "finish" if number == 4 else "advance"
        assert calls[:4] == [("submit", method, i) for i in range(4)]
        assert calls[4:] == [("result", i) for i in range(4)]


# -- a failing worker is reported, named and reaped -----------------------------


def _run_with_broken_shard(monkeypatch, fail):
    """Run K=3 forked with shard 1's ``advance`` sabotaged mid-run."""
    real_advance = partition.Shard.advance

    def advance(self, inbound, next_barrier):
        if self.index == 1 and next_barrier > 0.2:
            fail()
        return real_advance(self, inbound, next_barrier)

    monkeypatch.setattr(partition.Shard, "advance", advance)  # forks inherit
    spec = PartitionSpec(nodes=9, shards=3, workers=3, epoch=0.05, until=1.0)
    started = time.monotonic()
    with pytest.raises(ShardWorkerError) as caught:
        run_partitioned(spec)
    assert time.monotonic() - started < 30.0     # an error, not a hang
    assert multiprocessing.active_children() == []
    return str(caught.value)


def test_worker_exception_names_shard_and_barrier(monkeypatch):
    def fail():
        raise RuntimeError("planted mid-epoch failure")

    message = _run_with_broken_shard(monkeypatch, fail)
    assert "shard 1" in message
    assert "advance(until=0.25)" in message
    assert "planted mid-epoch failure" in message   # the child's traceback


def test_worker_death_is_a_clean_error(monkeypatch):
    message = _run_with_broken_shard(monkeypatch, lambda: os._exit(7))
    assert "shard 1" in message
    assert "code 7" in message
