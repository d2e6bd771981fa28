"""Property tests for the kernel's event queue.

Hand-rolled generators over the repo's deterministic
:class:`~repro.sim.rng.SplittableRng` (the ``test_sweep_properties`` style:
every case is a pure function of (suite seed, case index), so a failure
prints the index that reproduces it).

The property under test is the queue contract: for any sequence of
schedule / cancel / reschedule operations, every pop returns the minimum
live ``(time, priority, seq)`` key (checked against a shadow model), and
the whole pop sequence equals the one recorded in
``tests/fixtures/scheduler_golden.json`` from the two-tier timer wheel
that :class:`~repro.sim.events.EventQueue` outlived -- so the heap is
pinned to an independent implementation's order, not to itself.  The
generated times and the dedicated edge cases keep the shapes that were
hard for the wheel (same-tick priority ties, a cancel after the
neighbouring event popped, a push behind the last pop, near vs far
times, ``pop_due`` limits) because they are the shapes any min-key queue
must get right; the compaction test bounds peak storage at O(live).

The module, test and parameter ids are the ones the floor knows; renaming
them after what they now check is its own change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.sim import events as events_module
from repro.sim.events import COMPACT_MIN_CANCELLED, EventQueue, make_queue
from repro.sim.rng import SplittableRng

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "scheduler_golden.json")
    .read_text())

SUITE_SEED = 20260807
CASES = 40


def case_rng(case):
    """The deterministic RNG for one generated case."""
    return SplittableRng(SUITE_SEED * 1000 + case)


def gen_time(rng, tag):
    """A random event time on four scales.

    Mixes millisecond-grid times (exact ties), times within 50 ms, within
    half a second and out to five seconds.  The recorded pop sequences
    depend on these draws: do not change them.
    """
    tier = rng.choice(f"{tag}.tier", ["subslot", "near", "horizon", "far"])
    if tier == "subslot":
        return rng.randint(f"{tag}.slot", 0, 20) * 0.001
    if tier == "near":
        return rng.uniform(f"{tag}.t", 0.0, 0.05)
    if tier == "horizon":
        return rng.uniform(f"{tag}.t", 0.0, 0.512)
    return rng.uniform(f"{tag}.t", 0.512, 5.0)


def run_ops(queue, rng, n_ops):
    """Drive one queue through a generated op sequence; returns pop keys."""
    handles = []
    popped = []
    for i in range(n_ops):
        op = rng.choice(f"op{i}", ["push", "push", "push", "cancel",
                                   "resched", "pop"])
        if op == "push":
            priority = rng.choice(f"prio{i}", [-10, 0, 10, 3])
            handles.append(queue.push(gen_time(rng, f"t{i}"), lambda: None,
                                      priority=priority, tag=f"e{i}"))
        elif op == "cancel" and handles:
            idx = rng.randint(f"pick{i}", 0, len(handles) - 1)
            handles[idx].cancel()
        elif op == "resched" and handles:
            # The simulator's reschedule idiom: cancel + fresh push.
            idx = rng.randint(f"pick{i}", 0, len(handles) - 1)
            handles[idx].cancel()
            handles.append(queue.push(gen_time(rng, f"rt{i}"), lambda: None,
                                      priority=rng.choice(f"rp{i}",
                                                          [-10, 0, 10]),
                                      tag=f"r{i}"))
        elif op == "pop":
            event = queue.pop()
            if event is not None:
                popped.append(event.sort_key())
    while True:
        event = queue.pop()
        if event is None:
            break
        popped.append(event.sort_key())
    return popped


@pytest.mark.parametrize("case", range(CASES))
def test_every_pop_returns_the_minimum_live_key(case):
    """Model-based check: each pop yields min (time, prio, seq) of the live set.

    A shadow model tracks exactly which keys are live; every pop -- and
    the final drain -- must return the model's minimum and nothing else.
    Interleaved pops advance the front while pushes keep landing behind,
    on, and ahead of it, so pop order is legitimately not globally sorted.
    """
    rng = case_rng(case)
    n_ops = rng.randint("n_ops", 5, 120)
    queue = EventQueue()
    handles = []
    live = {}  # sort_key -> handle

    def do_push(i, tag_prefix="t"):
        priority = rng.choice(f"prio{i}", [-10, 0, 10, 3])
        handle = queue.push(gen_time(rng, f"{tag_prefix}{i}"), lambda: None,
                            priority=priority)
        handles.append(handle)
        live[handle.sort_key()] = handle

    def do_cancel(i):
        idx = rng.randint(f"pick{i}", 0, len(handles) - 1)
        handle = handles[idx]
        handle.cancel()
        live.pop(handle.sort_key(), None)

    for i in range(n_ops):
        op = rng.choice(f"op{i}", ["push", "push", "push", "cancel",
                                   "resched", "pop"])
        if op == "push":
            do_push(i)
        elif op == "cancel" and handles:
            do_cancel(i)
        elif op == "resched" and handles:
            do_cancel(i)
            do_push(i, tag_prefix="rt")
        elif op == "pop":
            event = queue.pop()
            if live:
                assert event is not None
                assert event.sort_key() == min(live)
                del live[event.sort_key()]
            else:
                assert event is None
    while live:
        event = queue.pop()
        assert event is not None and event.sort_key() == min(live)
        del live[event.sort_key()]
    assert queue.pop() is None
    assert len(queue) == 0


@pytest.mark.parametrize("case", range(CASES))
def test_wheel_and_heap_pop_identical_sequences(case):
    """The heap pops the key sequence recorded from the timer wheel."""
    n_ops = case_rng(case).randint("n_ops", 5, 120)
    pops = run_ops(EventQueue(), case_rng(case), n_ops)
    assert {
        "pops": len(pops),
        "pop_keys_sha256": hashlib.sha256(
            json.dumps(pops, separators=(",", ":")).encode()).hexdigest(),
    } == GOLDEN["pop_sequences"][str(case)]


def test_same_tick_priority_ties():
    """Events at one timestamp pop by (priority, seq), never arrival luck."""
    queue = EventQueue()
    tags = ["low", "normal-1", "high", "normal-2", "highest"]
    priorities = [10, 0, -10, 0, -20]
    for tag, priority in zip(tags, priorities):
        queue.push(0.25, lambda: None, priority=priority, tag=tag)
    order = []
    while True:
        event = queue.pop()
        if event is None:
            break
        order.append(event.tag)
    assert order == ["highest", "high", "normal-1", "normal-2", "low"]


def test_cancel_event_in_already_rotated_slot():
    """Cancelling the next event after its neighbour popped must not fire it.

    Two events sit 10 us apart at t=0.1; the second is cancelled only
    after the first has popped, so it is skipped at the top of the heap.
    """
    queue = EventQueue()
    first = queue.push(0.1, lambda: None, tag="first")
    second = queue.push(0.1 + 1e-5, lambda: None, tag="second")
    later = queue.push(0.3, lambda: None, tag="later")
    assert queue.pop() is first
    second.cancel()
    assert queue.pop() is later
    assert queue.pop() is None
    assert len(queue) == 0


def test_push_behind_cursor_after_rotation():
    """A push earlier than the last popped time still pops in key order."""
    queue = EventQueue()
    queue.push(0.2, lambda: None, tag="a")
    assert queue.pop().tag == "a"
    queue.push(0.05, lambda: None, tag="behind")
    queue.push(0.21, lambda: None, tag="ahead")
    assert queue.pop().tag == "behind"
    assert queue.pop().tag == "ahead"


def test_far_events_pop_against_near_events():
    """Far and near times share one total order, whatever the push order."""
    queue = EventQueue()
    queue.push(100.0, lambda: None, tag="far")
    queue.push(0.01, lambda: None, tag="near")
    queue.push(400.0, lambda: None, tag="farther")
    assert [queue.pop().tag for _ in range(3)] == ["near", "far", "farther"]


@pytest.mark.parametrize("stride", [pytest.param(0.003, id="wheel"),
                                    pytest.param(3.0, id="heap")])
def test_compaction_bounds_peak_storage_under_churn(stride):
    """Regression: lazy cancellation must not grow storage unboundedly.

    A queue that never compacts keeps every tombstone of a long
    schedule/cancel churn (the PS-CPU reschedule pattern) until its pop
    time arrives.  The queue rebuilds once cancelled entries outnumber
    live ones, so peak storage stays O(live), not O(total scheduled) --
    for timeouts packed 3 ms apart and for ones seconds apart (the two
    ids date from when each spacing had its own tier).
    """
    queue = make_queue()
    live_cap = 64
    handles = []
    peak_storage = 0
    churn = 20_000
    for i in range(churn):
        handles.append(queue.push((i % 500) * stride + 0.001, lambda: None))
        if len(handles) > live_cap:
            handles.pop(0).cancel()
        # Entries physically stored: live plus not-yet-dropped cancelled.
        peak_storage = max(peak_storage, len(queue._heap))
    # O(live): within a small constant of the live cap, wildly below the
    # ~20k entries the no-compaction behaviour would have accumulated.
    assert len(queue) <= live_cap + 1
    assert peak_storage <= 4 * (live_cap + COMPACT_MIN_CANCELLED)
    assert queue.compactions > 0


def test_queue_validation_and_factory():
    """The factory takes no name and there is nothing else to construct."""
    for name in ("wheel", "heap", "splay"):
        with pytest.raises(TypeError):
            make_queue(name)
    assert type(make_queue()) is EventQueue
    for gone in ("TimerWheelQueue", "SCHEDULERS"):
        assert not hasattr(events_module, gone)
    assert not hasattr(EventQueue, "note_cancelled")


def test_pop_due_respects_limit_and_merges_tiers():
    """pop_due(limit) yields exactly the events at or before the limit."""
    queue = EventQueue()
    queue.push(0.1, lambda: None, tag="a")
    queue.push(0.2, lambda: None, tag="b")
    queue.push(5.0, lambda: None, tag="far")
    assert queue.pop_due(0.15).tag == "a"
    assert queue.pop_due(0.15) is None       # b is beyond the limit
    assert queue.peek_time() == pytest.approx(0.2)
    assert queue.pop_due(10.0).tag == "b"
    assert queue.pop_due(10.0).tag == "far"
    assert queue.pop_due(10.0) is None
