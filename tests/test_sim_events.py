"""Tests for the event queue and trace primitives."""

import pytest

from repro.sim.events import (
    Event,
    EventQueue,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    Trace,
)


def test_events_pop_in_time_order():
    queue = EventQueue()
    fired = []
    queue.push(3.0, lambda: fired.append("c"))
    queue.push(1.0, lambda: fired.append("a"))
    queue.push(2.0, lambda: fired.append("b"))
    while queue:
        queue.pop().callback()
    assert fired == ["a", "b", "c"]


def test_same_time_orders_by_priority_then_seq():
    queue = EventQueue()
    fired = []
    queue.push(1.0, lambda: fired.append("normal-1"), PRIORITY_NORMAL)
    queue.push(1.0, lambda: fired.append("low"), PRIORITY_LOW)
    queue.push(1.0, lambda: fired.append("high"), PRIORITY_HIGH)
    queue.push(1.0, lambda: fired.append("normal-2"), PRIORITY_NORMAL)
    while queue:
        queue.pop().callback()
    assert fired == ["high", "normal-1", "normal-2", "low"]


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    fired = []
    keep = queue.push(1.0, lambda: fired.append("keep"))
    drop = queue.push(0.5, lambda: fired.append("drop"))
    drop.cancel()
    assert len(queue) == 1
    event = queue.pop()
    assert event is keep
    event.callback()
    assert fired == ["keep"]
    assert queue.pop() is None


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    early = queue.push(0.5, lambda: None)
    queue.push(2.0, lambda: None)
    early.cancel()
    assert queue.peek_time() == 2.0


def test_peek_time_empty_queue():
    assert EventQueue().peek_time() is None


def test_len_tracks_live_events():
    queue = EventQueue()
    assert len(queue) == 0
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert len(queue) == 2
    queue.pop()
    assert len(queue) == 1


def test_event_sort_key_total_order():
    a = Event(1.0, 0, 1, lambda: None)
    b = Event(1.0, 0, 2, lambda: None)
    assert a.sort_key() < b.sort_key()


def test_trace_records_and_filters():
    trace = Trace(enabled=True)
    trace.emit(1.0, "deliver", "a>b:syn#1")
    trace.emit(2.0, "convict", "node-001")
    trace.emit(3.0, "deliver", "b>a:ack#1")
    assert len(trace) == 3
    delivers = trace.filter("deliver")
    assert [r.subject for r in delivers] == ["a>b:syn#1", "b>a:ack#1"]
    assert delivers[0].key() == ("deliver", "a>b:syn#1")


def test_trace_disabled_records_nothing():
    trace = Trace(enabled=False)
    trace.emit(1.0, "deliver", "x")
    assert len(trace) == 0
