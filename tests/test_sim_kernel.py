"""Tests for the simulation kernel: processes, channels, locks."""

from collections import Counter

import pytest

from repro.sim import (
    Acquire,
    Compute,
    DedicatedCpu,
    Get,
    Join,
    KernelObserver,
    LatencyModel,
    Network,
    SimError,
    Simulator,
    Timeout,
)


def test_timeout_advances_virtual_time():
    sim = Simulator(seed=1)
    seen = []

    def proc():
        yield Timeout(2.5)
        seen.append(sim.now)
        yield Timeout(1.5)
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [2.5, 4.0]


def test_run_until_stops_at_boundary():
    sim = Simulator(seed=1)
    ticks = []

    def ticker():
        while True:
            yield Timeout(1.0)
            ticks.append(sim.now)

    sim.spawn(ticker())
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    assert sim.now == 3.5


def test_negative_timeout_rejected():
    with pytest.raises(ValueError):
        Timeout(-1.0)


def test_schedule_into_past_rejected():
    sim = Simulator(seed=1)
    with pytest.raises(SimError):
        sim.schedule(-0.1, lambda: None)


def test_process_return_value_via_join():
    sim = Simulator(seed=1)
    results = []

    def worker():
        yield Timeout(1.0)
        return 42

    def waiter(target):
        value = yield Join(target)
        results.append((sim.now, value))

    target = sim.spawn(worker())
    sim.spawn(waiter(target))
    sim.run()
    assert results == [(1.0, 42)]


def test_join_already_finished_process():
    sim = Simulator(seed=1)
    results = []

    def worker():
        return "done"
        yield  # pragma: no cover - makes this a generator

    def waiter(target):
        yield Timeout(5.0)
        value = yield Join(target)
        results.append(value)

    target = sim.spawn(worker())
    sim.spawn(waiter(target))
    sim.run()
    assert results == ["done"]


def test_strict_mode_propagates_process_errors():
    sim = Simulator(seed=1)

    def crasher():
        yield Timeout(1.0)
        raise RuntimeError("boom")

    sim.spawn(crasher())
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_yielding_non_effect_raises():
    sim = Simulator(seed=1)

    def bad():
        yield 42

    sim.spawn(bad())
    with pytest.raises(SimError, match="expected an Effect"):
        sim.run()


def test_interrupt_cancels_pending_timeout():
    sim = Simulator(seed=1)
    seen = []

    def sleeper():
        yield Timeout(10.0)
        seen.append("woke")

    process = sim.spawn(sleeper())
    sim.run(until=1.0)
    process.interrupt()
    sim.run()
    assert seen == []
    assert process.finished


class TestChannel:
    def test_put_then_get(self):
        sim = Simulator(seed=1)
        inbox = sim.channel("in")
        got = []

        def receiver():
            item = yield Get(inbox)
            got.append((sim.now, item))

        inbox.put("hello")
        sim.spawn(receiver())
        sim.run()
        assert got == [(0.0, "hello")]

    def test_get_blocks_until_put(self):
        sim = Simulator(seed=1)
        inbox = sim.channel("in")
        got = []

        def receiver():
            item = yield Get(inbox)
            got.append((sim.now, item))

        def sender():
            yield Timeout(3.0)
            inbox.put("late")

        sim.spawn(receiver())
        sim.spawn(sender())
        sim.run()
        assert got == [(3.0, "late")]

    def test_fifo_ordering(self):
        sim = Simulator(seed=1)
        inbox = sim.channel("in")
        got = []

        def receiver():
            while True:
                item = yield Get(inbox)
                got.append(item)

        for i in range(5):
            inbox.put(i)
        sim.spawn(receiver())
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_wait_statistics(self):
        sim = Simulator(seed=1)
        inbox = sim.channel("in")

        def receiver():
            yield Timeout(4.0)
            yield Get(inbox)

        inbox.put("x")
        sim.spawn(receiver())
        sim.run()
        assert inbox.total_enqueued == 1
        assert inbox.max_wait == pytest.approx(4.0)
        assert inbox.mean_wait() == pytest.approx(4.0)

    def test_max_depth_tracked(self):
        sim = Simulator(seed=1)
        inbox = sim.channel("in")
        for i in range(7):
            inbox.put(i)
        assert inbox.max_depth == 7


class TestLock:
    def test_mutual_exclusion_fifo(self):
        sim = Simulator(seed=1)
        lock = sim.lock("l")
        order = []

        def worker(name, hold):
            yield Acquire(lock)
            order.append((name, sim.now))
            yield Timeout(hold)
            lock.release()

        sim.spawn(worker("a", 2.0))
        sim.spawn(worker("b", 1.0))
        sim.spawn(worker("c", 1.0))
        sim.run()
        assert [n for n, _ in order] == ["a", "b", "c"]
        assert [t for _, t in order] == [0.0, 2.0, 3.0]

    def test_release_unheld_raises(self):
        sim = Simulator(seed=1)
        lock = sim.lock("l")
        with pytest.raises(SimError):
            lock.release()

    def test_hold_and_wait_statistics(self):
        sim = Simulator(seed=1)
        lock = sim.lock("l")

        def holder():
            yield Acquire(lock)
            yield Timeout(5.0)
            lock.release()

        def contender():
            yield Timeout(1.0)
            yield Acquire(lock)
            lock.release()

        sim.spawn(holder())
        sim.spawn(contender())
        sim.run()
        assert lock.max_hold == pytest.approx(5.0)
        assert lock.max_wait == pytest.approx(4.0)
        assert lock.contended_acquires == 1


class TestInterruptedGetter:
    """Fault injection kills processes parked on channels; messages must
    survive (the silent-drop bug: ``put()`` resumed a finished getter and
    the item vanished)."""

    def test_interrupted_getter_is_deregistered(self):
        sim = Simulator(seed=1)
        inbox = sim.channel("in")
        got = []

        def receiver(name):
            item = yield Get(inbox)
            got.append((name, item))

        victim = sim.spawn(receiver("victim"))
        survivor = sim.spawn(receiver("survivor"))
        sim.run()  # both park on the empty channel
        victim.interrupt()
        inbox.put("msg")
        sim.run()
        assert got == [("survivor", "msg")]
        assert survivor.finished

    def test_interrupt_between_put_and_delivery_redelivers(self):
        sim = Simulator(seed=1)
        inbox = sim.channel("in")
        got = []

        def receiver(name):
            item = yield Get(inbox)
            got.append((name, item))

        victim = sim.spawn(receiver("victim"))
        survivor = sim.spawn(receiver("survivor"))
        sim.run()
        inbox.put("msg")        # delivery to victim now in flight
        victim.interrupt()      # dies before the delivery event fires
        sim.run()
        assert got == [("survivor", "msg")]

    def test_item_buffers_when_all_getters_dead(self):
        sim = Simulator(seed=1)
        inbox = sim.channel("in")
        got = []

        def receiver():
            item = yield Get(inbox)
            got.append(item)

        victim = sim.spawn(receiver())
        sim.run()
        victim.interrupt()
        inbox.put("kept")
        sim.run()
        assert got == []
        assert len(inbox) == 1  # buffered, not lost
        sim.spawn(receiver())
        sim.run()
        assert got == ["kept"]

    def test_no_item_is_ever_lost_under_interrupts(self):
        sim = Simulator(seed=1)
        inbox = sim.channel("in")
        got = []

        def receiver():
            while True:
                item = yield Get(inbox)
                got.append(item)

        victims = [sim.spawn(receiver()) for _ in range(3)]
        sim.run()
        for victim in victims:
            victim.interrupt()
        for i in range(5):
            inbox.put(i)
        sim.spawn(receiver())
        sim.run(until=1.0)
        assert got == [0, 1, 2, 3, 4]


class TestInterruptedLockHolder:
    """An interrupted critical section must not wedge the lock forever."""

    def test_holder_interrupt_releases_to_next_waiter(self):
        sim = Simulator(seed=1)
        lock = sim.lock("l")
        acquired = []

        def holder():
            yield Acquire(lock)
            acquired.append("holder")
            yield Timeout(100.0)  # would hold forever
            lock.release()

        def waiter():
            yield Acquire(lock)
            acquired.append("waiter")
            lock.release()

        victim = sim.spawn(holder())
        sim.spawn(waiter())
        sim.run(until=1.0)
        assert acquired == ["holder"]
        victim.interrupt()
        sim.run()
        assert acquired == ["holder", "waiter"]
        assert not lock.held
        assert lock.forced_releases == 1

    def test_finally_release_wins_over_forced_release(self):
        sim = Simulator(seed=1)
        lock = sim.lock("l")

        def tidy_holder():
            yield Acquire(lock)
            try:
                yield Timeout(100.0)
            finally:
                lock.release()

        victim = sim.spawn(tidy_holder())
        sim.run(until=1.0)
        victim.interrupt()
        assert not lock.held
        assert lock.forced_releases == 0  # the finally block did it

    def test_interrupted_waiter_is_purged(self):
        sim = Simulator(seed=1)
        lock = sim.lock("l")
        acquired = []

        def holder():
            yield Acquire(lock)
            yield Timeout(2.0)
            lock.release()

        def waiter(name):
            yield Acquire(lock)
            acquired.append((name, sim.now))
            lock.release()

        sim.spawn(holder())
        victim = sim.spawn(waiter("victim"))
        sim.spawn(waiter("survivor"))
        sim.run(until=1.0)
        victim.interrupt()
        sim.run()
        assert acquired == [("survivor", 2.0)]
        assert lock._wait_started == {}  # no leaked wait bookkeeping
        assert not lock._waiters

    def test_interrupt_between_grant_and_resume(self):
        sim = Simulator(seed=1)
        lock = sim.lock("l")
        acquired = []

        def holder():
            yield Acquire(lock)
            yield Timeout(1.0)
            lock.release()

        def waiter(name):
            yield Acquire(lock)
            acquired.append(name)
            lock.release()

        sim.spawn(holder())
        first = sim.spawn(waiter("first"))
        sim.spawn(waiter("second"))
        # Step to the exact moment the release has granted the lock to
        # "first" but its resume event has not fired yet.
        while lock._holder is not first:
            assert sim.step()
        first.interrupt()
        sim.run()
        assert acquired == ["second"]
        assert not lock.held


class TestRunClock:
    def test_clock_advances_when_events_remain_past_until(self):
        sim = Simulator(seed=1)

        def sleeper():
            yield Timeout(100.0)

        sim.spawn(sleeper())
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_clock_advances_on_exhausted_step_budget(self):
        sim = Simulator(seed=1)
        ticks = []

        def ticker():
            while True:
                yield Timeout(1.0)
                ticks.append(sim.now)

        sim.spawn(ticker())
        # spawn + 3 resumes: the budget ends with ticks at 1, 2 fired and
        # an event pending at 3.0 -- the clock must reach the pending
        # event's time, not stall at the last fired one.
        sim.run(until=10.0, max_steps=4)
        assert ticks == [1.0, 2.0, 3.0]
        assert sim.now == pytest.approx(4.0)

    def test_clock_never_passes_next_pending_event(self):
        sim = Simulator(seed=1)

        def sleeper():
            yield Timeout(7.0)

        sim.spawn(sleeper())
        sim.run(until=10.0, max_steps=1)  # only the spawn event fires
        assert sim.now == pytest.approx(7.0)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_clock_reaches_until_when_drained(self):
        sim = Simulator(seed=1)
        sim.run(until=42.0)
        assert sim.now == 42.0


def test_determinism_same_seed_same_schedule():
    def run_once(seed):
        sim = Simulator(seed=seed)
        log = []

        def jittery(name):
            while sim.now < 10.0:
                delay = sim.rng.uniform(f"delay:{name}", 0.1, 1.0)
                yield Timeout(delay)
                log.append((round(sim.now, 9), name))

        sim.spawn(jittery("a"))
        sim.spawn(jittery("b"))
        sim.run(until=10.0)
        return log

    assert run_once(7) == run_once(7)
    assert run_once(7) != run_once(8)


# -- the observer seam --------------------------------------------------------

SEAMS = ("bind", "resume", "interrupt", "channel_buffer", "channel_pop",
         "handoff", "lock_grant", "lock_enter", "lock_release", "compute",
         "deliver")


class _CountingObserver(KernelObserver):
    """Counts every seam call; ``channel_pop`` hands ``handoff`` a token."""

    def __init__(self):
        self.calls = Counter()
        self.forced = []
        for seam in SEAMS:
            def counted(*args, _seam=seam, _base=getattr(self, seam)):
                self.calls[_seam] += 1
                return _base(*args)
            setattr(self, seam, counted)

    def channel_pop(self, channel, process, waited):
        return ("token", waited)

    def lock_release(self, lock, holder, forced):
        self.forced.append(forced)


def _watched_scenario(observer=None):
    """A buffered channel item, a contended lock whose holder is torn out
    of its critical section, a compute job and a network delivery."""
    sim = Simulator(seed=3)
    if observer is not None:
        observer.attach(sim)
    tags = []
    pop_due = sim.events.pop_due

    def recording_pop_due(limit):
        event = pop_due(limit)
        if event is not None:
            tags.append(event.tag)
        return event

    sim.events.pop_due = recording_pop_due
    inbox = sim.channel("inbox:b")
    lock = sim.lock("ring")
    cpu = DedicatedCpu(sim, cores=1, name="cpu")
    network = Network(sim, latency=LatencyModel())
    network.register("b", inbox)
    got = []

    def sender():
        network.send("a", "b", "syn", None)
        yield Compute(cpu, 0.5, tag="work")

    def receiver():
        yield Timeout(1.0)  # the message is buffered by now
        got.append((yield Get(inbox)).key)

    def holder():
        yield Acquire(lock)
        yield Timeout(5.0)  # torn here
        lock.release()

    def contender():
        yield Acquire(lock)
        got.append(sim.now)
        lock.release()

    def killer(victim):
        yield Timeout(2.0)
        victim.interrupt()

    sim.spawn(sender(), name="sender")
    sim.spawn(receiver(), name="receiver")
    victim = sim.spawn(holder(), name="holder")
    sim.spawn(contender(), name="contender")
    sim.spawn(killer(victim), name="killer")
    sim.run()
    return sim, tags, got


def test_every_seam_fires_and_observing_changes_nothing():
    plain_sim, plain_tags, plain_got = _watched_scenario()
    observer = _CountingObserver()
    sim, tags, got = _watched_scenario(observer)
    assert sim.observer is observer
    assert sorted(observer.calls) == sorted(SEAMS)
    assert observer.forced == [True, False]
    assert got == plain_got == ["a>b:syn#1", 2.0]
    assert sim.steps == plain_sim.steps
    assert tags == plain_tags


def test_unobserved_by_default_and_a_disabled_tracer_stays_out():
    from repro.obs import SpanTracer

    sim = Simulator()
    assert sim.observer is None
    SpanTracer(enabled=False).attach(sim)
    assert sim.observer is None
    tracer = SpanTracer()
    assert tracer.attach(sim) is tracer and sim.observer is tracer
