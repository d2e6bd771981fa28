"""The discrete-event simulation kernel.

Simulated node logic is written as Python generators ("processes") that
``yield`` effect objects -- :class:`Timeout`, :class:`Get`, :class:`Acquire`,
:class:`Join`, :class:`Compute` -- and are resumed by the kernel when the
effect completes.  This mirrors how the paper's target systems structure node
logic as threads blocking on queues, locks, and computation, while keeping
everything in one OS process and one virtual clock (the paper's section 6
"global event-driven architecture" made literal).

Example::

    sim = Simulator(seed=1)

    def ticker(sim):
        while True:
            yield Timeout(1.0)
            print("tick at", sim.now)

    sim.spawn(ticker(sim), name="ticker")
    sim.run(until=5.0)
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional

from .events import Event, Trace, PRIORITY_NORMAL, make_queue
from .rng import SplittableRng


class SimError(RuntimeError):
    """Base class for kernel errors."""


class Effect:
    """Base class for everything a process may ``yield``.

    Subclasses implement :meth:`enact`, which arranges for
    ``process.resume(value)`` to be called when the effect completes.
    """

    def enact(self, sim: "Simulator", process: "Process") -> None:
        """Arrange for the process to resume when the effect completes."""
        raise NotImplementedError


class Timeout(Effect):
    """Suspend the process for ``delay`` virtual seconds."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.delay = delay

    def enact(self, sim: "Simulator", process: "Process") -> None:
        """Arrange for the process to resume when the effect completes."""
        process.pending_event = sim.schedule(
            self.delay, lambda: process.resume(None), tag=process._timeout_tag
        )


class Get(Effect):
    """Receive the next item from a :class:`Channel` (blocking)."""

    def __init__(self, channel: "Channel") -> None:
        self.channel = channel

    def enact(self, sim: "Simulator", process: "Process") -> None:
        """Arrange for the process to resume when the effect completes."""
        self.channel._register_getter(process)


class Acquire(Effect):
    """Acquire a :class:`Lock` (FIFO, blocking)."""

    def __init__(self, lock: "Lock") -> None:
        self.lock = lock

    def enact(self, sim: "Simulator", process: "Process") -> None:
        """Arrange for the process to resume when the effect completes."""
        self.lock._register_acquirer(process)


class Join(Effect):
    """Wait until another process terminates; resumes with its return value."""

    def __init__(self, other: "Process") -> None:
        self.other = other

    def enact(self, sim: "Simulator", process: "Process") -> None:
        """Arrange for the process to resume when the effect completes."""
        if self.other.finished:
            sim.schedule(0.0, lambda: process.resume(self.other.result))
        else:
            self.other._joiners.append(process)


class Compute(Effect):
    """Execute ``cost`` seconds of CPU demand on a CPU resource.

    The elapsed virtual time depends on the CPU model (dedicated, shared,
    PIL); the process resumes with the actual elapsed duration.
    """

    def __init__(self, cpu: "CpuModel", cost: float, tag: str = "") -> None:
        if cost < 0:
            raise ValueError(f"negative compute cost: {cost}")
        self.cpu = cpu
        self.cost = cost
        self.tag = tag

    def enact(self, sim: "Simulator", process: "Process") -> None:
        """Arrange for the process to resume when the effect completes."""
        self.cpu.submit(self.cost, process, self.tag)


class Process:
    """A running generator, scheduled cooperatively by the kernel."""

    def __init__(self, sim: "Simulator", gen: Generator, name: str) -> None:
        self.sim = sim
        self.gen = gen
        self.name = name
        #: Precomputed trace tag for Timeout events (hot path: one string
        #: build per process instead of one per sleep).
        self._timeout_tag = f"timeout:{name}"
        self.finished = False
        #: Reentrancy guard: ``interrupt()`` runs the generator's
        #: ``finally`` blocks, which may recursively interrupt (a node's
        #: ``stop()`` called from cleanup); the nested call must no-op.
        self._interrupting = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.pending_event: Optional[Event] = None
        self._joiners: List["Process"] = []
        #: The Channel/Lock this process is currently parked in, so that
        #: ``interrupt`` can deregister it (a dead process left in a wait
        #: queue eats a delivery or a lock grant).
        self.wait_target: Optional[Any] = None
        #: Locks currently held, so ``interrupt`` can force-release them
        #: (an interrupted holder would otherwise deadlock all waiters).
        self.held_locks: List["Lock"] = []

    def resume(self, value: Any) -> None:
        """Advance the generator with ``value`` and enact its next effect."""
        if self.finished:
            return
        self.pending_event = None
        self.wait_target = None
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.point("resume", self.name)
        race = self.sim.race_tracker
        if race is not None:
            # Join the ambient clock (whoever caused this resume) and any
            # staged channel-item clock into this process's vector clock.
            race.on_resume(self)
        try:
            effect = self.gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:  # surface process crashes loudly
            self.error = exc
            self._finish(None)
            if self.sim.strict:
                raise
            return
        if not isinstance(effect, Effect):
            raise SimError(
                f"process {self.name!r} yielded {effect!r}, expected an Effect"
            )
        effect.enact(self.sim, self)

    def interrupt(self) -> None:
        """Abort the process (used by fault injection).

        Interruption leaves no dangling kernel state: the pending event is
        cancelled, the process is deregistered from whatever channel or
        lock wait queue it is parked in, and any lock it still holds after
        its generator's ``finally`` blocks ran is force-released so waiters
        do not deadlock.
        """
        if self.finished or self._interrupting:
            return
        self._interrupting = True
        if self.pending_event is not None:
            self.pending_event.cancel()
            self.pending_event = None
        if self.wait_target is not None:
            self.wait_target._discard_waiter(self)
            self.wait_target = None
        race = self.sim.race_tracker
        if race is not None:
            race.on_interrupt(self)
        # Close before force-releasing: a well-behaved finally block may
        # release() its own locks, which removes them from held_locks.
        self.gen.close()
        for lock in list(self.held_locks):
            lock._holder_interrupted(self)
        self.held_locks.clear()
        self._finish(None)

    def _finish(self, result: Any) -> None:
        self.finished = True
        self.result = result
        for joiner in self._joiners:
            self.sim.schedule(0.0, lambda j=joiner: j.resume(self.result))
        self._joiners.clear()


class Channel:
    """An unbounded FIFO message queue with blocking receivers.

    Models one SEDA-style stage input queue (e.g. a node's GossipStage).
    Tracks queueing-delay statistics, which feed the "event lateness"
    colocation bottleneck from the paper's section 8.
    """

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._tag = f"chan:{name}"
        self._items: Deque = deque()
        self._enqueue_times: Deque[float] = deque()
        self._getters: Deque[Process] = deque()
        self.total_enqueued = 0
        self.total_wait = 0.0
        self.max_wait = 0.0
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Enqueue ``item``; wakes one waiting getter if any."""
        self.total_enqueued += 1
        self._deliver_or_buffer(item)

    def _deliver_or_buffer(self, item: Any) -> None:
        while self._getters:
            getter = self._getters.popleft()
            if getter.finished:  # interrupted while parked; skip it
                continue
            self._hand_off(getter, item)
            return
        self._items.append(item)
        self._enqueue_times.append(self.sim.now)
        race = self.sim.race_tracker
        if race is not None:
            # A buffered item carries the putter's clock until some getter
            # pops it (possibly much later, in a different causal context).
            race.on_channel_buffer(self)
        self.max_depth = max(self.max_depth, len(self._items))

    def _hand_off(self, getter: Process, item: Any, vc: Any = None) -> None:
        """Schedule delivery; if the getter dies before the event fires,
        the item is re-delivered instead of vanishing with it.

        ``vc`` is the put-time vector clock of a *buffered* item (direct
        put->getter hand-offs inherit the putter's clock from the event
        itself); it rides along so the eventual consumer joins it.
        """
        def fire() -> None:
            race = self.sim.race_tracker
            if getter.finished:
                if race is not None and vc is not None:
                    with race.ambient_as(vc):
                        self._deliver_or_buffer(item)
                else:
                    self._deliver_or_buffer(item)
            else:
                if race is not None and vc is not None:
                    race.stage_join(getter, vc)
                getter.resume(item)
        self.sim.schedule(0.0, fire, tag=self._tag)

    def _register_getter(self, process: Process) -> None:
        if self._items:
            item = self._items.popleft()
            waited = self.sim.now - self._enqueue_times.popleft()
            self.total_wait += waited
            self.max_wait = max(self.max_wait, waited)
            tracer = self.sim.tracer
            if tracer is not None and tracer.enabled and waited > 0.0:
                tracer.span(self.sim.now - waited, self.sim.now, "queue",
                            self.name, node=process.name)
            race = self.sim.race_tracker
            vc = race.on_channel_pop(self) if race is not None else None
            self._hand_off(process, item, vc)
        else:
            process.wait_target = self
            self._getters.append(process)

    def _discard_waiter(self, process: Process) -> None:
        """Remove an interrupted process from the getter queue."""
        try:
            self._getters.remove(process)
        except ValueError:
            pass

    def mean_wait(self) -> float:
        """Mean queueing delay of items that have been dequeued."""
        dequeued = self.total_enqueued - len(self._items)
        return self.total_wait / dequeued if dequeued else 0.0


class Lock:
    """A FIFO mutual-exclusion lock in virtual time.

    Models the coarse-grained ring-table lock of CASSANDRA-5456: the
    pending-range calculation holds it for seconds while the gossip stage
    blocks.  Hold times are recorded for diagnosis.
    """

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._holder: Optional[Process] = None
        self._waiters: Deque[Process] = deque()
        self._acquired_at = 0.0
        self.total_hold = 0.0
        self.max_hold = 0.0
        self.total_wait = 0.0
        self.max_wait = 0.0
        self.contended_acquires = 0
        #: Holders interrupted mid-critical-section (fault injection);
        #: each one force-released the lock so waiters could proceed.
        self.forced_releases = 0
        #: True once the current holder actually resumed inside its
        #: critical section.  A process interrupted in the grant window
        #: (lock assigned, resume event not yet fired) never entered, so
        #: its hand-back is clean -- not a torn critical section -- and
        #: must not count as a forced release.
        self._entered = False
        self._wait_started: dict = {}

    @property
    def held(self) -> bool:
        """True while some process holds the lock."""
        return self._holder is not None

    def _register_acquirer(self, process: Process) -> None:
        if self._holder is None:
            self._grant(process, waited=0.0)
        else:
            self.contended_acquires += 1
            self._wait_started[id(process)] = self.sim.now
            process.wait_target = self
            self._waiters.append(process)

    def _grant(self, process: Process, waited: float) -> None:
        self._holder = process
        self._acquired_at = self.sim.now
        self.total_wait += waited
        self.max_wait = max(self.max_wait, waited)
        process.wait_target = None
        process.held_locks.append(self)
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled and waited > 0.0:
            tracer.span(self.sim.now - waited, self.sim.now, "lock-wait",
                        self.name, node=process.name)
        self._entered = False
        # The grant resume is this process's pending event (like a
        # Timeout's), so interrupting in the grant window cancels it
        # instead of leaving a dead event to fire on a finished process.
        process.pending_event = self.sim.schedule(
            0.0, lambda: self._enter(process))

    def _enter(self, process: Process) -> None:
        """Fire a granted acquire: the holder enters its critical section."""
        if self._holder is process:
            self._entered = True
            race = self.sim.race_tracker
            if race is not None:
                race.on_lock_enter(self, process)
        process.resume(self)

    def _discard_waiter(self, process: Process) -> None:
        """Purge an interrupted process from the wait queue and stats."""
        try:
            self._waiters.remove(process)
        except ValueError:
            return
        self._wait_started.pop(id(process), None)

    def _record_hold(self, holder: Process) -> None:
        held_for = self.sim.now - self._acquired_at
        self.total_hold += held_for
        self.max_hold = max(self.max_hold, held_for)
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.span(self._acquired_at, self.sim.now, "lock-hold",
                        self.name, node=holder.name)
        if self in holder.held_locks:
            holder.held_locks.remove(self)
        self._holder = None

    def _grant_next(self) -> None:
        """Hand the lock to the longest-waiting *live* process, if any."""
        while self._waiters:
            nxt = self._waiters.popleft()
            started = self._wait_started.pop(id(nxt), self.sim.now)
            if nxt.finished:  # interrupted while queued; skip it
                continue
            self._grant(nxt, waited=self.sim.now - started)
            return

    def release(self) -> None:
        """Release the lock; the longest-waiting process acquires next."""
        if self._holder is None:
            raise SimError(f"release of unheld lock {self.name!r}")
        race = self.sim.race_tracker
        if race is not None:
            # A *clean* release carries the holder's clock forward through
            # the lock, so even an uncontended next acquire is ordered
            # after this critical section (forced releases do not).
            race.on_lock_release(self)
        self._record_hold(self._holder)
        self._grant_next()

    def _holder_interrupted(self, process: Process) -> None:
        """Force-release on behalf of an interrupted holder.

        Without this an interrupted critical section leaves the lock held
        forever and every waiter deadlocks (the fault-injection engine
        kills processes at arbitrary points, including inside ``Acquire``
        ... ``release`` windows).
        """
        if self._holder is not process:
            return
        if self._entered:
            self.forced_releases += 1
            race = self.sim.race_tracker
            if race is not None:
                # Deliberately *no* happens-before edge here: the torn
                # critical section leaves the next holder causally
                # unordered with the victim's accesses, which is exactly
                # the atomicity violation the sanitizer reports.
                race.on_forced_release(self.name, process.name, self.sim.now)
        self._record_hold(process)
        self._grant_next()


class Simulator:
    """The virtual-time event loop.

    Parameters
    ----------
    seed:
        Root seed for all named random streams (:class:`SplittableRng`).
    trace:
        When true, record a :class:`~repro.sim.events.Trace` of message
        deliveries and other annotated happenings.
    strict:
        When true (the default), an exception inside a process propagates
        out of :meth:`run` instead of silently killing the process.
    """

    def __init__(self, seed: int = 0, trace: bool = False,
                 strict: bool = True) -> None:
        self.now = 0.0
        self.events = make_queue()
        self.rng = SplittableRng(seed)
        self.trace = Trace(enabled=trace)
        self.strict = strict
        self.processes: List[Process] = []
        self._steps = 0
        #: Optional :class:`repro.obs.tracer.SpanTracer`.  Every emission
        #: site guards on ``tracer is not None and tracer.enabled``, so an
        #: untraced run pays one attribute load per site and nothing else.
        self.tracer: Optional[Any] = None
        #: Optional :class:`repro.sanitize.tracker.RaceTracker`.  Same
        #: zero-cost contract as ``tracer``: every kernel hook guards on
        #: ``race_tracker is not None``, so an unsanitized run pays one
        #: attribute load per site.  Attach before the first event fires
        #: and leave attached for the whole run (the channel-buffer VC
        #: bookkeeping assumes symmetric enable/disable).
        self.race_tracker: Optional[Any] = None

    # -- scheduling ---------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
        tag: str = "",
    ) -> Event:
        """Run ``callback`` after ``delay`` virtual seconds."""
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        tracker = self.race_tracker
        if tracker is not None:
            # Capture the scheduler's causal context (the ambient vector
            # clock) into the event, so firing it restores the context of
            # whoever scheduled it.  This one hook derives the spawn,
            # timeout, network-delivery, lock-grant and join
            # happens-before edges without touching any of those sites.
            callback = tracker.bind(callback)
        return self.events.push(self.now + delay, callback, priority, tag)

    def spawn(self, gen: Generator, name: str = "proc") -> Process:
        """Start a generator as a process at the current time."""
        process = Process(self, gen, name)
        self.processes.append(process)
        self.schedule(0.0, lambda: process.resume(None), tag=f"spawn:{name}")
        return process

    def channel(self, name: str = "") -> Channel:
        """Create a new FIFO channel."""
        return Channel(self, name)

    def lock(self, name: str = "") -> Lock:
        """Create a new FIFO lock."""
        return Lock(self, name)

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Fire the earliest event.  Returns False when the queue is empty."""
        event = self.events.pop()
        if event is None:
            return False
        if event.time < self.now:
            raise SimError(
                f"time went backwards: {event.time} < {self.now} ({event.tag})"
            )
        self.now = event.time
        self._steps += 1
        event.callback()
        return True

    def run(self, until: Optional[float] = None, max_steps: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or step budget ends."""
        budget = max_steps if max_steps is not None else float("inf")
        limit = float("inf") if until is None else until
        events = self.events
        pop_due = events.pop_due
        while budget > 0:
            # One merged traversal instead of the peek_time + pop pair the
            # loop used to pay per event.
            event = pop_due(limit)
            if event is None:
                break
            if event.time < self.now:
                raise SimError(
                    f"time went backwards: {event.time} < {self.now} ({event.tag})"
                )
            self.now = event.time
            self._steps += 1
            event.callback()
            budget -= 1
        # Advance the clock to the horizon on every exit path (drained
        # queue, next event past the horizon, step budget exhausted) --
        # but never past the earliest unfired event.
        if until is not None and self.now < until:
            next_time = self.events.peek_time()
            self.now = until if next_time is None else min(until, next_time)

    @property
    def steps(self) -> int:
        """Number of events fired so far (diagnostic)."""
        return self._steps
