"""Outside-in span tracer: time calls into a layer's public functions.

The benchmark measures layers without editing them.  In the traced child
process it swaps a public callable (a method on its class, or a module-level
function in every namespace that bound it) for a wrapper that records a
span around each call; ``uninstall`` puts every original back.

Self time is computed online with a stack: when a span closes, its duration
is added to its parent's "covered by children" accumulator, and its own
self time is its duration minus its own accumulator.  Recursion needs no
special case -- an inner span of the same name is simply a child -- and the
self times of all spans under a root always sum to the root's duration.

Generator functions (simulated processes ``yield`` effects) are wrapped so
that every resumption of the generator body is one span; the invocation is
counted once.  The proxy forwards ``send``/``throw``/``close``, so a
``yield from`` caller sees the same protocol as with the bare generator.

Spans stay in memory and are dumped as JSON lines when the run ends.  A hot
callable can open a million spans, so only the first ``span_cap`` spans of
each name are kept as records; the per-name totals always count every span.
"""

from __future__ import annotations

import json
import random
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Per-name statistics record: [calls, self seconds, spans].
CALLS, SELF_S, SPANS = 0, 1, 2

Before = Callable[[tuple], Any]
After = Callable[[Any, tuple, Any], None]


class Tracer:
    """Span stack, per-name totals, and the wrappers that feed them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 span_cap: int = 2000) -> None:
        self.clock = clock
        self.span_cap = span_cap
        #: name -> [calls, self_s, spans]
        self.stats: Dict[str, List[float]] = {}
        #: Free-form counts the ``before``/``after`` hooks accumulate.
        self.counters: Dict[str, float] = {}
        #: Kept span records: (id, parent id, name, start, end).
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self._child: List[float] = []   # per open span: seconds its children cover
        self._ids: List[int] = []       # per open span: its id
        self._next = [0]
        self._patches: List[Tuple[Any, str, Any]] = []
        self._uncounted: Dict[str, List[Callable[[], int]]] = {}
        #: What two back-to-back clock reads measure; taken off every
        #: sampled duration before it is weighted, or the weight would
        #: multiply the timer's own cost into sub-microsecond callables.
        self._clock_cost = sorted(-(clock() - clock()) for _ in range(201))[100]

    # -- spans -------------------------------------------------------------------

    def _stat(self, name: str) -> List[float]:
        return self.stats.setdefault(name, [0, 0.0, 0])

    def _enter(self) -> float:
        self._next[0] += 1
        self._ids.append(self._next[0])
        self._child.append(0.0)
        return self.clock()

    def _exit(self, name: str, stat: List[float], start: float) -> None:
        end = self.clock()
        span_id = self._ids.pop()
        duration = end - start
        stat[SELF_S] += duration - self._child.pop()
        if self._child:
            self._child[-1] += duration
        stat[SPANS] += 1
        if stat[SPANS] <= self.span_cap:
            parent = self._ids[-1] if self._ids else 0
            self.spans.append((span_id, parent, name, start, end))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """An explicit span (the benchmark's own round and timed section)."""
        stat = self._stat(name)
        stat[CALLS] += 1
        start = self._enter()
        try:
            yield
        finally:
            self._exit(name, stat, start)

    def add(self, counter: str, amount: float = 1.0) -> None:
        """Accumulate a named count (used by wrapper hooks)."""
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    # -- wrappers ----------------------------------------------------------------

    def _call_wrapper(self, fn: Callable, name: str, before: Optional[Before],
                      after: Optional[After]) -> Callable:
        stat = self._stat(name)
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            stat[CALLS] += 1
            start = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(name, stat, start)
            if after is not None:
                after(token, args, result)
            return result

        return wrapper

    def _sampled_wrapper(self, fn: Callable, name: str, every: int) -> Callable:
        """Time one call in ``every`` on average, weighted by ``every``.

        For callables hot enough that timing each call would cost more than
        the call.  The gaps between timed calls are drawn from a generator
        seeded per wrapper (uniform on 1 .. 2*every-1): a fixed stride locks
        onto periodic callers and measures the same phase every time, and
        one sequence shared by two wrappers times a callee only when its
        caller is timed.  An untimed call opens no span, so spans inside it
        are children of its caller.  A timed call charges its caller with
        what its own children covered plus the *weighted* self time, which
        is the estimate for the untimed calls as well; so self times still
        sum to the root's duration.  Sampled spans are summarised, never
        kept as records.
        """
        stat = self._stat(name)
        clock, child, clock_cost = self.clock, self._child, self._clock_cost
        draw = random.Random(f"{name}#{len(self._patches)}").randrange
        gaps = [draw(1, 2 * every) for _ in range(4096)]
        index = 0
        left = gaps[0]   # calls until the next timed one

        def wrapper(*args, **kwargs):
            nonlocal left, index
            left -= 1
            if left:
                return fn(*args, **kwargs)
            stat[CALLS] += gaps[index]
            index = (index + 1) % 4096
            left = gaps[index]
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start - clock_cost
                covered = child.pop()
                weighted = (duration - covered) * every
                stat[SELF_S] += weighted
                stat[SPANS] += 1
                if child:
                    child[-1] += covered + weighted

        # Calls since the last timed one are not in ``stat`` yet.
        self._uncounted.setdefault(name, []).append(
            lambda: gaps[index] - left)
        return wrapper

    def _gen_wrapper(self, fn: Callable, name: str, before: Optional[Before],
                     after: Optional[After]) -> Callable:
        stat = self._stat(name)

        def drive(gen, token, args):
            method, payload = gen.send, None
            try:
                while True:
                    start = self._enter()
                    try:
                        effect = method(payload)
                    except StopIteration as stop:
                        if after is not None:
                            after(token, args, stop.value)
                        return stop.value
                    finally:
                        self._exit(name, stat, start)
                    try:
                        payload = yield effect
                        method = gen.send
                    except GeneratorExit:
                        raise
                    except BaseException as exc:  # forwarded, not handled
                        method, payload = gen.throw, exc
            finally:
                gen.close()

        def wrapper(*args, **kwargs):
            stat[CALLS] += 1
            token = before(args) if before is not None else None
            return drive(fn(*args, **kwargs), token, args)

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, generator: bool = False,
             before: Optional[Before] = None,
             after: Optional[After] = None, sample_every: int = 1) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a wrapper.

        ``before(args)`` runs ahead of the span and its return value is
        handed to ``after(token, args, result)`` once the call (or the
        generator) has returned; both run outside the timed interval.
        ``sample_every > 1`` selects the sampled wrapper (no hooks).
        """
        original = vars(owner)[attr]
        if sample_every > 1:
            wrapper = self._sampled_wrapper(original, name, sample_every)
        else:
            make = self._gen_wrapper if generator else self._call_wrapper
            wrapper = make(original, name, before, after)
        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_implementations(self, base: type, attr: str, name: str,
                             **kwargs) -> int:
        """Wrap ``attr`` on ``base`` and every subclass that defines it."""
        pending, seen, wrapped = [base], set(), 0
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if attr in vars(cls):
                self.wrap(cls, attr, name, **kwargs)
                wrapped += 1
        return wrapped

    def wrap_function(self, fn: Callable, name: str, **kwargs) -> int:
        """Wrap a module-level function in every namespace that bound it."""
        wrapped = 0
        for module in list(sys.modules.values()):
            if module is None:
                continue
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                if value is fn:
                    self.wrap(module, attr, name, **kwargs)
                    wrapped += 1
        return wrapped

    def uninstall(self) -> int:
        """Put every original back (last wrapped first); returns leftovers.

        A leftover is a patched attribute that no longer holds the wrapper
        the tracer put there or that did not end up holding the original.
        """
        leftovers = 0
        while self._patches:
            owner, attr, original = self._patches.pop()
            current = vars(owner).get(attr)
            if getattr(current, "__wrapped__", None) is not original:
                leftovers += 1
            setattr(owner, attr, original)
            if vars(owner).get(attr) is not original:
                leftovers += 1
        return leftovers

    # -- results -----------------------------------------------------------------

    def calls(self, name: str) -> int:
        """Invocations recorded under ``name`` (0 when never called)."""
        return int(self.stats.get(name, (0, 0.0, 0))[CALLS]) + sum(
            pending() for pending in self._uncounted.get(name, ()))

    def self_s(self, *names: str) -> float:
        """Summed self time of the named spans."""
        return sum(self.stats.get(name, (0, 0.0, 0))[SELF_S] for name in names)

    def dump_jsonl(self, path) -> None:
        """Write kept spans, then one summary line per name."""
        origin = min((span[3] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start - origin, "end": end - origin}) + "\n")
            for name in sorted(self.stats):
                _calls, self_seconds, spans = self.stats[name]
                out.write(json.dumps({
                    "summary": name, "calls": self.calls(name),
                    "spans": int(spans), "self_s": self_seconds}) + "\n")
