"""Failure injection: what breaks when a NON-PIL-safe function takes the PIL.

DESIGN.md ablation 5.  The paper's rule (section 5): a PIL-safe function
must have a memoizable output and no side effects (disk I/O, network
messages, locks).  These tests demonstrate *why* each half of the rule
exists by deliberately violating it with the wall-clock PIL wrapper and
observing the divergence -- and show that the finder would have refused
the replacement up front.
"""

import pytest

from repro.analysis import Program
from repro.core.memoization import MemoDB
from repro.core.pilfunc import PilFunction
from repro.annotations import AnnotationRegistry, scale_dependent


class Network:
    """Stand-in for a side-effect channel (e.g. gossip sends)."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


def test_replaying_a_side_effecting_function_loses_its_effects():
    network = Network()

    def announce_and_sum(values, net):
        total = sum(values)
        net.send(("total", total))        # side effect: a network message
        return total

    db = MemoDB()
    shim = PilFunction(announce_and_sum, db, time_scale=0.0,
                       key_fn=lambda args, kwargs: str(tuple(args[0])))
    # Recording run: effect happens.
    assert shim((1, 2, 3), network) == 6
    assert network.sent == [("total", 6)]
    # PIL replay: output is right, but the message is silently GONE --
    # the cluster-visible behaviour diverges.  This is why the rule bans
    # side effects.
    shim.replay()
    assert shim((1, 2, 3), network) == 6
    assert network.sent == [("total", 6)]   # no second send!


def test_replaying_a_nondeterministic_function_freezes_one_outcome():
    import random

    rng = random.Random(1)

    def pick(values):
        return rng.choice(list(values))

    db = MemoDB()
    shim = PilFunction(pick, db, time_scale=0.0,
                       key_fn=lambda args, kwargs: str(tuple(args[0])))
    first = shim((1, 2, 3, 4, 5, 6, 7, 8))
    shim.replay()
    # Replay pins the recorded draw forever: the function's distribution
    # is destroyed (not memoizable => not PIL-safe).
    for __ in range(10):
        assert shim((1, 2, 3, 4, 5, 6, 7, 8)) == first


def test_replaying_a_stateful_function_returns_stale_output():
    class Counter:
        def __init__(self):
            self.count = 0

    counter = Counter()

    def bump(tag):
        counter.count += 1
        return counter.count

    db = MemoDB()
    shim = PilFunction(bump, db, time_scale=0.0)
    assert shim("x") == 1
    shim.replay()
    assert shim("x") == 1          # stale output...
    assert counter.count == 1      # ...and the state update never happened


def test_finder_would_have_refused_each_replacement():
    """The analysis catches all three violation classes statically."""
    registry = AnnotationRegistry()
    scale_dependent("values", registry=registry)
    source = """
def announce_and_sum(values, net):
    total = 0
    for v in values:
        total += v
    net.send(("total", total))
    return total

def pick(values, rng):
    items = list(values)
    return rng.choice(items)

class Holder:
    def bump(self, values):
        for v in values:
            self.count = self.count + 1
        return self.count
"""
    report = Program.from_sources({"m": source}, registry).modules["m"].report
    assert not report.get("announce_and_sum").pil_safe(registry)   # network
    assert not report.get("pick").pil_safe(registry)               # nondet
    assert not report.get("Holder.bump").pil_safe(registry)        # state


def test_safe_function_replay_is_faithful_by_contrast():
    def pure(values):
        return sorted(values)[0]

    db = MemoDB()
    shim = PilFunction(pure, db, time_scale=0.0,
                       key_fn=lambda args, kwargs: str(tuple(args[0])))
    recorded = shim((3, 1, 2))
    shim.replay()
    assert shim((3, 1, 2)) == recorded == 1
