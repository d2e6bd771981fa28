"""Planted-race rediscovery: the sanitizer's own regression gate.

Two bugs are planted, one per detection layer, each with a properly
locked *control* twin that must stay clean:

* **Atomicity violation on the hint store** -- writers append to a
  hinted-handoff map under ``hints_lock`` but yield *inside* the critical
  section with no ``try/finally``; a fault injector interrupts the holder
  mid-section, the kernel force-releases the lock, and the next holder
  runs causally unordered with the victim's half-done mutation.  The
  control never interrupts, so the lock's release->grant edge serializes
  every access and the tracker must report zero races.

* **Undeclared-shared ring mutation** -- N mutator stages append to a
  shared token list with no lock at all (the dynamic twin of the
  ``undeclared-shared-state`` lint rule, whose static half is exercised
  here on ``Program.from_sources`` fixtures).  Every mutator pair is
  concurrent, so the race window grows quadratically with N -- the
  superlinear signature the sweep classifier must recover.  The control
  serializes the same mutators through ``ring_lock``.

``self_check`` also proves determinism the strong way: both scenario
families run twice and the canonical JSON payloads must be
byte-identical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..analysis.lint import run_rules
from ..canonical import canonical_json
from ..checks import Checks
from ..core.finder import Program
from ..sim.kernel import Acquire, Lock, Simulator, Timeout
from .instrument import TrackedMap, TrackedSeq
from .tracker import RaceTracker

#: Site keys the planted scenarios must surface.
HINT_SITE = "StorageService.hints"
RING_SITE = "Ring.tokens"


# -- planted scenario 1: torn critical section on the hint store -------------------


def hint_store_scenario(writers: int = 6, rounds: int = 3, seed: int = 42,
                        interrupt: bool = True) -> RaceTracker:
    """Writers mutate a locked hint map; the injector tears sections.

    With ``interrupt=False`` this is the control: the identical workload,
    fully serialized by ``hints_lock``, must produce zero races.
    """
    sim = Simulator(seed=seed)
    tracker = RaceTracker().attach(sim)
    lock = Lock(sim, name="hints_lock")
    hints = TrackedMap(tracker, HINT_SITE)

    def writer(idx: int):
        def run():
            for round_no in range(rounds):
                yield Timeout(0.3 + 0.05 * idx + 2.0 * round_no)
                yield Acquire(lock)
                count = hints.get(idx, 0)
                hints[idx] = count          # claim marker: pre-tear write
                # The planted bug: a yield point inside the critical
                # section with no try/finally.  An interrupt lands here,
                # the lock is force-released, and the next holder is
                # causally unordered with the half-done mutation above.
                yield Timeout(0.4)
                hints[idx] = count + 1
                lock.release()
        return run()

    def injector():
        for k in range(writers):
            yield Timeout(0.51 if k == 0 else 0.77)
            victim = lock._holder
            if (victim is not None and lock._entered
                    and not victim.finished):
                victim.interrupt()

    for i in range(writers):
        sim.spawn(writer(i), name=f"writer-{i:03d}")
    if interrupt:
        sim.spawn(injector(), name="injector")
    sim.run(until=2.0 * rounds + writers * 1.0 + 10.0)
    return tracker


# -- planted scenario 2: undeclared-shared ring mutation ---------------------------


def ring_mutation_scenario(mutators: int = 8, rounds: int = 2,
                           seed: int = 42, locked: bool = False
                           ) -> RaceTracker:
    """N stages mutate a shared token list; ``locked`` is the control."""
    sim = Simulator(seed=seed)
    tracker = RaceTracker().attach(sim)
    lock = Lock(sim, name="ring_lock")
    tokens = TrackedSeq(tracker, RING_SITE)

    def mutator(idx: int):
        def run():
            for round_no in range(rounds):
                yield Timeout(0.1 * (idx + 1) + 1.0 * round_no)
                if locked:
                    yield Acquire(lock)
                position = len(tokens)
                tokens.append((idx, round_no, position))
                if locked:
                    lock.release()
        return run()

    for i in range(mutators):
        sim.spawn(mutator(i), name=f"mutator-{i:03d}")
    sim.run(until=1.0 * rounds + 0.1 * mutators + 10.0)
    return tracker


def planted_ladders(scales: Tuple[int, ...] = (8, 16, 32, 64),
                    seed: int = 42) -> Dict[str, Dict[int, int]]:
    """Race-window counts per scale for both planted bugs (T-SAN table)."""
    return {
        "atomicity": {n: hint_store_scenario(writers=n, seed=seed).race_pairs
                      for n in scales},
        "undeclared": {n: ring_mutation_scenario(mutators=n,
                                                 seed=seed).race_pairs
                       for n in scales},
    }


# -- static fixtures ---------------------------------------------------------------

_PLANTED_STATIC = '''\
class Ring:
    def __init__(self):
        self.tokens = []

    def start(self, sim):
        sim.spawn(self._mutate_stage(), name="mutate")
        sim.spawn(self._drain_stage(), name="drain")

    def _mutate_stage(self):
        while True:
            self.tokens.append(1)
            yield 1

    def _drain_stage(self):
        while True:
            total = len(self.tokens)
            yield total
'''

_CONTROL_STATIC = '''\
from repro.annotations import lock_protects

lock_protects("ring_lock", "tokens")


class Ring:
    def __init__(self):
        self.tokens = []
        self.ring_lock = Lock(None, name="ring_lock")

    def start(self, sim):
        sim.spawn(self._mutate_stage(), name="mutate")
        sim.spawn(self._drain_stage(), name="drain")

    def _mutate_stage(self):
        while True:
            yield Acquire(self.ring_lock)
            self.tokens.append(1)
            self.ring_lock.release()
            yield 1

    def _drain_stage(self):
        while True:
            yield Acquire(self.ring_lock)
            total = len(self.tokens)
            self.ring_lock.release()
            yield total
'''

_DEAD_ANNOTATION_STATIC = _PLANTED_STATIC + '''
from repro.annotations import lock_protects

lock_protects("stale_lock", "tokens")
'''


def _static_findings(source: str, rule: str) -> List[Any]:
    findings, _drift = run_rules(
        Program.from_sources({"planted.ring": source}))
    return [f for f in findings if f.rule == rule]


# -- the gate ----------------------------------------------------------------------


def _scenario_payload(seed: int) -> Dict[str, Any]:
    """Everything the determinism check compares, canonically."""
    return {
        "atomicity": hint_store_scenario(seed=seed).to_dict(),
        "atomicity_control": hint_store_scenario(
            seed=seed, interrupt=False).to_dict(),
        "undeclared": ring_mutation_scenario(seed=seed).to_dict(),
        "undeclared_control": ring_mutation_scenario(
            seed=seed, locked=True).to_dict(),
    }


def self_check(seed: int = 42) -> Checks:
    """Assert both planted races are rediscovered and controls are clean."""
    checks = Checks()

    torn = hint_store_scenario(seed=seed)
    checks.add(
        "atomicity: interrupt-forced-release on the hint store rediscovered",
        (torn.race_pairs > 0
         and len(torn.forced_release_records) > 0
         and HINT_SITE in torn.site_races),
        f"{torn.race_pairs} race pair(s),"
        f" {len(torn.forced_release_records)} forced release(s)"
        f" on {HINT_SITE}",
    )
    torn_control = hint_store_scenario(seed=seed, interrupt=False)
    checks.add(
        "atomicity control: lock-serialized writers are race-free",
        torn_control.race_pairs == 0,
        f"{torn_control.race_pairs} race pair(s)"
        f" across {torn_control.accesses} tracked access(es)",
    )

    ring = ring_mutation_scenario(seed=seed)
    expected_pairs = 8 * 7 // 2    # every mutator pair, counted once
    checks.add(
        "undeclared-shared: unlocked ring mutation rediscovered",
        ring.race_pairs == expected_pairs and RING_SITE in ring.site_races,
        f"{ring.race_pairs}/{expected_pairs} mutator pair(s) unordered"
        f" on {RING_SITE}",
    )
    ring_control = ring_mutation_scenario(seed=seed, locked=True)
    checks.add(
        "undeclared-shared control: ring_lock serializes the same mutators",
        ring_control.race_pairs == 0,
        f"{ring_control.race_pairs} race pair(s)"
        f" across {ring_control.accesses} tracked access(es)",
    )

    planted = _static_findings(_PLANTED_STATIC, "undeclared-shared-state")
    control = _static_findings(_CONTROL_STATIC, "undeclared-shared-state")
    checks.add(
        "static: undeclared-shared-state fires on the planted ring fixture",
        len(planted) == 1 and not control,
        f"{len(planted)} finding(s) planted, {len(control)} on the"
        " lock_protects control",
    )
    dead = _static_findings(_DEAD_ANNOTATION_STATIC, "dead-lock-annotation")
    dead_control = _static_findings(_CONTROL_STATIC, "dead-lock-annotation")
    checks.add(
        "static: dead-lock-annotation fires on the stale_lock fixture",
        len(dead) == 1 and not dead_control,
        f"{len(dead)} stale annotation(s) found, {len(dead_control)} on the"
        " live control",
    )

    first = canonical_json(_scenario_payload(seed))
    second = canonical_json(_scenario_payload(seed))
    checks.add(
        "determinism: planted-scenario reports are byte-identical",
        first == second,
        f"{len(first)} canonical byte(s), two runs compared",
    )
    return checks
