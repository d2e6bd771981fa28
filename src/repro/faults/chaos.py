"""Seeded random chaos-schedule generation.

``generate_schedule(nodes, seed, config)`` draws a plausible storm of
cluster misfortune -- crash/restart churn, partitions that heal, lossy
links, slow disks, CPU antagonists -- from one ``random.Random(seed)``
stream, so the same (nodes, seed, config) triple always yields the same
schedule.  The generator is deliberately self-contained (it does not touch
the simulator's RNG): generating a schedule never perturbs the run that
enacts it.

The knobs live in :class:`ChaosConfig`: how many faults, when, of which
kinds, and the crash and partition bounds.  The module constants below
bound the rest of the blast radius (partition size, degrade severity,
antagonist counts), so generated schedules stay survivable -- the goal is
to *amplify* protocol symptoms, not to kill the whole cluster.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from .primitives import (
    CpuStress,
    DiskDegrade,
    Fault,
    Heal,
    LinkDegrade,
    NodeCrash,
    NodeRestart,
    PartitionCut,
)
from .schedule import FaultSchedule


def _default_weights() -> Dict[str, float]:
    return {
        NodeCrash.kind: 3.0,
        PartitionCut.kind: 2.0,
        LinkDegrade.kind: 2.0,
        CpuStress.kind: 1.0,
        DiskDegrade.kind: 1.0,
    }


#: Partition minority side size, as a fraction of the cluster.
PARTITION_FRACTION = 0.25
#: Link-degrade drop probability, latency-multiplier and duration ranges.
DROP_P = (0.2, 0.9)
LATENCY_MULT = (2.0, 10.0)
DEGRADE_DURATION = (5.0, 40.0)
#: CPU-stress antagonist count and duration ranges.
HOGS = (1, 4)
STRESS_DURATION = (5.0, 20.0)
#: Disk throttle factor and duration ranges.
DISK_FACTOR = (0.05, 0.5)
DISK_DURATION = (5.0, 30.0)


@dataclass
class ChaosConfig:
    """What a chaos schedule can be told: the event count, the window, the
    kind weights, and the crash and partition bounds.  The other bounds
    are this module's constants (:data:`DROP_P` and the rest)."""

    #: Number of primary fault events to draw (restarts and heals that pair
    #: with crashes/partitions come on top).
    events: int = 8
    #: Virtual-time window [start, horizon] events are placed in.
    start: float = 0.0
    horizon: float = 120.0
    #: Relative draw weights per fault kind (missing kinds are never drawn).
    weights: Dict[str, float] = field(default_factory=_default_weights)
    #: Crashed nodes are restarted after [min, max] seconds of downtime.
    outage: tuple = (5.0, 30.0)
    #: Fraction of crashes left permanent (no matching restart).
    permanent_crash_p: float = 0.2
    #: [min, max] seconds before a partition's matching heal.
    partition_duration: tuple = (5.0, 30.0)
    #: Never have more than this fraction of the cluster crashed at once.
    max_down_fraction: float = 0.34


def _uniform(rng: random.Random, bounds) -> float:
    """One bounded uniform draw from the schedule's single RNG."""
    return rng.uniform(bounds[0], bounds[1])


def _draw_crash(rng: random.Random, when: float, population: Sequence[str],
                down: Dict[str, float], max_down: int,
                config: ChaosConfig) -> List[Fault]:
    """Draw a crash (and usually its restart) against the live population."""
    up = [n for n, until in sorted(down.items()) if until <= when]
    for node in up:
        del down[node]
    candidates = [n for n in population if n not in down]
    if not candidates or len(down) >= max_down:
        return []
    victim = rng.choice(candidates)
    events: List[Fault] = [NodeCrash(time=when, node=victim)]
    if rng.random() < config.permanent_crash_p:
        down[victim] = float("inf")
    else:
        back = when + _uniform(rng, config.outage)
        events.append(NodeRestart(time=back, node=victim))
        down[victim] = back
    return events


def _draw_partition(rng: random.Random, when: float,
                    population: Sequence[str],
                    config: ChaosConfig) -> List[Fault]:
    """Draw a minority partition and its matching heal."""
    minority = max(1, int(len(population) * PARTITION_FRACTION))
    shuffled = list(population)
    rng.shuffle(shuffled)
    side_a = tuple(sorted(shuffled[:minority]))
    side_b = tuple(sorted(shuffled[minority:]))
    return [
        PartitionCut(time=when, side_a=side_a, side_b=side_b),
        Heal(time=when + _uniform(rng, config.partition_duration),
             side_a=side_a, side_b=side_b),
    ]


def _draw_link_degrade(rng: random.Random, when: float,
                       population: Sequence[str]) -> List[Fault]:
    """Draw a lossy/slow directed link."""
    src, dst = rng.sample(list(population), 2)
    return [LinkDegrade(
        time=when, src=src, dst=dst,
        drop_p=round(_uniform(rng, DROP_P), 3),
        latency_mult=round(_uniform(rng, LATENCY_MULT), 3),
        duration=round(_uniform(rng, DEGRADE_DURATION), 3),
    )]


def _draw_cpu_stress(rng: random.Random, when: float,
                     population: Sequence[str]) -> List[Fault]:
    """Draw a CPU antagonist on one node."""
    return [CpuStress(
        time=when, node=rng.choice(list(population)),
        hogs=rng.randint(*HOGS),
        duration=round(_uniform(rng, STRESS_DURATION), 3),
    )]


def _draw_disk_degrade(rng: random.Random, when: float,
                       population: Sequence[str]) -> List[Fault]:
    """Draw a disk throttle on one node."""
    return [DiskDegrade(
        time=when, node=rng.choice(list(population)),
        bandwidth_factor=round(_uniform(rng, DISK_FACTOR), 3),
        duration=round(_uniform(rng, DISK_DURATION), 3),
    )]


def generate_schedule(nodes: Sequence[str], seed: int,
                      config: ChaosConfig = None,
                      name: str = "") -> FaultSchedule:
    """Draw a deterministic chaos schedule over ``nodes``.

    ``nodes`` is the node-id population faults may hit (ordering matters
    for determinism -- pass a sorted list).  Crashes are paired with
    restarts and partitions with heals unless the draw makes them
    permanent, so the cluster keeps churning instead of dying.

    Every stochastic decision flows through the *single*
    ``random.Random(seed)`` created here -- the draw helpers take it
    explicitly and nothing touches module-level ``random`` state -- so two
    worker processes handed the same ``(nodes, seed, config)`` triple
    produce schedules with equal :meth:`~.FaultSchedule.digest` values.
    That cross-process stability is what lets the sweep engine fold a
    schedule's digest into its content-addressed cache keys.
    """
    config = config or ChaosConfig()
    if not nodes:
        raise ValueError("chaos needs a non-empty node population")
    rng = random.Random(seed)
    population = list(nodes)
    kinds = [k for k, w in sorted(config.weights.items()) if w > 0]
    weights = [config.weights[k] for k in kinds]
    events: List[Fault] = []
    down: Dict[str, float] = {}  # node -> restart time (inf = permanent)
    max_down = max(1, int(len(population) * config.max_down_fraction))
    draw = {
        NodeCrash.kind: lambda when: _draw_crash(rng, when, population,
                                                 down, max_down, config),
        PartitionCut.kind: lambda when: _draw_partition(rng, when,
                                                        population, config),
        LinkDegrade.kind: lambda when: _draw_link_degrade(rng, when,
                                                          population),
        CpuStress.kind: lambda when: _draw_cpu_stress(rng, when, population),
        DiskDegrade.kind: lambda when: _draw_disk_degrade(rng, when,
                                                          population),
    }

    for __ in range(max(0, config.events)):
        when = rng.uniform(config.start, config.horizon)
        kind = rng.choices(kinds, weights=weights, k=1)[0]
        events.extend(draw[kind](when))
    schedule = FaultSchedule(events=events, seed=seed,
                             name=name or f"chaos-{seed}")
    schedule.events = schedule.sorted_events()
    return schedule


def search_amplifying_schedule(
    nodes: Sequence[str],
    evaluate,
    seeds: Sequence[int],
    config: ChaosConfig = None,
    target_ratio: float = 2.0,
    baseline: float = 0.0,
):
    """Try generator seeds until one amplifies the symptom enough.

    ``evaluate(schedule) -> float`` measures the symptom (e.g. flap count)
    under the schedule; the first schedule reaching ``target_ratio *
    max(baseline, 1)`` wins.  Returns ``(schedule, value)`` for the best
    candidate seen even when no candidate reaches the target, so callers
    can report near-misses.
    """
    best = None
    best_value = float("-inf")
    floor = target_ratio * max(baseline, 1.0)
    for seed in seeds:
        schedule = generate_schedule(nodes, seed, config)
        value = evaluate(schedule)
        if value > best_value:
            best, best_value = schedule, value
        if value >= floor:
            break
    return best, best_value
