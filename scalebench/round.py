"""One round of one workload in a fresh process (spawned by ``run.py``).

Writes ``round.json`` into ``--workdir`` (and ``spans.jsonl`` when traced);
prints nothing the parent depends on.  A fresh process per round gives every
round its own peak RSS, its own import and set-up cost, and an interpreter
that no earlier round has warmed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from scalebench import use_checkout_sources
from scalebench.spans import Tracer


#: The census cuts every ``Simulator.run(until=...)`` at multiples of this
#: many virtual seconds.
SLICE_VIRTUAL_S = 0.1
#: It also cuts once per this many ``Gossiper.populate`` calls: building an
#: established cluster is N^2 of them outside any simulator.
POPULATE_CUT_EVERY = 2048


class Census:
    """Counts simulator events and cuts the timed section into segments.

    The only wrappers an untraced round carries.

    *Events.*  The wrapper on ``Simulator.run`` -- called once per slice or
    epoch, never per event -- reads the public ``steps`` counter before and
    after, so workloads whose simulators are built inside the program (a
    sweep, a replay) can still report events per second.

    *Segments.*  It replaces one ``run(until=T)`` by consecutive
    ``run(until=t)`` calls on a fixed virtual-time grid, which fires the
    same events in the same order, and records the host clocks at every
    cut.  A second wrapper, on ``Gossiper.populate``, only counts calls
    and cuts once per ``POPULATE_CUT_EVERY`` (about 0.15 us per call, 1% of
    the cluster build it segments).  Every round of a run is thereby cut
    into identical pieces of work, and the parent can drop, piece by piece,
    the rounds a busy host slowed down (``run.filtered_seconds``).
    """

    def __init__(self) -> None:
        self.steps = 0
        #: (wall, cpu) clock pairs at every cut while the timed section is
        #: open, else None.
        self.marks: Optional[List[Tuple[float, float]]] = None
        self._patches: List[Tuple[type, str, object]] = []

    def mark(self) -> None:
        if self.marks is not None:
            self.marks.append((time.perf_counter(), time.process_time()))

    def _patch(self, owner: type, attr: str, make) -> None:
        original = vars(owner)[attr]
        wrapper = make(original)
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        from repro.cassandra.gossip import Gossiper
        from repro.sim.kernel import Simulator

        census = self

        def sliced_run(original):
            def run(sim, until=None, max_steps=None):
                before = sim.steps
                try:
                    if until is None or max_steps is not None:
                        return original(sim, until, max_steps)
                    census.mark()
                    position = sim.now
                    while True:
                        edge = (int(position / SLICE_VIRTUAL_S) + 1) * SLICE_VIRTUAL_S
                        if edge <= position:  # float rounding at a grid point
                            edge += SLICE_VIRTUAL_S
                        position = until if edge >= until else edge
                        original(sim, position)
                        census.mark()
                        if position >= until:
                            return None
                finally:
                    census.steps += sim.steps - before
            return run

        def counted_populate(original):
            left = [POPULATE_CUT_EVERY]

            def populate(*args, **kwargs):
                left[0] -= 1
                if not left[0]:
                    left[0] = POPULATE_CUT_EVERY
                    census.mark()
                return original(*args, **kwargs)
            return populate

        self._patch(Simulator, "run", sliced_run)
        self._patch(Gossiper, "populate", counted_populate)

    def uninstall(self) -> int:
        """Restore the originals; returns how many did not come back."""
        leftovers = 0
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            leftovers += vars(owner)[attr] is not original
        return leftovers


def _peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class Probe:
    """What a workload function sees of the harness."""

    def __init__(self, spawned_at: float, workdir: Path, census: Census,
                 tracer: Optional[Tracer]) -> None:
        self.workdir = workdir
        self._spawned_at = spawned_at
        self._census = census
        self._tracer = tracer
        self.setup_s = 0.0
        self.events = 0
        #: Host seconds of each segment of the timed section, per clock.
        self.segments: Dict[str, List[float]] = {"wall": [], "cpu": []}

    def events_now(self) -> int:
        """Simulator events fired so far in this round."""
        return self._census.steps

    @contextmanager
    def timed(self) -> Iterator[None]:
        """The timed section; everything before it is set-up."""
        census = self._census
        span = (self._tracer.span("bench.timed") if self._tracer is not None
                else nullcontext())
        self.setup_s = time.monotonic() - self._spawned_at
        events = census.steps
        with span:
            census.marks = []
            census.mark()
            try:
                yield
            finally:
                census.mark()
                marks, census.marks = census.marks, None
        self.events = census.steps - events
        for clock, name in enumerate(("wall", "cpu")):
            self.segments[name] = [later[clock] - earlier[clock]
                                   for earlier, later in zip(marks, marks[1:])]

    @property
    def wall_s(self) -> float:
        """Host wall seconds of the timed section."""
        return sum(self.segments["wall"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() just before spawning")
    args = parser.parse_args(argv)

    use_checkout_sources()
    from scalebench import layers
    from scalebench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    census = Census()
    census.install()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        layers.install(tracer)
    probe = Probe(args.spawned_at, args.workdir, census, tracer)
    round_started = time.perf_counter()
    with (tracer.span("bench.round") if tracer is not None else nullcontext()):
        outcome = workload.run(args.seed, probe)
    round_wall_s = time.perf_counter() - round_started
    leftovers = tracer.uninstall() if tracer is not None else 0
    leftovers += census.uninstall()
    outcome.checks.append(("every wrapper was restored", leftovers == 0))

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": bool(args.trace),
        "digest": outcome.digest,
        "checks": outcome.checks,
        "facts": outcome.facts,
        "setup_s": probe.setup_s,
        "wall_s": probe.wall_s,
        "cpu_s": sum(probe.segments["cpu"]),
        "segments": probe.segments,
        "events": probe.events,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        result["round_wall_s"] = round_wall_s
        result["attributed_s"] = layers.attributed_s(tracer)
        result["layers"] = layers.layer_metrics(tracer, probe.events,
                                                round_wall_s)
        tracer.dump_jsonl(args.workdir / "spans.jsonl")
    (args.workdir / "round.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
