"""The dynamic half of the sanitizer: vector-clock happens-before tracking.

One :class:`RaceTracker` is the simulator's
:class:`~repro.sim.kernel.KernelObserver`, attached (``tracker.attach(sim)``)
*before* the run starts.  It derives every happens-before edge from the
kernel seams:

* ``bind`` -- :meth:`Simulator.schedule` wraps each callback so the event
  carries the scheduler's clock; firing it restores that clock as the
  *ambient* causal context.  This single mechanism yields the spawn,
  timeout, network-delivery, join and lock release->grant edges, because
  all of them go through ``schedule`` in the scheduling process's context.
* ``resume`` -- a process joins the ambient clock (plus any staged
  channel-item clock) into its own clock and ticks.
* ``channel_buffer`` / ``channel_pop`` + ``handoff`` -- a buffered item
  snapshots the putter's clock and the eventual consumer joins it at
  delivery, however much later that is (or the item is put back under
  that clock when the consumer died first).
* ``lock_release`` / ``lock_enter`` -- a clean release carries the
  holder's clock through the lock to the next holder.  A forced release
  is deliberately *not* an edge: an interrupted holder's torn critical
  section leaves the next holder unordered with the victim's accesses,
  which is exactly the atomicity violation the sanitizer exists to count.
* ``interrupt`` -- drops any staged joins for the dead process.

Conflict detection is FastTrack-flavored: per instrumented site the
tracker keeps each process's *epoch* (its own clock component) at its
last read and last write.  An access by P races with Q's previous access
iff P's clock has not caught up to Q's recorded epoch -- an O(processes-
touching-site) integer comparison, no clock copies on the access path.
The race-window metric is the number of distinct unordered conflicting
(site, process-pair) combinations seen in the run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..sim.kernel import KernelObserver
from .vc import VC, join_into

#: Cap on retained per-race example records (counters are never capped).
DEFAULT_MAX_EXAMPLES = 25


class _SiteState:
    """Per-site access history: last read/write epoch per process."""

    __slots__ = ("reads", "writes")

    def __init__(self) -> None:
        self.reads: Dict[int, int] = {}
        self.writes: Dict[int, int] = {}


class RaceTracker(KernelObserver):
    """Happens-before tracking plus race-pair accounting for one run."""

    def __init__(self, max_examples: int = DEFAULT_MAX_EXAMPLES) -> None:
        self.max_examples = max_examples
        #: process name -> interned small-int pid, in first-resume order.
        self._pids: Dict[str, int] = {}
        self._pid_names: List[str] = []
        #: pid -> that process's (mutable) vector clock.
        self._clocks: Dict[int, VC] = {}
        #: The ambient causal context: the clock of whoever scheduled the
        #: currently-firing event.  A *reference* -- ``bind`` snapshots.
        self._ambient: VC = {}
        #: pid of the process currently executing, None outside processes.
        self._current: Optional[int] = None
        #: pid -> clocks staged by channel hand-offs, joined at resume.
        self._staged: Dict[int, List[VC]] = {}
        #: id(channel) -> FIFO of put-time clocks for its buffered items.
        self._chan_vcs: Dict[int, List[VC]] = {}
        #: id(lock) -> clock at its last *clean* release.  Joined by the
        #: next holder on entry, so even uncontended acquires inherit the
        #: previous critical section's ordering.  A forced release never
        #: updates this -- the torn section stays unordered on purpose.
        self._lock_vcs: Dict[int, VC] = {}
        # -- results ------------------------------------------------------
        self.sites: Dict[str, _SiteState] = {}
        self.accesses = 0
        self.race_pairs = 0
        self.races_by_kind: Dict[str, int] = {
            "write-write": 0, "read-write": 0, "write-read": 0,
        }
        self.site_races: Dict[str, int] = {}
        self._seen_pairs: Set[Tuple[str, int, int]] = set()
        self.forced_release_records: List[Dict[str, Any]] = []
        self.examples: List[Dict[str, Any]] = []

    # -- kernel seams ------------------------------------------------------

    def bind(self, callback: Callable[[], None]) -> Callable[[], None]:
        """Wrap a scheduled callback with the current causal context."""
        vc = dict(self._ambient)

        def fire() -> None:
            self._ambient = vc
            self._current = None
            callback()

        return fire

    def resume(self, process: Any) -> None:
        """A process wakes: join ambient + staged clocks, tick, run."""
        pid = self._pids.get(process.name)
        if pid is None:
            pid = len(self._pid_names)
            self._pids[process.name] = pid
            self._pid_names.append(process.name)
            self._clocks[pid] = {pid: 0}
        clock = self._clocks[pid]
        join_into(clock, self._ambient)
        staged = self._staged.pop(pid, None)
        if staged:
            for vc in staged:
                join_into(clock, vc)
        clock[pid] += 1
        self._current = pid
        self._ambient = clock

    def interrupt(self, process: Any) -> None:
        """A process dies: staged joins for it will never be consumed."""
        pid = self._pids.get(process.name)
        if pid is not None:
            self._staged.pop(pid, None)

    def stage_join(self, process: Any, vc: VC) -> None:
        """Queue ``vc`` to be joined when ``process`` next resumes."""
        pid = self._pids.get(process.name)
        if pid is None:
            # Never resumed yet: it will intern on first resume; stage by
            # interning eagerly so the join is not lost.
            pid = len(self._pid_names)
            self._pids[process.name] = pid
            self._pid_names.append(process.name)
            self._clocks[pid] = {pid: 0}
        self._staged.setdefault(pid, []).append(vc)

    def channel_buffer(self, channel: Any) -> None:
        """A put buffered an item: remember the putter's clock for it."""
        self._chan_vcs.setdefault(id(channel), []).append(dict(self._ambient))

    def channel_pop(self, channel: Any, process: Any,
                    waited: float) -> Optional[VC]:
        """A getter popped a buffered item: recover its put-time clock."""
        queue = self._chan_vcs.get(id(channel))
        if not queue:
            return None
        return queue.pop(0)

    def handoff(self, vc: VC, getter: Any) -> None:
        """A buffered item reaches ``getter``, which joins its put-time
        clock; if ``getter`` died first, the item is put back under it."""
        if getter.finished:
            self._ambient = vc
        else:
            self.stage_join(getter, vc)

    def lock_release(self, lock: Any, holder: Any,
                     forced: Optional[bool]) -> None:
        """A clean release carries the holder's clock forward through the
        lock, so even an uncontended next acquire is ordered after this
        critical section; a torn one is recorded and carries nothing."""
        if forced is False:
            self._lock_vcs[id(lock)] = dict(self._ambient)
        elif forced:
            self.forced_release_records.append({
                "lock": lock.name,
                "holder": holder.name,
                "time": round(float(self.sim.now), 9),
            })

    def lock_enter(self, lock: Any, process: Any) -> None:
        """A granted process enters: it inherits the last clean release."""
        vc = self._lock_vcs.get(id(lock))
        if vc is not None:
            self.stage_join(process, vc)

    # -- access instrumentation -------------------------------------------

    def access(self, site: str, kind: str) -> None:
        """Record a read (``kind='r'``) or write (``'w'``) of ``site``.

        Accesses outside any process context (report building, test
        assertions, collectors) are observation, not model concurrency,
        and are ignored.
        """
        pid = self._current
        if pid is None:
            return
        time = self.sim.now if self.sim is not None else 0.0
        self.accesses += 1
        state = self.sites.get(site)
        if state is None:
            state = self.sites[site] = _SiteState()
        clock = self._clocks[pid]
        if kind == "w":
            for q, epoch in state.writes.items():
                if q != pid and clock.get(q, 0) < epoch:
                    self._record_race(site, pid, q, "write-write", time)
            for q, epoch in state.reads.items():
                if q != pid and clock.get(q, 0) < epoch:
                    self._record_race(site, pid, q, "read-write", time)
            state.writes[pid] = clock[pid]
        else:
            for q, epoch in state.writes.items():
                if q != pid and clock.get(q, 0) < epoch:
                    self._record_race(site, pid, q, "write-read", time)
            state.reads[pid] = clock[pid]

    def _record_race(self, site: str, pid: int, q: int, kind: str,
                     time: float) -> None:
        pair = (site, pid, q) if pid < q else (site, q, pid)
        if pair in self._seen_pairs:
            return
        self._seen_pairs.add(pair)
        self.race_pairs += 1
        self.races_by_kind[kind] += 1
        self.site_races[site] = self.site_races.get(site, 0) + 1
        if len(self.examples) < self.max_examples:
            self.examples.append({
                "site": site,
                "kind": kind,
                "current": self._pid_names[pid],
                "previous": self._pid_names[q],
                "time": round(float(time), 9),
            })

    # -- reporting ---------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Scalar metrics for :attr:`RunReport.extra` and sweep fits."""
        return {
            "race_pairs": float(self.race_pairs),
            "race_sites": float(len(self.site_races)),
            "race_accesses": float(self.accesses),
            "race_forced_releases": float(len(self.forced_release_records)),
        }

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic JSON-ready detail record for one run."""
        return {
            "processes": len(self._pid_names),
            "accesses": self.accesses,
            "race_pairs": self.race_pairs,
            "races_by_kind": dict(sorted(self.races_by_kind.items())),
            "site_races": dict(sorted(self.site_races.items())),
            "forced_releases": list(self.forced_release_records),
            "examples": sorted(
                self.examples,
                key=lambda e: (e["site"], e["time"], e["current"],
                               e["previous"], e["kind"]),
            ),
        }

    # -- introspection (tests) --------------------------------------------

    def clock_of(self, name: str) -> Optional[VC]:
        """The current vector clock of process ``name`` (tests only)."""
        pid = self._pids.get(name)
        return None if pid is None else dict(self._clocks[pid])
