"""CPU models: how compute demand maps onto elapsed virtual time.

The paper's Figure 1 contrasts three ways of running an N-node protocol test:

* **real scale** -- every node owns its machine, so a computation with
  service demand ``c`` takes ``c`` seconds (:class:`DedicatedCpu`);
* **basic colocation** -- N nodes share one machine's cores, so concurrent
  computations contend and stretch (up to ``N x t`` with one core);
  modelled by :class:`SharedCpu`, processor sharing plus a context-switch
  penalty that grows with the number of runnable tasks;
* **PIL replay** -- the computation is replaced by ``sleep(t)`` with a
  memoized duration, so it consumes no machine capacity at all
  (:class:`PilCpu`).

All models expose ``submit(cost, process, tag)``; the process is resumed with
the *elapsed* virtual duration once the demand is served.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from .events import Event, PRIORITY_HIGH

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .kernel import Process, Simulator

#: Remaining-work threshold below which a job counts as complete.  Guards
#: against float drift in the processor-sharing integrator.
_EPSILON = 1e-12


@dataclass
class _Job:
    """One in-flight computation on a processor-sharing CPU."""

    process: "Process"
    remaining: float
    demand: float
    started: float
    tag: str = ""


class CpuModel:
    """Interface for CPU resources usable with the ``Compute`` effect."""

    def submit(self, cost: float, process: "Process", tag: str = "") -> None:
        """Submit ``cost`` seconds of demand; resume ``process`` when served."""
        raise NotImplementedError

    def utilization(self) -> float:
        """Time-averaged fraction of capacity in use since construction."""
        raise NotImplementedError


class ProcessorSharingCpu(CpuModel):
    """Egalitarian processor sharing over ``cores`` cores.

    With ``n`` runnable jobs, each job progresses at
    ``speed * min(1, cores / n) * efficiency(n)`` demand-seconds per second.
    ``efficiency`` models context-switch and scheduler overhead: the paper
    (section 6) observes that thousands of colocated threads cause "severe
    context switching and long queuing delays", so efficiency decays as the
    number of runnable tasks exceeds the core count.

    Statistics are tracked for the colocation bottleneck detector:
    ``peak_utilization``, ``busy_core_seconds``, and ``peak_jobs``.
    """

    def __init__(
        self,
        sim: "Simulator",
        cores: int,
        speed: float = 1.0,
        context_switch_coeff: float = 0.0,
        name: str = "cpu",
    ) -> None:
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.sim = sim
        self.cores = cores
        self.speed = speed
        self.context_switch_coeff = context_switch_coeff
        self.name = name
        self._completion_tag = f"ps-complete:{name}"
        self._jobs: Dict[int, _Job] = {}
        self._job_ids = 0
        self._last_update = sim.now
        self._next_completion: Optional[Event] = None
        self._created_at = sim.now
        self.busy_core_seconds = 0.0
        self.peak_utilization = 0.0
        self.peak_jobs = 0
        self.completed_jobs = 0
        self.total_stretch = 0.0  # sum of elapsed/demand ratios
        #: Virtual seconds jobs spent waiting beyond their uncontended
        #: service time -- the doctor's "cpu-contention" lateness charge.
        self.contention_seconds = 0.0

    # -- rate model ----------------------------------------------------------

    def _efficiency(self, n_jobs: int) -> float:
        """Scheduler efficiency with ``n_jobs`` runnable tasks (<= 1.0)."""
        excess = max(0, n_jobs - self.cores)
        return 1.0 / (1.0 + self.context_switch_coeff * excess)

    def _per_job_rate(self, n_jobs: int) -> float:
        if n_jobs == 0:
            return 0.0
        share = min(1.0, self.cores / n_jobs)
        return self.speed * share * self._efficiency(n_jobs)

    # -- public API ----------------------------------------------------------

    def submit(self, cost: float, process: "Process", tag: str = "") -> None:
        """Submit ``cost`` seconds of demand; resume ``process`` when served."""
        self._advance()
        if cost <= 0.0:
            self.sim.schedule(0.0, lambda: process.resume(0.0))
            return
        self._job_ids += 1
        self._jobs[self._job_ids] = _Job(
            process=process, remaining=cost, demand=cost,
            started=self.sim.now, tag=tag,
        )
        self.peak_jobs = max(self.peak_jobs, len(self._jobs))
        self._reschedule()

    def utilization(self) -> float:
        """Fraction of capacity in use."""
        self._advance()
        self._reschedule()
        elapsed = self.sim.now - self._created_at
        if elapsed <= 0:
            return 0.0
        return self.busy_core_seconds / (self.cores * elapsed)

    def mean_stretch(self) -> float:
        """Mean elapsed/demand ratio over completed jobs (1.0 = no contention)."""
        if self.completed_jobs == 0:
            return 1.0
        return self.total_stretch / self.completed_jobs

    @property
    def active_jobs(self) -> int:
        """Number of jobs currently in service."""
        return len(self._jobs)

    # -- integrator ----------------------------------------------------------

    def _advance(self) -> None:
        """Credit work done since the last update to all runnable jobs."""
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._jobs:
            return
        n = len(self._jobs)
        rate = self._per_job_rate(n)
        busy_cores = min(n, self.cores) * self._efficiency(n)
        self.busy_core_seconds += busy_cores * dt
        self.peak_utilization = max(self.peak_utilization, busy_cores / self.cores)
        finished: List[int] = []
        for job_id, job in self._jobs.items():
            job.remaining -= rate * dt
            if job.remaining <= _EPSILON:
                finished.append(job_id)
        obs = self.sim.observer
        for job_id in finished:
            job = self._jobs.pop(job_id)
            elapsed = now - job.started
            self.completed_jobs += 1
            if job.demand > 0:
                self.total_stretch += elapsed / job.demand
            self.contention_seconds += max(0.0, elapsed - job.demand / self.speed)
            if obs is not None:
                obs.compute(job.started, now, self, job.process, job.tag)
            self.sim.schedule(0.0, lambda j=job, e=elapsed: j.process.resume(e))

    def _reschedule(self) -> None:
        """(Re)arm the next-completion event after any membership change."""
        if self._next_completion is not None:
            self._next_completion.cancel()
            self._next_completion = None
        if not self._jobs:
            return
        rate = self._per_job_rate(len(self._jobs))
        shortest = min(job.remaining for job in self._jobs.values())
        delay = max(shortest / rate, 0.0)
        self._next_completion = self.sim.schedule(
            delay, self._on_completion_due, priority=PRIORITY_HIGH,
            tag=self._completion_tag,
        )

    def _on_completion_due(self) -> None:
        self._next_completion = None
        self._advance()
        self._reschedule()


class DedicatedCpu(ProcessorSharingCpu):
    """A node's private CPU: the *real-scale* model.

    The paper's testbed gives each Cassandra node at most 2 busy cores of a
    16-core machine with no cross-node contention; a node's own threads can
    still contend with each other if it runs more tasks than cores.
    """

    def __init__(self, sim: "Simulator", cores: int = 2, speed: float = 1.0,
                 name: str = "dedicated") -> None:
        super().__init__(sim, cores=cores, speed=speed,
                         context_switch_coeff=0.0, name=name)


class SharedCpu(ProcessorSharingCpu):
    """One physical machine shared by all colocated nodes: *basic colocation*.

    ``context_switch_coeff`` defaults to a small positive value so that
    packing many more runnable threads than cores degrades throughput beyond
    pure sharing -- the section 6 observation that thousands of threads cause
    severe context switching.
    """

    def __init__(self, sim: "Simulator", cores: int = 16, speed: float = 1.0,
                 context_switch_coeff: float = 0.002, name: str = "colo") -> None:
        super().__init__(sim, cores=cores, speed=speed,
                         context_switch_coeff=context_switch_coeff, name=name)


class PilCpu(CpuModel):
    """The processing-illusion CPU: compute becomes a contention-free sleep.

    ``submit(cost, ...)`` elapses exactly ``cost`` virtual seconds regardless
    of what else is running -- the defining property of PIL replay.  The
    ``cost`` passed in is the *memoized duration*, not live demand.
    """

    def __init__(self, sim: "Simulator", name: str = "pil") -> None:
        self.sim = sim
        self.name = name
        self.slept_seconds = 0.0
        self.completed_jobs = 0
        self.contention_seconds = 0.0  # PIL sleeps never contend
        #: Tag strings seen so far; replay submits the same per-node tags
        #: thousands of times, so the f-string is paid once per distinct tag.
        self._tag_cache: Dict[str, str] = {}

    def submit(self, cost: float, process: "Process", tag: str = "") -> None:
        """Submit ``cost`` seconds of demand; resume ``process`` when served."""
        if cost < 0:
            raise ValueError("negative sleep duration")
        self.slept_seconds += cost
        self.completed_jobs += 1
        obs = self.sim.observer
        if obs is not None:
            obs.compute(self.sim.now, self.sim.now + cost, self, process, tag)
        full_tag = self._tag_cache.get(tag)
        if full_tag is None:
            full_tag = self._tag_cache[tag] = f"pil-sleep:{tag}"
        self.sim.schedule(cost, lambda: process.resume(cost), tag=full_tag)

    def utilization(self) -> float:
        """PIL sleeps consume no machine capacity."""
        return 0.0
