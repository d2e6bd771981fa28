"""The five workloads: what runs, at which size, and why it is here.

Each workload function runs ONE round in the child process: it builds its
inputs from the seed, marks the timed section with ``probe.timed()``, and
returns a :class:`Outcome` read from the program's public outputs.  The
program is imported inside the functions, so the parent reads the registry
below without loading it.  No optional implementation knob
(``state_backend``, ``scheduler``, ...) is passed anywhere, so a workload
measures what a user gets by default.

Sizes were fixed at the commit that added the benchmark, on a 2-core box,
so that one round (interpreter start and imports included) takes about
``nominal_round_s`` host seconds.  Every round of a run simulates the same
inputs, and the number of rounds follows from ``--seconds`` alone, so every
digest and count is a function of the command line.  Virtual horizons were
shrunk to fit; node counts were not.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple


@dataclass
class Outcome:
    """What one round hands back to the parent (JSON-able)."""

    #: sha256 identity of the canonical report(s) the round produced.
    digest: str
    #: Output checks as (name, passed) pairs.
    checks: List[Tuple[str, bool]]
    #: Numbers from public outputs.  A key that is a per-layer metric name
    #: is reported as that metric; the rest feed parent-side checks.
    facts: Dict[str, Any] = field(default_factory=dict)


def _sha(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


# -- gossip_steady ---------------------------------------------------------------

GOSSIP_NODES = 256
GOSSIP_SLICES = 64
GOSSIP_SLICE_VS = 0.1


def gossip_steady(seed: int, probe) -> Outcome:
    """An established 256-node cluster gossiping, in 0.1-virtual-s slices."""
    from repro.cassandra import Cluster, ClusterConfig, Mode

    cluster = Cluster(ClusterConfig.for_bug(
        "c3831", nodes=GOSSIP_NODES, mode=Mode.REAL, seed=seed))
    cluster.build_established()
    slices_ms: List[float] = []
    with probe.timed():
        for index in range(1, GOSSIP_SLICES + 1):
            started = time.perf_counter()
            cluster.run(until=index * GOSSIP_SLICE_VS)
            slices_ms.append((time.perf_counter() - started) * 1000.0)
    report = cluster.report()
    horizon = GOSSIP_SLICES * GOSSIP_SLICE_VS
    return Outcome(
        digest=report.digest(),
        checks=[
            ("clock reached the horizon", abs(cluster.sim.now - horizon) < 1e-9),
            ("messages were delivered", report.messages_delivered > 0),
        ],
        facts={"slices_ms": slices_ms},
    )


# -- scalecheck_c5456 ------------------------------------------------------------

#: ``repro.bench.calibrate.ci_cost_constants("c5456")`` resolved at the
#: commit that added the benchmark, so the workload does not move when the
#: calibration module does.
C5456_CONSTANTS = dict(
    k0_c3831=9.437184e-07, k1_c3881=2.9084023668639055e-10,
    k2_vnode_fix=2.4236686390532546e-07, k3_bootstrap=3.584e-10,
    floor=0.0001, k_close_scan=0.03456, k_handoff_scan=2.88e-06,
    k_retry=0.002944)
C5456_NODES = 24
C5456_PARAMS = dict(warmup=5.0, observe=30.0, leaving_duration=7.5,
                    join_duration=7.5, join_stagger=0.75, join_count=4)


def scalecheck_c5456(seed: int, probe) -> Outcome:
    """The paper's Figure-2 flow on C5456: real, memoize, PIL replay."""
    from repro.cassandra import CostConstants, ScenarioParams
    from repro.core.scalecheck import ScaleCheck

    check = ScaleCheck("c5456", nodes=C5456_NODES, seed=seed,
                       params=ScenarioParams(**C5456_PARAMS),
                       cost_constants=CostConstants(**C5456_CONSTANTS))
    with probe.timed():
        started = time.perf_counter()
        real = check.run_real()
        real_done = time.perf_counter()
        memo = check.memoize()
        memo_done = time.perf_counter()
        replay = check.replay(memo.db)
        replay_done = time.perf_counter()
    colo = memo.memo_report
    pil_error = flap_error(replay.report.flaps, real.flaps)
    colo_error = flap_error(colo.flaps, real.flaps)
    return Outcome(
        digest=_sha(real.digest(), colo.digest(), replay.report.digest()),
        checks=[
            ("replay looked calculations up", replay.hits + replay.misses > 0),
            ("the recording holds calculations", len(memo.db) > 0),
            # The paper's accuracy claim.  The error itself is reported,
            # not bounded: one instance has a handful of flaps, so a single
            # flap more or less is a double-digit relative error.
            ("PIL replay is no further from real than colocation",
             pil_error <= colo_error),
        ],
        facts={
            "flaps_real": real.flaps,
            "flaps_colo": colo.flaps,
            "flaps_pil": replay.report.flaps,
            "pil_hits": replay.hits,
            "pil_misses": replay.misses,
            "core.scalecheck.pil_flap_error": pil_error,
            "core.scalecheck.colo_flap_error": colo_error,
            "core.pil.hit_ratio": replay.hit_rate,
            "core.memoization.records": len(memo.db),
            "core.memoization.samples": memo.db.total_samples(),
            "core.scalecheck.real_s": real_done - started,
            "core.scalecheck.memoize_s": memo_done - real_done,
            "core.scalecheck.replay_s": replay_done - memo_done,
        },
    )


def flap_error(flaps: int, flaps_real: int) -> float:
    """|flaps - flaps_real| / max(1, flaps_real): a mode's accuracy error."""
    return abs(flaps - flaps_real) / max(1, flaps_real)


# -- traffic_millionuser ---------------------------------------------------------

TRAFFIC_NODES = 128
TRAFFIC_USERS = 1_000_000
TRAFFIC_PARAMS = dict(warmup=4.0, observe=12.0)


def traffic_millionuser(seed: int, probe) -> Outcome:
    """A million logical users reading and writing through 128 nodes."""
    from repro.cassandra import Cluster, ClusterConfig, Mode, ScenarioParams
    from repro.workload import preset_spec, run_traffic

    cluster = Cluster(ClusterConfig.for_bug(
        "c3831-fixed", nodes=TRAFFIC_NODES, mode=Mode.REAL, seed=seed,
        enable_storage=True))
    spec = preset_spec("millionuser", users=TRAFFIC_USERS)
    with probe.timed():
        report = run_traffic(cluster, spec, ScenarioParams(**TRAFFIC_PARAMS))
    failed = report.requests_timeout + report.requests_unavailable
    return Outcome(
        digest=report.digest(),
        checks=[
            ("requests succeeded", report.requests_ok > 0),
            ("latency p99 is present", report.latency_p99 is not None),
        ],
        facts={
            "workload.engine.requests": report.requests_attempted,
            "cassandra.storage.request_fail_ratio":
                failed / report.requests_attempted
                if report.requests_attempted else 0.0,
        },
    )


# -- partition_k2 ----------------------------------------------------------------

PARTITION_NODES = 512
PARTITION_SHARDS = 2
PARTITION_UNTIL = 3.0


def partition_k2(seed: int, probe) -> Outcome:
    """512 nodes over two in-process shards in lockstep epochs.

    In-process on purpose: on two cores, forked K=2 is three processes and
    measures the host scheduler rather than the barrier/route/merge code.
    """
    from repro.cassandra.partition import PartitionSpec, run_partitioned

    spec = PartitionSpec(nodes=PARTITION_NODES, shards=PARTITION_SHARDS,
                         workers=0, until=PARTITION_UNTIL, seed=seed)
    with probe.timed():
        report = run_partitioned(spec)
    return Outcome(
        digest=report.digest(),
        checks=[
            ("events fired in the shards", report.extra.get("steps", 0) > 0),
            ("messages crossed the fabric", report.messages_delivered > 0),
        ],
    )


# -- ci_gate_cold ----------------------------------------------------------------

CI_SCALES = (16, 32, 64)
CI_PARAMS = dict(warmup=5.0, observe=15.0, leaving_duration=5.0,
                 join_duration=5.0, join_stagger=1.0)


def ci_gate_cold(seed: int, probe) -> Outcome:
    """``repro ci`` on an empty cache, then the same gate again warm."""
    from repro.cassandra import ScenarioParams
    from repro.ci import CiConfig, run_gate

    config = CiConfig(scales=CI_SCALES, workers=1, seed=seed,
                      cache_dir=str(probe.workdir / "ci-cache"),
                      params=ScenarioParams(**CI_PARAMS))
    with probe.timed():
        cold = run_gate(config)
    events_cold = probe.events_now()
    started = time.perf_counter()
    warm = run_gate(config)
    warm_ms = (time.perf_counter() - started) * 1000.0
    return Outcome(
        digest=cold.digest(),
        checks=[
            ("warm report bytes equal the cold report",
             warm.to_json() == cold.to_json()),
            ("warm gate simulated nothing", probe.events_now() == events_cold),
            ("cold gate simulated something", events_cold > 0),
        ],
        facts={"sweep.cache.warm_resolve_ms": warm_ms},
    )


# -- registry --------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One named workload and the constants the parent needs."""

    name: str
    run: Callable[[int, Any], Outcome]
    #: Host seconds of one round at the defining commit (2 cores); the
    #: parent derives the round count from ``--seconds`` with it.
    nominal_round_s: float
    size: Dict[str, Any]
    why: str


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "gossip_steady", gossip_steady, 4.5,
        {"nodes": GOSSIP_NODES, "bug": "c3831", "mode": "real",
         "slices": GOSSIP_SLICES, "slice_virtual_s": GOSSIP_SLICE_VS},
        "Pure control plane at N=256: kernel, event queue, network, gossip "
        "handlers, phi-accrual FD and state backend do all the work; calc, "
        "memo, storage and sweep do none."),
    Workload(
        "scalecheck_c5456", scalecheck_c5456, 5.5,
        {"nodes": C5456_NODES, "bug": "c5456", "params": C5456_PARAMS,
         "cost_constants": C5456_CONSTANTS},
        "The paper's Figure-2 flow (real, memoize, PIL replay) at N=24: "
        "calc-bound, few messages; a gossip-handler change should not move "
        "it, a calc or memo change should. Carries the accuracy check."),
    Workload(
        "traffic_millionuser", traffic_millionuser, 4.0,
        {"nodes": TRAFFIC_NODES, "bug": "c3831-fixed", "mode": "real",
         "preset": "millionuser", "users": TRAFFIC_USERS,
         "params": TRAFFIC_PARAMS},
        "Same kernel and network used differently: many small request and "
        "response messages plus storage stages at N=128, so a trick tuned "
        "for few fat gossip messages that taxes small ones shows here."),
    Workload(
        "partition_k2", partition_k2, 6.0,
        {"nodes": PARTITION_NODES, "shards": PARTITION_SHARDS, "workers": 0,
         "until": PARTITION_UNTIL},
        "The gossip layers through ShardFabric with barrier, route and "
        "merge at N=512, K=2 in one process; guards the planned fold of "
        "the partitioned runner into Cluster."),
    Workload(
        "ci_gate_cold", ci_gate_cold, 4.5,
        {"scales": list(CI_SCALES), "workers": 1, "params": CI_PARAMS},
        "What `repro ci` users wait for: six small colo runs through sweep "
        "executor, cache and curve fits on an empty cache; per-run fixed "
        "costs (build, report, JSON, cache I/O) dominate at small N."),
)}
