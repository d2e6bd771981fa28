"""The Exalt baseline: data-space emulation (Wang et al., NSDI '14).

Section 4: "With Exalt, user data is compressed to zero byte on disk (but
the size is recorded).  With this, Exalt can colocate 100 HDFS datanodes
on one machine without space contention ... While Exalt targets data paths
and I/O emulation, 47% of the scalability bugs that we studied involve
complex scale-dependent CPU computations ... which are not addressed in
existing literature."

Two experiments quantify both halves of that paragraph:

* :func:`compare_storage_policies` -- Exalt's win: faithful storage
  exhausts the colocation host's disk, zero-byte emulation does not, and
  the metadata-path bug (block-report wedging) reproduces either way the
  data fits;
* :func:`exalt_blind_spot` -- Exalt's gap: for a CPU-bound bug (Cassandra's
  pending-range storms) there is no data to compress, so Exalt-style
  colocation degenerates to basic colocation and its flap counts stay far
  from real scale, while SC+PIL tracks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from ..cassandra.cluster import Mode
from ..cassandra.metrics import RunReport, accuracy_error
from ..hdfs.cluster import HdfsCluster, HdfsConfig, run_cold_start
from ..sim.disk import ZeroByteEmulation
from ..sim.memory import GB, MB


@dataclass
class StoragePolicyOutcome:
    """One colocated I/O-heavy run under a storage policy."""

    policy: str
    storage_failures: int
    physical_bytes: int
    logical_bytes: int
    false_dead: int
    report: RunReport


def compare_storage_policies(
    datanodes: int = 60,
    blocks_per_datanode: int = 50,
    block_size: int = 64 * MB,
    host_disk_bytes: int = 64 * GB,
    disk_bandwidth: int = 10 * GB,
    observe: float = 60.0,
    seed: int = 3,
) -> Dict[str, StoragePolicyOutcome]:
    """Faithful storage vs Exalt zero-byte emulation on one host."""
    outcomes: Dict[str, StoragePolicyOutcome] = {}
    policies = {
        "faithful": None,
        "exalt": ZeroByteEmulation(),
    }
    for name, policy in policies.items():
        config = HdfsConfig(
            datanodes=datanodes,
            blocks_per_datanode=blocks_per_datanode,
            block_size=block_size,
            mode=Mode.COLO,
            seed=seed,
            host_disk_bytes=host_disk_bytes,
            disk_bandwidth=disk_bandwidth,
            emulation=policy,
            store_data=True,
        )
        cluster = HdfsCluster(config)
        report = run_cold_start(cluster, observe=observe)
        outcomes[name] = StoragePolicyOutcome(
            policy=name,
            storage_failures=int(report.extra.get("storage_failures", 0)),
            physical_bytes=int(report.extra.get("disk_physical_used", 0)),
            logical_bytes=int(report.extra.get("disk_logical_stored", 0)),
            false_dead=report.flaps,
            report=report,
        )
    return outcomes


@dataclass
class ExaltBlindSpot:
    """Exalt-style colocation vs scale-check on a CPU-bound bug."""

    bug_id: str
    nodes: int
    real_flaps: int
    exalt_colo_flaps: int       # = basic colocation: nothing to compress
    pil_flaps: int
    exalt_error: float
    pil_error: float

    @property
    def exalt_misses(self) -> bool:
        """Exalt's number is far off while PIL's tracks real scale."""
        return self.pil_error < self.exalt_error


def exalt_blind_spot(
    bug_id: str,
    nodes: int,
    runner: Callable[[str, int, str], RunReport],
) -> ExaltBlindSpot:
    """Quantify the 47%-of-bugs gap on one CPU-bound Cassandra bug.

    ``runner(bug_id, nodes, mode)`` supplies experiment points
    (:func:`repro.bench.runner.run_point`, served from the sweep cache).
    The membership protocols move no user data, so Exalt's data-space
    emulation has nothing to emulate: its colocated run *is* the
    basic-colocation run.
    """
    real = runner(bug_id, nodes, "real")
    colo = runner(bug_id, nodes, "colo")
    pil = runner(bug_id, nodes, "pil")
    return ExaltBlindSpot(
        bug_id=bug_id,
        nodes=nodes,
        real_flaps=real.flaps,
        exalt_colo_flaps=colo.flaps,
        pil_flaps=pil.flaps,
        exalt_error=accuracy_error(real, colo),
        pil_error=accuracy_error(real, pil),
    )
