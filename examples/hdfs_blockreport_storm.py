#!/usr/bin/env python3
"""Scale-check on a second system: the HDFS block-report storm.

HDFS contributes 11 of the paper's 38 studied bugs.  Their common shape:
an O(blocks) computation under the namenode's global namesystem lock
starves heartbeat handling, and the heartbeat monitor declares live
datanodes dead.  This script:

1. sweeps cluster sizes to show the symptom surfacing only at scale;
2. runs the scale-check pipeline (memoize under colocation, PIL replay)
   against the cold-start storm -- the same ``ScaleCheck`` used for
   Cassandra, pointed at a different system by its bug id (the paper's
   section 7 goal);
3. shows Exalt-style zero-byte data emulation making an I/O-heavy
   colocation fit one host disk.

Run:
    python examples/hdfs_blockreport_storm.py
"""

from repro.baselines import compare_storage_policies
from repro.cassandra.cluster import Mode
from repro.cassandra.workloads import ScenarioParams
from repro.core.scalecheck import ScaleCheck
from repro.hdfs import HDFS_BUG_ID, HdfsCluster, HdfsConfig, run_cold_start
from repro.sim.memory import GB, MB


def main() -> None:
    print("1) false-dead datanodes vs scale (cold-start block-report storm)")
    print(f"{'datanodes':>10} {'false-dead':>11} {'worst queue wait':>17}")
    for datanodes in (8, 16, 32, 64):
        cluster = HdfsCluster(HdfsConfig(datanodes=datanodes, mode=Mode.REAL,
                                         seed=3))
        report = run_cold_start(cluster, observe=60.0)
        print(f"{datanodes:>10d} {report.flaps:>11d} "
              f"{report.max_stage_wait:>16.1f}s")
    print()

    print("2) scale-check pipeline at 64 datanodes (memoize -> PIL replay)")
    check = ScaleCheck(HDFS_BUG_ID, nodes=64, seed=3,
                       params=ScenarioParams(observe=60.0))
    reports = check.compare_modes()
    accuracy = ScaleCheck.accuracy(reports)
    for mode in ("real", "colo", "pil"):
        report = reports[mode]
        print(f"  {mode:>4}: {report.flaps:4d} false-dead, host CPU "
              f"{report.cpu_utilization:.0%}")
    print(f"  SC+PIL error vs real: {accuracy['pil_error']:.0%} "
          f"(colocation: {accuracy['colo_error']:.0%})")
    result = check.check()
    print(f"  memo DB: {len(result.db)} distinct report contents, "
          f"replay hit rate {result.replay.hit_rate:.0%}")
    print()

    print("3) Exalt data-space emulation (60 datanodes, 64 GB host disk,")
    print("   192 GB of logical block data)")
    outcomes = compare_storage_policies(
        datanodes=60, blocks_per_datanode=50, block_size=64 * MB,
        host_disk_bytes=64 * GB, disk_bandwidth=10 * GB, observe=60.0)
    for name, outcome in outcomes.items():
        print(f"  {name:>9}: {outcome.storage_failures:2d} datanodes lost "
              f"their data; physical {outcome.physical_bytes / GB:6.1f} GB, "
              f"logical {outcome.logical_bytes / GB:6.1f} GB")
    print("\n  => zero-byte emulation removes the storage wall; PIL removes")
    print("     the CPU wall; together a laptop checks a hundred-node HDFS.")


if __name__ == "__main__":
    main()
