"""The HDFS model as a scale-check target (the section 7 goal).

The paper's future work is to "integrate the process to other distributed
systems beyond Cassandra".  This record is that whole integration:
``ScaleCheck(HDFS_BUG_ID, nodes=..., vnodes=..., params=...)`` runs the
block-report cold-start storm through the same memoize, PIL replay,
fault and sweep paths as a Cassandra bug.  The
mapping: ``nodes`` are datanodes, ``vnodes`` blocks per datanode (None
keeps :class:`HdfsConfig`'s 10,000) and ``params.observe`` the cold-start
window.
"""

from __future__ import annotations

import copy

from ..cassandra.cluster import Mode
from ..core.target import Target
from .cluster import HdfsCluster, HdfsConfig, datanode_name, run_cold_start
from .namenode import REPORT_CODEC, REPORT_FUNC_ID


def _config(check, mode: Mode) -> HdfsConfig:
    config = HdfsConfig(datanodes=check.nodes, mode=mode, seed=check.seed,
                        machine=copy.deepcopy(check.machine))
    if check.vnodes is not None:
        config.blocks_per_datanode = check.vnodes
    return config


HDFS_TARGET = Target(
    config=_config,
    cluster=HdfsCluster,
    run=lambda cluster, params: run_cold_start(cluster,
                                               observe=params.observe),
    func_id=REPORT_FUNC_ID,
    codec=REPORT_CODEC,
    population=lambda nodes: [datanode_name(i) for i in range(nodes)],
)
