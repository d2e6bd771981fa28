"""An HDFS-like second target system for scale-check.

HDFS contributes 11 of the study's 38 bugs; this model reproduces their
shared shape -- O(blocks) work under the namenode's global namesystem lock
starving heartbeat handling, so live datanodes get declared dead -- and
serves as the substrate for the Exalt data-space-emulation baseline
(section 4) and for demonstrating scale-check beyond Cassandra (section 7):
:data:`HDFS_TARGET` plugs it into the one pipeline, so
``ScaleCheck(HDFS_BUG_ID, nodes=..., vnodes=..., params=...)`` memoizes,
replays, injects faults and sweeps it exactly as it does a Cassandra bug.
"""

from .blocks import (
    BlockReport,
    DEFAULT_BLOCK_SIZE,
    ReportedBlock,
    block_id,
    placement_for_block,
    synthesize_blocks,
)
from .cluster import (
    HDFS_BUG_ID,
    HdfsCluster,
    HdfsConfig,
    datanode_name,
    run_cold_start,
    run_decommission,
)
from .datanode import DataNode, DataNodeCosts
from .namenode import (
    BLOCK_REPORT,
    DatanodeDescriptor,
    HEARTBEAT,
    HdfsCosts,
    NameNode,
    REGISTER,
    REPORT_FUNC_ID,
)
from .target import HDFS_TARGET

__all__ = [
    "BLOCK_REPORT",
    "BlockReport",
    "DEFAULT_BLOCK_SIZE",
    "DataNode",
    "DataNodeCosts",
    "DatanodeDescriptor",
    "HDFS_BUG_ID",
    "HDFS_TARGET",
    "HEARTBEAT",
    "HdfsCluster",
    "HdfsConfig",
    "HdfsCosts",
    "NameNode",
    "REGISTER",
    "REPORT_FUNC_ID",
    "ReportedBlock",
    "block_id",
    "datanode_name",
    "placement_for_block",
    "run_cold_start",
    "run_decommission",
    "synthesize_blocks",
]
