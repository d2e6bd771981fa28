"""A faithful Python model of Cassandra's gossip/membership subsystem.

This is the *system under test* for scale-check: gossip with SYN/ACK/ACK2
digest exchange, the phi-accrual failure detector, a token ring with vnodes,
and the historical pending-range calculation code paths of CASSANDRA-3831,
-3881, -5456, and -6127.
"""

from .bugs import BugConfig, LockMode, Workload, all_bugs, get_bug
from .cluster import Cluster, ClusterConfig, MachineSpec, Mode, node_name
from .failure_detector import (
    DEFAULT_PHI_THRESHOLD,
    PhiAccrualFailureDetector,
)
from .gossip import GossipConfig, Gossiper
from .legacy_calc import calculate_pending_ranges_legacy
from .metrics import CalcRecord, FlapCounter, FlapEvent, RunReport, accuracy_error
from .node import (
    CalcExecutor,
    CalcRequest,
    DirectExecutor,
    Node,
    NodeCosts,
    SharedOutputCache,
)
from .pending_ranges import (
    CalculatorVariant,
    CostConstants,
    DEFAULT_COSTS,
    calc_cost,
    compute_pending_ranges,
    deserialize_pending,
    pending_ranges_input_key,
    serialize_pending,
)
from .ring import TokenMetadata
from .sampler import (
    ClusterSampler,
    TimelinePoint,
    render_timeline,
    sparkline,
)
from .storage import (
    ClientLoad,
    ClientStats,
    ConsistencyLevel,
    OperationResult,
    StorageService,
    UnavailableError,
)
from .state import (
    STATUS,
    STATUS_BOOT,
    STATUS_LEAVING,
    STATUS_LEFT,
    STATUS_NORMAL,
    TOKENS,
    GossipDigest,
    VersionedValue,
)
from .state_columnar import EndpointStateView
from .tokens import Ring, TokenRange, token_for_key, tokens_for_node
from .workloads import (
    ScenarioParams,
    run_bootstrap,
    run_decommission,
    run_failover,
    run_rebalance,
    run_scale_out,
    run_workload,
)

__all__ = [
    "BugConfig",
    "CalcExecutor",
    "CalcRecord",
    "CalcRequest",
    "CalculatorVariant",
    "ClientLoad",
    "ClusterSampler",
    "ClientStats",
    "Cluster",
    "ConsistencyLevel",
    "OperationResult",
    "StorageService",
    "UnavailableError",
    "ClusterConfig",
    "CostConstants",
    "DEFAULT_COSTS",
    "DEFAULT_PHI_THRESHOLD",
    "DirectExecutor",
    "EndpointStateView",
    "FlapCounter",
    "FlapEvent",
    "GossipConfig",
    "GossipDigest",
    "Gossiper",
    "LockMode",
    "MachineSpec",
    "Mode",
    "Node",
    "NodeCosts",
    "PhiAccrualFailureDetector",
    "Ring",
    "RunReport",
    "STATUS",
    "STATUS_BOOT",
    "STATUS_LEAVING",
    "STATUS_LEFT",
    "STATUS_NORMAL",
    "ScenarioParams",
    "SharedOutputCache",
    "TOKENS",
    "TimelinePoint",
    "TokenMetadata",
    "TokenRange",
    "VersionedValue",
    "Workload",
    "accuracy_error",
    "all_bugs",
    "calc_cost",
    "calculate_pending_ranges_legacy",
    "compute_pending_ranges",
    "deserialize_pending",
    "get_bug",
    "node_name",
    "pending_ranges_input_key",
    "render_timeline",
    "run_bootstrap",
    "run_decommission",
    "run_failover",
    "run_rebalance",
    "run_scale_out",
    "run_workload",
    "serialize_pending",
    "sparkline",
    "token_for_key",
    "tokens_for_node",
]
