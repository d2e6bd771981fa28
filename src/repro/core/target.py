"""The target-system seam: what scale-check needs to know about a system.

The paper's section 7 asks to "integrate the process to other distributed
systems beyond Cassandra".  Memoizing under colocation, PIL replay, order
enforcement, fault injection and sweeping are the same for every system;
what differs fits in one :class:`Target` record, and
:class:`~repro.core.scalecheck.ScaleCheck`,
:class:`~repro.core.replayer.ReplayHarness` and the sweep engine go
through it.  There are two values: :data:`CASSANDRA` here and
``repro.hdfs.HDFS_TARGET``.

The bug id selects the target (:func:`target_for`).  HDFS is resolved
lazily, so a Cassandra run never imports :mod:`repro.hdfs`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, List

from ..cassandra.bugs import get_bug
from ..cassandra.cluster import Cluster, ClusterConfig, Mode, node_name
from ..cassandra.metrics import RunReport
from ..cassandra.pending_ranges import deserialize_pending, serialize_pending
from ..cassandra.workloads import ScenarioParams, run_workload
from .pil import CALC_FUNC_ID


@dataclass(frozen=True)
class Target:
    """One target system, as the scale-check pipeline sees it."""

    #: ``(check, mode) -> config`` of one :class:`ScaleCheck` run.
    config: Callable[[Any, Mode], Any]
    #: ``(config, order_enforcer=, tracer=) -> cluster``.  The cluster has
    #: ``sim``, a ``network`` with a ``delivery_log``, a settable
    #: ``executor`` and the fault-injection hooks.
    cluster: Callable[..., Any]
    #: ``(cluster, params) -> RunReport``: the scenario under test.
    run: Callable[[Any, ScenarioParams], RunReport]
    #: Identity and output codec of the memoized (PIL-replaced) function.
    func_id: str
    serialize: Callable[[Any], Any]
    deserialize: Callable[[Any], Any]
    #: ``nodes -> names`` a chaos schedule may hit.
    population: Callable[[int], List[str]]


def _cassandra_config(check, mode: Mode) -> ClusterConfig:
    return ClusterConfig(
        bug=check.bug,
        nodes=check.nodes,
        mode=mode,
        rf=check.rf,
        seed=check.seed,
        machine=copy.deepcopy(check.machine),
        gossip=copy.deepcopy(check.gossip),
        costs=copy.deepcopy(check.costs),
        cost_constants=copy.deepcopy(check.cost_constants),
    )


CASSANDRA = Target(
    config=_cassandra_config,
    cluster=Cluster,
    run=lambda cluster, params: run_workload(
        cluster, cluster.config.bug.workload, params),
    func_id=CALC_FUNC_ID,
    serialize=serialize_pending,
    deserialize=deserialize_pending,
    population=lambda nodes: [node_name(i) for i in range(nodes)],
)


def target_for(bug_id: str) -> Target:
    """The target system ``bug_id`` runs on.

    Cassandra's registered bugs resolve without importing anything else;
    any other id is looked up in :mod:`repro.hdfs`.  An id neither system
    knows raises the bug registry's ``KeyError``.
    """
    try:
        get_bug(bug_id)
        return CASSANDRA
    except KeyError:
        from ..hdfs import HDFS_BUG_ID, HDFS_TARGET
        if bug_id != HDFS_BUG_ID:
            raise
        return HDFS_TARGET
