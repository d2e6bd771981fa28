"""The workload engine: shards in, latency accounting out.

Owns the traffic side of a run: it spawns the shard processes described
by a :class:`~repro.workload.spec.WorkloadSpec`, picks a coordinator for
every request (round-robin, Zipf-weighted power-law, or seed-biased),
drives the storage layer's read/write coordination, and folds every
outcome -- weighted by how many logical requests the representative
stands for -- into :class:`~repro.obs.histogram.QuantileHistogram`s and
request totals.  :meth:`fill_report` then surfaces the totals and the
p50/p99/p999 triple on the run's :class:`~repro.cassandra.metrics.RunReport`.
"""

from __future__ import annotations

import itertools
from typing import Dict, List

from ..annotations import declare_cost, scale_dependent
from ..cassandra.storage import ConsistencyLevel, OperationResult
from ..obs.histogram import QuantileHistogram
from .generators import ZipfKeys, make_curve
from .shards import ShardDemand, closed_loop_worker, open_loop_shard
from .spec import WorkloadSpec

# The per-shard demand table is sized by the shard count, not the user
# count -- that is the aggregation invariant the linter should hold us to.
scale_dependent("demands", var="S",
                note="one ShardDemand per user shard (S = shards, "
                     "never the user count)")
# Issuing one representative request draws kind/key/coordinator and
# spawns one process: O(1) in users and cluster size alike.
declare_cost("issue", U=0, note="per-request work is constant; demand "
                                "aggregation happens in the shard tick")

#: Probability a seed-topology request targets a seed node.
SEED_BIAS = 0.75


class WorkloadEngine:
    """Drives one spec's traffic against a built cluster."""

    def __init__(self, cluster, spec: WorkloadSpec) -> None:
        self.cluster = cluster
        self.spec = spec
        self.latency = QuantileHistogram()
        self.latency_by_kind: Dict[str, QuantileHistogram] = {
            kind: QuantileHistogram() for kind in ("read", "write")
        }
        #: Weighted request totals, by outcome.
        self.attempted = 0.0
        self.ok = 0.0
        self.unavailable = 0.0
        self.timeouts = 0.0
        self.keys = ZipfKeys(spec.key_space, spec.zipf_alpha)
        self.curve = make_curve(spec.curve, spec.curve_params)
        self.read_cl = ConsistencyLevel(spec.read_cl)
        self.write_cl = ConsistencyLevel(spec.write_cl)
        self.demands: List[ShardDemand] = [
            ShardDemand(shard_id=i, users=spec.users_in_shard(i))
            for i in range(spec.shards)
        ]
        self._round_robin = itertools.count()
        self._topology_cdf: Dict[int, ZipfKeys] = {}

    # -- lifecycle ---------------------------------------------------------------

    def start(self, until: float) -> None:
        """Spawn every shard's traffic process(es), running to ``until``."""
        sim = self.cluster.sim
        for demand in self.demands:
            if self.spec.loop == "open":
                sim.spawn(open_loop_shard(self, demand.shard_id, until),
                          name=f"wl-shard:{demand.shard_id}")
            else:
                for worker in range(self.spec.workers_per_shard):
                    sim.spawn(
                        closed_loop_worker(self, demand.shard_id, worker,
                                           until),
                        name=f"wl-worker:{demand.shard_id}:{worker}")

    # -- coordinator selection ------------------------------------------------------

    def coordinators(self) -> List:
        """Running storage-enabled nodes, in stable node-id order."""
        return [node for _, node in sorted(self.cluster.nodes.items())
                if node.running and node.storage is not None]

    def pick_coordinator(self, stream: str):
        """One coordinator per the spec's topology (None when none run)."""
        nodes = self.coordinators()
        if not nodes:
            return None
        rng = self.cluster.sim.rng
        if self.spec.topology == "powerlaw":
            # Zipf-weighted choice over the node list: a few coordinators
            # absorb most traffic (SNIPPETS's power-law neighbor topology).
            cdf = self._topology_cdf.get(len(nodes))
            if cdf is None:
                cdf = ZipfKeys(len(nodes), self.spec.topology_alpha)
                self._topology_cdf[len(nodes)] = cdf
            return nodes[cdf.rank(rng.random(stream))]
        if self.spec.topology == "seeds":
            # Seed-registration shape: most requests hit the seed nodes.
            seeds = [n for n in nodes if n.node_id in self.cluster.seeds]
            others = [n for n in nodes if n.node_id not in self.cluster.seeds]
            pool = seeds if (seeds and (not others or
                             rng.random(stream) < SEED_BIAS)) else others
            return pool[rng.randint(stream, 0, len(pool) - 1)]
        return nodes[next(self._round_robin) % len(nodes)]

    # -- request issue/perform ------------------------------------------------------

    def _draw(self, stream: str):
        """(kind, key, coordinator) for one request, from ``stream``."""
        rng = self.cluster.sim.rng
        kind = ("read" if rng.random(stream) < self.spec.read_fraction
                else "write")
        key = self.keys.key(rng.random(stream))
        return kind, key, self.pick_coordinator(stream)

    def issue(self, stream: str, shard_id: int, weight: float) -> None:
        """Open loop: draw one request now, run it as its own process.

        Draws happen here -- in shard-loop order -- not inside the spawned
        process, so request interleaving can never perturb the streams.
        """
        kind, key, node = self._draw(stream)
        if node is None:
            self.record(OperationResult(ok=False, key=key, kind=kind,
                                        error="unavailable"), weight)
            return
        self.cluster.sim.spawn(self._request(node, kind, key, weight),
                               name=f"wl-req:{shard_id}")

    def perform(self, stream: str, weight: float):
        """Closed loop: draw and run one request inline (``yield from``)."""
        kind, key, node = self._draw(stream)
        if node is None:
            self.record(OperationResult(ok=False, key=key, kind=kind,
                                        error="unavailable"), weight)
            return
        result = yield from self._coordinate(node, kind, key)
        self.record(result, weight)

    def _request(self, node, kind: str, key: str, weight: float):
        result = yield from self._coordinate(node, kind, key)
        self.record(result, weight)

    def _coordinate(self, node, kind: str, key: str):
        if kind == "read":
            result = yield from node.storage.coordinate_read(key,
                                                             self.read_cl)
        else:
            value = f"v@{self.cluster.sim.now:.3f}"
            result = yield from node.storage.coordinate_write(key, value,
                                                              self.write_cl)
        return result

    # -- accounting ---------------------------------------------------------------

    def record(self, result: OperationResult, weight: float) -> None:
        """Fold one (weighted) outcome into the histograms and totals."""
        self.attempted += weight
        self.latency.observe(result.latency, weight)
        self.latency_by_kind[result.kind].observe(result.latency, weight)
        if result.ok:
            self.ok += weight
        elif result.error == "unavailable":
            self.unavailable += weight
        else:
            self.timeouts += weight

    def fill_report(self, report) -> None:
        """Surface the data-plane totals on a finished RunReport."""
        report.requests_attempted = self.attempted
        report.requests_ok = self.ok
        report.requests_unavailable = self.unavailable
        report.requests_timeout = self.timeouts
        triple = self.latency.percentiles()
        report.latency_p50 = triple["p50"]
        report.latency_p99 = triple["p99"]
        report.latency_p999 = triple["p999"]
        report.hints_stored = sum(
            node.storage.hints_stored for node in self.cluster.nodes.values()
            if node.storage is not None)
        report.hints_delivered = sum(
            node.storage.hints_delivered
            for node in self.cluster.nodes.values()
            if node.storage is not None)
        per_kind = {}
        for kind, hist in sorted(self.latency_by_kind.items()):
            entry = {"count": hist.count}
            entry.update(hist.percentiles())
            per_kind[kind] = entry
        report.workload = {
            "spec": self.spec.to_dict(),
            "offered": sum(d.offered for d in self.demands),
            "issued": sum(d.issued for d in self.demands),
            "shards": len(self.demands),
            "fold_factor": (max(d.fold_factor for d in self.demands)
                            if self.demands else 0.0),
            "mean_latency": self.latency.mean(),
            "by_kind": per_kind,
        }
