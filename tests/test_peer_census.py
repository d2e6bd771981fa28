"""Host objects per simulated node must not grow with the cluster.

Every node's view of every peer -- its liveness and its failure-detector
window -- lives in gid-indexed columns and one sample pool per detector,
so the Python objects the gossip layer holds per node are a constant, not
one per peer.  Counted with the standard library's ``tracemalloc``: the
live blocks allocated in ``cassandra/gossip.py`` and
``cassandra/failure_detector.py`` once an established c3831 cluster has
run two virtual seconds.

Measured (CPython 3.11): 62.31 blocks per node at N=32 and 64.73 at N=64
(+3.9%; what does grow is the per-peer tuples of gossip payloads still in
flight).  With one ``array('d')`` window per (observer, target) pair and
one hash table per live set, the same census read 87.75 and 100.23
(+14.2%): 471 and 1,264 window arrays.
"""

import gc
import tracemalloc

from repro.cassandra.cluster import Cluster, ClusterConfig

FILES = ("cassandra/gossip.py", "cassandra/failure_detector.py")


def _blocks_per_node(nodes: int) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        cluster = Cluster(ClusterConfig.for_bug("c3831", nodes=nodes))
        cluster.build_established()
        cluster.run(2.0)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    blocks = sum(stat.count for stat in snapshot.statistics("filename")
                 if stat.traceback[0].filename.replace("\\", "/")
                 .endswith(FILES))
    assert len(cluster.nodes) == nodes
    return blocks / nodes


def test_gossip_objects_per_node_do_not_grow_with_n():
    small, large = _blocks_per_node(32), _blocks_per_node(64)
    assert small > 0
    assert abs(large - small) / small < 0.10, (small, large)
