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

The same run also bounds the bytes per (observer, peer) pair: everything
traced to those two files and ``cassandra/state_columnar.py``, divided by
N·(N−1).  The columns are 78 bytes a pair (54 in the endpoint store, 20 in
the detector, 4 for the gossiper's conviction candidates); the rest is
array over-allocation, the shared digest table and payloads in flight,
whose share falls as N grows.  Measured (CPython 3.11): 265.4 bytes at
N=32 and 172.8 at N=64.  With a memoized mean, a first-report order list,
a last-arrival column of its own, 8-byte gids and counts and a sorted name
list per gossiper (130 bytes of columns), it read 328.9 and 231.0.
"""

import gc
import tracemalloc

import pytest

from repro.cassandra.cluster import Cluster, ClusterConfig

FILES = ("cassandra/gossip.py", "cassandra/failure_detector.py")
PAIR_FILES = FILES + ("cassandra/state_columnar.py",)

#: Bytes per pair each N must stay under: between the two readings above.
PAIR_BYTES_BOUND = {32: 300.0, 64: 200.0}


def _census(nodes: int):
    """(blocks per node, bytes per pair) after a 2-virtual-second run."""
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
    assert len(cluster.nodes) == nodes
    blocks = size = 0
    for stat in snapshot.statistics("filename"):
        filename = stat.traceback[0].filename.replace("\\", "/")
        if filename.endswith(FILES):
            blocks += stat.count
        if filename.endswith(PAIR_FILES):
            size += stat.size
    return blocks / nodes, size / (nodes * (nodes - 1))


@pytest.fixture(scope="module")
def census():
    return {nodes: _census(nodes) for nodes in (32, 64)}


def test_gossip_objects_per_node_do_not_grow_with_n(census):
    small, large = census[32][0], census[64][0]
    assert small > 0
    assert abs(large - small) / small < 0.10, (small, large)


@pytest.mark.parametrize("nodes", sorted(PAIR_BYTES_BOUND))
def test_bytes_per_pair_stay_bounded(census, nodes):
    per_pair = census[nodes][1]
    assert 0 < per_pair < PAIR_BYTES_BOUND[nodes], per_pair
