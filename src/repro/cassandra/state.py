"""The gossip wire vocabulary: state keys, versioned values, digests.

Every node keeps its *own* view of every endpoint's state
(:mod:`repro.cassandra.state_columnar`); gossip messages carry plain
serialized blobs ``(generation, heartbeat_version, ((key, value, version,
payload), ...))`` so views never alias each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, Optional, Tuple

# Application-state keys (subset of Cassandra's ApplicationState enum that
# the membership protocols need).
STATUS = "STATUS"
TOKENS = "TOKENS"
LOAD = "LOAD"

# STATUS values.
STATUS_BOOT = "BOOT"
STATUS_NORMAL = "NORMAL"
STATUS_LEAVING = "LEAVING"
STATUS_LEFT = "LEFT"


class VersionGenerator:
    """Per-node monotonically increasing version numbers.

    Cassandra uses a single generator per node shared by the heartbeat and
    all application states, so "max version" digests summarize everything.
    """

    def __init__(self) -> None:
        self._counter = itertools.count(1)

    def next(self) -> int:
        """The next monotonically increasing version number."""
        return next(self._counter)


@dataclass(frozen=True)
class VersionedValue:
    """An application-state value with the version at which it was set."""

    value: str
    version: int
    #: Optional structured payload (e.g. the token tuple for TOKENS).
    payload: Optional[Tuple] = None


class GossipDigest(NamedTuple):
    """Summary of one endpoint's state: who, which incarnation, how new.

    A ``NamedTuple`` rather than a frozen dataclass: gossip constructs
    O(N) of these per SYN per node, and tuple construction happens at C
    speed with no ``__init__``/``__setattr__`` machinery.
    """

    endpoint: str
    generation: int
    max_version: int


def blob_entry_count(blob: tuple) -> int:
    """Number of app-state entries in a state blob (for CPU cost models)."""
    return 1 + len(blob[2])


#: A blob's app items, as a C-speed getter: the hot paths count a message's
#: entries as ``len(blobs) + sum(map(len, map(blob_app_items,
#: blobs.values())))``, which is ``blob_entry_count`` summed over ``blobs``.
blob_app_items = itemgetter(2)
