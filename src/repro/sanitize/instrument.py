"""Auto-generated access instrumentation for statically-shared sites.

The static pass (:mod:`repro.analysis.shared`) names the ``(class, attr)``
pairs that more than one kernel process can reach; this module wraps
exactly those attributes on a *live* cluster with tracked container
subclasses, so only statically-shared sites pay tracking cost.  The
wrappers subclass the builtin containers -- model code keeps passing
``isinstance`` checks, iteration, and C-speed operations it does not
override -- and report each operation to the :class:`RaceTracker` as a
read or a write.

Wrapping happens once, after the cluster is built and before it runs, so
no alias to the unwrapped container can survive into the run (model code
only reaches these structures through their owning object's attribute).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Iterable, List, Optional

from .tracker import RaceTracker


class TrackedMap(dict):
    """A dict reporting reads/writes of the whole structure to a tracker."""

    __slots__ = ("_t", "_k")

    def __init__(self, tracker: RaceTracker, site: str,
                 initial: Optional[dict] = None) -> None:
        super().__init__(initial or {})
        self._t = tracker
        self._k = site

    # -- reads -------------------------------------------------------------
    def __getitem__(self, key):
        self._t.access(self._k, "r")
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._t.access(self._k, "r")
        return super().get(key, default)

    def __contains__(self, key):
        self._t.access(self._k, "r")
        return super().__contains__(key)

    def __iter__(self):
        self._t.access(self._k, "r")
        return super().__iter__()

    def __len__(self):
        self._t.access(self._k, "r")
        return super().__len__()

    def keys(self):
        self._t.access(self._k, "r")
        return super().keys()

    def values(self):
        self._t.access(self._k, "r")
        return super().values()

    def items(self):
        self._t.access(self._k, "r")
        return super().items()

    # -- writes ------------------------------------------------------------
    def __setitem__(self, key, value):
        self._t.access(self._k, "w")
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self._t.access(self._k, "w")
        super().__delitem__(key)

    def pop(self, key, *default):
        self._t.access(self._k, "w")
        return super().pop(key, *default)

    def popitem(self):
        self._t.access(self._k, "w")
        return super().popitem()

    def clear(self):
        self._t.access(self._k, "w")
        super().clear()

    def update(self, *args, **kwargs):
        self._t.access(self._k, "w")
        super().update(*args, **kwargs)

    def setdefault(self, key, default=None):
        self._t.access(self._k, "w")
        return super().setdefault(key, default)


class TrackedSeq(list):
    """A list reporting reads/writes of the whole structure to a tracker."""

    __slots__ = ("_t", "_k")

    def __init__(self, tracker: RaceTracker, site: str,
                 initial: Optional[Iterable] = None) -> None:
        super().__init__(initial or ())
        self._t = tracker
        self._k = site

    def __getitem__(self, index):
        self._t.access(self._k, "r")
        return super().__getitem__(index)

    def __iter__(self):
        self._t.access(self._k, "r")
        return super().__iter__()

    def __len__(self):
        self._t.access(self._k, "r")
        return super().__len__()

    def __contains__(self, item):
        self._t.access(self._k, "r")
        return super().__contains__(item)

    def __setitem__(self, index, value):
        self._t.access(self._k, "w")
        super().__setitem__(index, value)

    def __delitem__(self, index):
        self._t.access(self._k, "w")
        super().__delitem__(index)

    def append(self, item):
        self._t.access(self._k, "w")
        super().append(item)

    def extend(self, items):
        self._t.access(self._k, "w")
        super().extend(items)

    def insert(self, index, item):
        self._t.access(self._k, "w")
        super().insert(index, item)

    def pop(self, index=-1):
        self._t.access(self._k, "w")
        return super().pop(index)

    def remove(self, item):
        self._t.access(self._k, "w")
        super().remove(item)

    def clear(self):
        self._t.access(self._k, "w")
        super().clear()

    def sort(self, **kwargs):
        self._t.access(self._k, "w")
        super().sort(**kwargs)


class TrackedSet(set):
    """A set reporting reads/writes of the whole structure to a tracker."""

    def __init__(self, tracker: RaceTracker, site: str,
                 initial: Optional[Iterable] = None) -> None:
        super().__init__(initial or ())
        self._t = tracker
        self._k = site

    def __contains__(self, item):
        self._t.access(self._k, "r")
        return super().__contains__(item)

    def __iter__(self):
        self._t.access(self._k, "r")
        return super().__iter__()

    def __len__(self):
        self._t.access(self._k, "r")
        return super().__len__()

    def add(self, item):
        self._t.access(self._k, "w")
        super().add(item)

    def discard(self, item):
        self._t.access(self._k, "w")
        super().discard(item)

    def remove(self, item):
        self._t.access(self._k, "w")
        super().remove(item)

    def pop(self):
        self._t.access(self._k, "w")
        return super().pop()

    def clear(self):
        self._t.access(self._k, "w")
        super().clear()

    def update(self, *others):
        self._t.access(self._k, "w")
        super().update(*others)


_WRAPPERS = {dict: TrackedMap, list: TrackedSeq, set: TrackedSet}


def _owner_label(obj: Any) -> str:
    for attr in ("node_id", "name"):
        value = getattr(obj, attr, None)
        if isinstance(value, str) and value:
            return value
    return ""


def _discover(roots: Iterable[Any], class_names: set,
              max_depth: int = 3) -> List[Any]:
    """Objects reachable from ``roots`` via attributes (and dict values)
    whose type name is in ``class_names``, in deterministic walk order."""
    found: List[Any] = []
    seen: set = set()
    frontier = list(roots)
    for _ in range(max_depth):
        nxt: List[Any] = []
        for obj in frontier:
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if type(obj).__name__ in class_names:
                found.append(obj)
            attrs = getattr(obj, "__dict__", None)
            if not isinstance(attrs, dict):
                continue
            for name in sorted(attrs):
                value = attrs[name]
                if isinstance(value, dict):
                    nxt.extend(v for v in value.values()
                               if hasattr(v, "__dict__"))
                elif hasattr(value, "__dict__"):
                    nxt.append(value)
        frontier = nxt
    return found


def instrument_cluster(cluster: Any, sites: Iterable[Any],
                       tracker: RaceTracker) -> Dict[str, str]:
    """Wrap each statically-shared container site on a live cluster.

    ``sites`` are :class:`repro.analysis.shared.SharedSite` records (or
    anything with ``cls``/``attr`` attributes).  Builtin-container
    attributes are wrapped, and a container that reports its own
    accesses (``track_accesses(report)``: the gossip state map, whose
    rows live in columns no wrapper could see) is handed the tracker;
    other plain-object sites (e.g. ``TokenMetadata``) are statically
    classified but left untracked -- proxying arbitrary objects would
    risk perturbing model semantics.

    Nodes are created *during* the scenario (staggered joins add members
    mid-run), so besides wrapping everything already reachable this hooks
    ``cluster.add_node`` to instrument each new node's subtree the moment
    it is built -- before any of its processes can touch a structure.

    Returns ``{site_key: classification}``; the dict keeps growing as
    nodes join, so callers reading it after the run see every site.
    """
    by_cls: Dict[str, List[Any]] = {}
    for site in sites:
        by_cls.setdefault(site.cls, []).append(site)
    wrapped: Dict[str, str] = {}

    def wrap_from(roots: List[Any]) -> None:
        for obj in _discover(roots, set(by_cls), max_depth=4):
            label = _owner_label(obj)
            for site in by_cls[type(obj).__name__]:
                value = getattr(obj, site.attr, None)
                wrapper = _WRAPPERS.get(type(value))
                track = getattr(value, "track_accesses", None)
                if wrapper is None and track is None:
                    continue
                key = (f"{site.cls}.{site.attr}"
                       + (f"@{label}" if label else ""))
                if wrapper is not None:
                    setattr(obj, site.attr, wrapper(tracker, key, value))
                else:
                    track(partial(tracker.access, key))
                wrapped[key] = getattr(site, "classification", "")

    wrap_from([cluster])
    original_add = getattr(cluster, "add_node", None)
    if original_add is not None:
        def add_node(node_id: str, generation: int = 1) -> Any:
            node = original_add(node_id, generation)
            wrap_from([node])
            return node

        cluster.add_node = add_node
    return wrapped
