"""The memoization database (step (d) of the paper's Figure 2).

During the one-time *basic colocation* run, every PIL-replaced function
invocation records an ``(input, output, duration)`` triple -- the paper's
in-situ time recording -- plus the global message-delivery order ("order
determinism").  PIL-infused replay then substitutes each invocation with
``sleep(duration)`` and the recorded output.

Keys are *content* keys (e.g. the ring table's stable hash), so records are
shared across nodes whose state has converged -- this is what keeps the
database small even though the calculation runs thousands of times.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..canonical import atomic_write_text, canonical_json, sha256_hex

#: Format tag written into serialized databases (bump on incompatible change).
MEMO_FORMAT = "repro-memo-db-v1"


@dataclass
class MemoRecord:
    """One memoized invocation of a PIL-replaced function."""

    func_id: str
    input_key: str
    output: Any              # JSON-serializable form of the return value
    duration: float          # in-situ recorded compute time (seconds)
    node_id: str = ""        # which node recorded it (diagnostics)
    time: float = 0.0        # virtual time of the recording
    samples: int = 1         # how many invocations matched this key

    def key(self) -> Tuple[str, str]:
        """The (func_id, input_key) identity tuple."""
        return (self.func_id, self.input_key)


class PilViolationError(ValueError):
    """A PIL-replaced function returned different outputs for one input.

    The processing illusion is only safe for *input-deterministic*
    functions (the paper's PIL-safety rule): substituting a recorded
    output is wrong if the live function could have produced another one.
    """


class MemoDB:
    """Input-keyed store of memo records plus the recorded message order.

    ``strict=True`` raises :class:`PilViolationError` the moment a repeat
    invocation disagrees with the recorded output; the default keeps the
    historical first-write-wins behaviour but counts every disagreement in
    ``conflicts`` / ``conflict_keys`` so violations are visible instead of
    silently masked.
    """

    #: Cap on remembered conflicting keys (diagnostics, not a full log).
    MAX_CONFLICT_KEYS = 32

    def __init__(self, strict: bool = False) -> None:
        self._records: Dict[Tuple[str, str], MemoRecord] = {}
        self.message_order: List[str] = []
        self.meta: Dict[str, Any] = {}
        self.lookups = 0
        self.hits = 0
        self.strict = strict
        self.conflicts = 0
        self.conflict_keys: List[Tuple[str, str]] = []

    # -- recording ----------------------------------------------------------------

    def put(
        self,
        func_id: str,
        input_key: str,
        output: Any,
        duration: float,
        node_id: str = "",
        time: float = 0.0,
    ) -> MemoRecord:
        """Record one invocation.

        First write wins for output (outputs for a given input are identical
        by the PIL-safety rule); durations of repeat observations are folded
        into a running mean, which smooths measurement noise exactly the way
        repeated in-situ samples would.  A repeat whose output *disagrees*
        is a PIL-safety violation: counted always, fatal when ``strict``.
        """
        key = (func_id, input_key)
        existing = self._records.get(key)
        if existing is None:
            record = MemoRecord(
                func_id=func_id, input_key=input_key, output=output,
                duration=duration, node_id=node_id, time=time,
            )
            self._records[key] = record
            return record
        if output != existing.output:
            self.conflicts += 1
            if len(self.conflict_keys) < self.MAX_CONFLICT_KEYS:
                self.conflict_keys.append(key)
            if self.strict:
                raise PilViolationError(
                    f"PIL-safety violation: {func_id}({input_key!r}) "
                    f"returned {output!r}, previously {existing.output!r} "
                    f"(recorded by {existing.node_id or '?'})"
                )
        total = existing.duration * existing.samples + duration
        existing.samples += 1
        existing.duration = total / existing.samples
        return existing

    def record_message_order(self, delivery_log: Iterable[str]) -> None:
        """Store the recorded global delivery order."""
        self.message_order = list(delivery_log)

    # -- lookup --------------------------------------------------------------------

    def get(self, func_id: str, input_key: str) -> Optional[MemoRecord]:
        """Look up an entry; returns None when absent."""
        self.lookups += 1
        record = self._records.get((func_id, input_key))
        if record is not None:
            self.hits += 1
        return record

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: Tuple[str, str]) -> bool:
        return key in self._records

    def records(self) -> List[MemoRecord]:
        """All memo records (list copy)."""
        return list(self._records.values())

    def func_ids(self) -> List[str]:
        """Distinct function identities present, sorted."""
        return sorted({record.func_id for record in self._records.values()})

    def durations(self, func_id: Optional[str] = None) -> List[float]:
        """Recorded durations, optionally filtered by function id."""
        return [
            record.duration
            for record in self._records.values()
            if func_id is None or record.func_id == func_id
        ]

    def duration_range(self) -> Tuple[float, float]:
        """(min, max) recorded duration; (0, 0) when empty."""
        values = self.durations()
        if not values:
            return (0.0, 0.0)
        return (min(values), max(values))

    def total_samples(self) -> int:
        """Total invocations folded into the records."""
        return sum(record.samples for record in self._records.values())

    def hit_rate(self) -> float:
        """Fraction of lookups that hit."""
        return self.hits / self.lookups if self.lookups else 0.0

    # -- persistence -----------------------------------------------------------------
    #
    # The payload is *canonical*: records are sorted by (func_id, input_key)
    # so that two processes recording the same run serialize byte-identical
    # databases -- the property the sweep engine's content-addressed result
    # cache is keyed on.  Strict-mode state and the conflict diagnostics are
    # carried through the round trip so a reloaded database reports the same
    # PIL-safety verdict the recording run saw.

    def to_payload(self) -> Dict[str, Any]:
        """Canonical JSON-ready form (records sorted by key)."""
        return {
            "format": MEMO_FORMAT,
            "meta": self.meta,
            "message_order": self.message_order,
            "records": [asdict(self._records[key])
                        for key in sorted(self._records)],
            "strict": self.strict,
            "conflicts": self.conflicts,
            "conflict_keys": [list(key) for key in self.conflict_keys],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MemoDB":
        """Inverse of :meth:`to_payload`."""
        fmt = payload.get("format", MEMO_FORMAT)
        if fmt != MEMO_FORMAT:
            raise ValueError(f"unknown memo-db format {fmt!r} "
                             f"(expected {MEMO_FORMAT!r})")
        db = cls(strict=bool(payload.get("strict", False)))
        db.meta = dict(payload.get("meta", {}))
        db.message_order = list(payload.get("message_order", []))
        for item in payload.get("records", []):
            record = MemoRecord(**item)
            db._records[record.key()] = record
        db.conflicts = int(payload.get("conflicts", 0))
        db.conflict_keys = [tuple(key)
                            for key in payload.get("conflict_keys", [])]
        return db

    def canonical_json(self) -> str:
        """Deterministic JSON form (sorted keys, compact separators)."""
        return canonical_json(self.to_payload())

    def digest(self) -> str:
        """SHA-256 of the canonical form: the database's content identity.

        Two recordings of the same seeded scenario -- in different
        processes, on different days -- produce equal digests; the sweep
        result cache folds this into every PIL point's key so a replay
        result is never reused against a recording it did not come from.
        """
        return sha256_hex(self.canonical_json())

    def save(self, path) -> None:
        """Serialize to JSON (records, message order, metadata, conflicts).

        The write is atomic: a concurrent reader (another sweep worker
        warming up) sees the old file or the new one, never a torn one.
        """
        atomic_write_text(path, json.dumps(self.to_payload(), indent=1,
                                           sort_keys=True))

    @classmethod
    def load(cls, path) -> "MemoDB":
        """Read a database previously written with :meth:`save`."""
        return cls.from_payload(json.loads(Path(path).read_text()))


class MemoLruFront:
    """A small LRU in front of :meth:`MemoDB.get` caching parsed outputs.

    Replay resolves the *same* content keys over and over (every node whose
    ring view has converged hits the identical record), and each hit used
    to re-deserialize the recorded output from its JSON-ready form.  The
    front caches ``(record, deserialized_output)`` per ``(func_id,
    input_key)`` and serves repeats without touching the deserializer.

    Correctness notes:

    * The underlying DB's ``lookups``/``hits`` counters advance on LRU hits
      exactly as a direct ``get`` would, so observability and reports are
      unchanged (the counters are not part of the DB's canonical payload,
      so its content digest is unaffected either way).
    * Callers never mutate an output in place (a ring table rebinds its
      pending-range map instead of popping from it), so one parsed output
      could serve every hit.  Dict outputs are still handed out as a fresh
      top-level shallow copy per hit, which keeps the cached object from
      escaping; non-dict outputs are re-deserialized per call --
      byte-for-byte the uncached behaviour.
    """

    def __init__(self, db: MemoDB, deserialize: Callable[[Any], Any],
                 capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.db = db
        self.deserialize = deserialize
        self.capacity = capacity
        self._cache: "OrderedDict[Tuple[str, str], Tuple[MemoRecord, Any]]" = (
            OrderedDict())
        self.lru_hits = 0
        self.lru_misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._cache)

    def get(self, func_id: str, input_key: str):
        """``(record, deserialized_output)``; ``(None, None)`` on DB miss."""
        key = (func_id, input_key)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.lru_hits += 1
            db = self.db
            db.lookups += 1
            db.hits += 1
            record, output = cached
            return record, self._materialize(record, output)
        self.lru_misses += 1
        record = self.db.get(func_id, input_key)
        if record is None:
            return None, None
        output = self.deserialize(record.output)
        self._cache[key] = (record, output)
        if len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
            self.evictions += 1
        # The cached object never escapes for dict outputs: the caller gets
        # its own top-level copy.
        return record, (dict(output) if isinstance(output, dict) else output)

    def _materialize(self, record: MemoRecord, output: Any):
        if isinstance(output, dict):
            return dict(output)
        return self.deserialize(record.output)

    def hit_rate(self) -> float:
        """Fraction of front lookups served without deserializing."""
        total = self.lru_hits + self.lru_misses
        return self.lru_hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Counters for the metrics collector."""
        return {
            "lru_hits": self.lru_hits,
            "lru_misses": self.lru_misses,
            "lru_evictions": self.evictions,
            "lru_size": len(self._cache),
            "lru_hit_rate": self.hit_rate(),
        }
