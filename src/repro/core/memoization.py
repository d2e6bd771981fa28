"""The memoization database (step (d) of the paper's Figure 2).

During the one-time *basic colocation* run, every PIL-replaced function
invocation records an ``(input, output, duration)`` triple -- the paper's
in-situ time recording.  PIL-infused replay then substitutes each
invocation with ``sleep(duration)`` and the recorded output.  The
message-delivery order is not recorded (DESIGN.md section 1, step (d)).

Keys are *content* keys (e.g. the ring table's stable hash), so records are
shared across nodes whose state has converged -- this is what keeps the
database small even though the calculation runs thousands of times.

A :class:`MemoDB` is also a :class:`~repro.core.scalecheck.ScaleCheck`'s
one output store: :meth:`MemoDB.outputs` holds every output its runs
resolve, and a record adds what a memoize run measured (duration, samples,
node, time) over the same object.  Only records are counted, saved,
digested and hit by a replay.

A record holds its output as the function returned it (a pending-range
output is compact arrays); a function's ``(serialize, deserialize)`` codec,
registered by the executor that records or replays it, makes the JSON form
only at the disk boundary: :meth:`MemoDB.to_payload` (and so ``save`` and
``digest``) writes it, and a loaded recording is converted back once, when
an executor adopts it.
"""

from __future__ import annotations

import copy
import json
from collections import OrderedDict
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..canonical import atomic_write_text, canonical_json, sha256_hex

#: Format tag written into serialized databases (bump on incompatible change).
MEMO_FORMAT = "repro-memo-db-v1"

#: ``(serialize, deserialize)``: an output's JSON form and back.
Codec = Tuple[Callable[[Any], Any], Callable[[Any], Any]]


@dataclass
class MemoRecord:
    """One memoized invocation of a PIL-replaced function."""

    func_id: str
    input_key: str
    output: Any              # the return value (JSON form without a codec)
    duration: float          # in-situ recorded compute time (seconds)
    node_id: str = ""        # which node recorded it (diagnostics)
    time: float = 0.0        # virtual time of the recording
    samples: int = 1         # how many invocations matched this key

    def key(self) -> Tuple[str, str]:
        """The (func_id, input_key) identity tuple."""
        return (self.func_id, self.input_key)


class MemoDB:
    """Input-keyed store of calculation outputs and memo records.

    The processing illusion is only safe for *input-deterministic*
    functions (the paper's PIL-safety rule): a repeat invocation whose
    output disagrees with the recorded one keeps the first output but is
    counted in ``conflicts`` / ``conflict_keys``, so violations are visible
    instead of silently masked.
    """

    #: Cap on remembered conflicting keys (diagnostics, not a full log).
    MAX_CONFLICT_KEYS = 32

    def __init__(self) -> None:
        self._records: Dict[Tuple[str, str], MemoRecord] = {}
        #: ``func_id -> {input_key: output}``, recorded or not.
        self._outputs: Dict[str, Dict[str, Any]] = {}
        self.meta: Dict[str, Any] = {}
        self.lookups = 0
        self.hits = 0
        self.conflicts = 0
        self.conflict_keys: List[Tuple[str, str]] = []
        #: ``func_id -> serialize`` for the functions whose records hold
        #: their in-memory output; the others hold the JSON form.
        self._serializers: Dict[str, Callable[[Any], Any]] = {}

    def hold_outputs(self, func_id: str, codec: Codec) -> None:
        """Hold ``func_id``'s outputs in memory form from now on.

        Records read from disk in JSON form are converted now, once per
        record; :meth:`to_payload` serializes them back.  Registering the
        function again changes nothing.
        """
        if func_id in self._serializers:
            return
        serialize, deserialize = codec
        self._serializers[func_id] = serialize
        for record in self._records.values():
            if record.func_id == func_id:
                record.output = deserialize(record.output)

    def outputs(self, func_id: str) -> Dict[str, Any]:
        """``input_key -> output`` of ``func_id``, the map a cluster's nodes
        resolve their calculations through (they add what they compute)."""
        return self._outputs.setdefault(func_id, {})

    def take_outputs(self, other: "MemoDB") -> None:
        """Hold ``other``'s outputs too, keeping this store's own for a key
        both hold; records are not taken."""
        for func_id, outputs in other._outputs.items():
            self._outputs[func_id] = {**outputs, **self.outputs(func_id)}

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
        is a PIL-safety violation, counted.
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
        total = existing.duration * existing.samples + duration
        existing.samples += 1
        existing.duration = total / existing.samples
        return existing

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
    # cache is keyed on.  The conflict diagnostics are carried through the
    # round trip so a reloaded database reports the same PIL-safety verdict
    # the recording run saw.

    def to_payload(self) -> Dict[str, Any]:
        """Canonical JSON-ready form (records sorted by key).

        Each output is written by its function's codec, or deep-copied when
        it is held in JSON form already, so the payload shares nothing
        mutable with the records.
        """
        return {
            "format": MEMO_FORMAT,
            "meta": self.meta,
            "records": [self._record_payload(self._records[key])
                        for key in sorted(self._records)],
            "conflicts": self.conflicts,
            "conflict_keys": [list(key) for key in self.conflict_keys],
        }

    def _record_payload(self, record: MemoRecord) -> Dict[str, Any]:
        item = {field.name: getattr(record, field.name)
                for field in fields(record)}
        item["output"] = self._serializers.get(
            record.func_id, copy.deepcopy)(record.output)
        return item

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MemoDB":
        """Inverse of :meth:`to_payload`."""
        fmt = payload.get("format", MEMO_FORMAT)
        if fmt != MEMO_FORMAT:
            raise ValueError(f"unknown memo-db format {fmt!r} "
                             f"(expected {MEMO_FORMAT!r})")
        db = cls()
        db.meta = dict(payload.get("meta", {}))
        for item in payload.get("records", []):
            record = MemoRecord(**item)
            db._records[record.key()] = record
        db.conflicts = int(payload.get("conflicts", 0))
        db.conflict_keys = [tuple(key)
                            for key in payload.get("conflict_keys", [])]
        return db

    def digest(self) -> str:
        """SHA-256 of the canonical form: the database's content identity.

        Two recordings of the same seeded scenario -- in different
        processes, on different days -- produce equal digests; the sweep
        result cache folds this into every PIL point's key so a replay
        result is never reused against a recording it did not come from.
        """
        return sha256_hex(canonical_json(self.to_payload()))

    def save(self, path) -> str:
        """Serialize to JSON (records, metadata, conflicts)
        and return the :meth:`digest` of what was written, both made from
        one payload.

        The write is atomic: a concurrent reader (another sweep worker
        warming up) sees the old file or the new one, never a torn one.
        """
        payload = self.to_payload()
        atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True))
        return sha256_hex(canonical_json(payload))

    @classmethod
    def load(cls, path) -> "MemoDB":
        """Read a database previously written with :meth:`save`."""
        return cls.from_payload(json.loads(Path(path).read_text()))


class MemoLruFront:
    """A small LRU of records in front of :meth:`MemoDB.get`.

    Replay resolves the *same* content keys over and over (every node whose
    ring view has converged hits the identical record).  The front serves
    repeats from its own map and counts them, so a report tells how often
    replay met a ring it had already seen.  A hit returns the record's
    output object itself: callers never mutate an output in place (a ring
    table rebinds its pending-range map instead of popping from it).

    The underlying DB's ``lookups``/``hits`` counters advance on LRU hits
    exactly as a direct ``get`` would, so observability and reports are
    unchanged (the counters are not part of the DB's canonical payload, so
    its content digest is unaffected either way).
    """

    #: Records held; the least recently used one is evicted beyond it.
    CAPACITY = 256

    def __init__(self, db: MemoDB) -> None:
        self.db = db
        self._cache: "OrderedDict[Tuple[str, str], MemoRecord]" = OrderedDict()
        self.lru_hits = 0
        self.lru_misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._cache)

    def get(self, func_id: str, input_key: str):
        """``(record, output)``; ``(None, None)`` on DB miss."""
        key = (func_id, input_key)
        record = self._cache.get(key)
        if record is not None:
            self._cache.move_to_end(key)
            self.lru_hits += 1
            db = self.db
            db.lookups += 1
            db.hits += 1
            return record, record.output
        self.lru_misses += 1
        record = self.db.get(func_id, input_key)
        if record is None:
            return None, None
        self._cache[key] = record
        if len(self._cache) > self.CAPACITY:
            self._cache.popitem(last=False)
            self.evictions += 1
        return record, record.output

    def hit_rate(self) -> float:
        """Fraction of front lookups served from the front."""
        total = self.lru_hits + self.lru_misses
        return self.lru_hits / total if total else 0.0
