"""Fault schedules: ordered, seeded, serializable chaos plans.

A :class:`FaultSchedule` is the unit of reproduction: the chaos generator
emits one, the shrinker minimizes one, the injector enacts one, and
``repro chaos --save-schedule`` persists one so a symptom-inducing plan
found at 256 nodes can be replayed byte-for-byte later (including under
PIL-infused replay).

The JSON form is lossless: ``FaultSchedule.from_json(s.to_json()) == s``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence

from ..canonical import canonical_json, sha256_hex
from .primitives import Fault, fault_from_dict

#: Format tag written into serialized schedules.
SCHEDULE_FORMAT = "repro-fault-schedule-v1"


@dataclass
class FaultSchedule:
    """A time-ordered plan of fault events.

    ``seed`` records the chaos-generator seed that produced the schedule
    (0 for hand-written plans); it is carried through serialization so an
    archived schedule documents its own provenance.
    """

    events: List[Fault] = field(default_factory=list)
    seed: int = 0
    name: str = ""

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return (self.seed == other.seed and self.name == other.name
                and self.events == other.events)

    def sorted_events(self) -> List[Fault]:
        """Events in enactment order (stable for equal times)."""
        return sorted(self.events, key=lambda e: e.time)

    def horizon(self) -> float:
        """Time of the last event (0 for an empty schedule)."""
        return max((e.time for e in self.events), default=0.0)

    def kinds(self) -> Dict[str, int]:
        """Event counts per fault kind."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def subset(self, keep: Iterable[int]) -> "FaultSchedule":
        """A new schedule with only the events at the given indices."""
        wanted = set(keep)
        return FaultSchedule(
            events=[e for i, e in enumerate(self.events) if i in wanted],
            seed=self.seed,
            name=self.name,
        )

    def without(self, remove: Iterable[int]) -> "FaultSchedule":
        """A new schedule with the events at the given indices removed."""
        gone = set(remove)
        return self.subset(i for i in range(len(self.events)) if i not in gone)

    def describe(self) -> str:
        """Multi-line human-readable listing."""
        header = (f"fault schedule {self.name or '<unnamed>'} "
                  f"(seed {self.seed}, {len(self.events)} events)")
        lines = [header] + [f"  {e.describe()}" for e in self.sorted_events()]
        return "\n".join(lines)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "format": SCHEDULE_FORMAT,
            "seed": self.seed,
            "name": self.name,
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSchedule":
        """Inverse of :meth:`to_dict`."""
        fmt = data.get("format")
        if fmt != SCHEDULE_FORMAT:
            raise ValueError(
                f"unknown schedule format {fmt!r} (expected "
                f"{SCHEDULE_FORMAT!r})")
        return cls(
            events=[fault_from_dict(e) for e in data.get("events", [])],
            seed=int(data.get("seed", 0)),
            name=str(data.get("name", "")),
        )

    def to_json(self, indent: int = 1) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def canonical_json(self) -> str:
        """Deterministic compact JSON (sorted keys, events in time order)."""
        data = self.to_dict()
        data["events"] = [e.to_dict() for e in self.sorted_events()]
        return canonical_json(data)

    def digest(self) -> str:
        """SHA-256 content identity of the schedule.

        Stable across processes and interpreter runs (no reliance on
        ``hash()``), so sweep workers on different machines agree on the
        cache key of a point that enacts this schedule.
        """
        return sha256_hex(self.canonical_json())

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        """Parse a schedule from its JSON string form."""
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        """Write the JSON form to ``path``."""
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "FaultSchedule":
        """Read a schedule previously written with :meth:`save`."""
        return cls.from_json(Path(path).read_text())


def merge_schedules(schedules: Sequence[FaultSchedule],
                    name: str = "merged") -> FaultSchedule:
    """Concatenate several schedules into one (events re-sorted by time)."""
    events: List[Fault] = []
    for schedule in schedules:
        events.extend(schedule.events)
    merged = FaultSchedule(events=events, name=name)
    merged.events = merged.sorted_events()
    return merged
