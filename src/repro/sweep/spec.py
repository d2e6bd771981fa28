"""Declarative sweep grids: which (bug, scale, seed, mode, chaos) points to run.

A :class:`SweepSpec` is the sweep engine's input: a small cross-product
grid over cluster sizes, simulation seeds, run modes, and (optionally)
chaos-generator seeds.  :meth:`SweepSpec.expand` flattens it into a stable,
duplicate-free list of :class:`SweepPoint` values -- the unit the executor
fans out to worker processes and the result cache keys on.

Both classes round-trip losslessly through JSON
(``SweepSpec.from_json(s.to_json()) == s``), so a sweep that found a
regression can be archived next to the fault schedule that provoked it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Format tag written into serialized specs.
SPEC_FORMAT = "repro-sweep-spec-v1"

#: Run modes a point may take (the paper's three Figure-3 series):
#: ``real`` = one node per machine, ``colo`` = the contended basic-colocation
#: recording run (persists the MemoDB), ``pil`` = PIL-infused replay of that
#: recording.
MODES = ("real", "colo", "pil")


def _refuse_enforced_order(data: Dict[str, Any]) -> None:
    """Reject a saved spec or point that asks for the deleted order-enforced
    replay.  ``"enforce_order": false`` still loads: every spec saved
    before the mode was deleted carries it."""
    if data.get("enforce_order"):
        raise ValueError("order-enforced replay (enforce_order) was removed; "
                         "PIL replay runs unordered")


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: a single scenario run the executor can dispatch."""

    bug_id: str
    nodes: int
    seed: int = 42
    mode: str = "pil"
    #: Chaos-generator seed; ``None`` runs fault-free.  The schedule itself
    #: is regenerated deterministically inside the worker (same population,
    #: seed, and event budget -> same digest), so specs stay small.
    chaos_seed: Optional[int] = None
    chaos_events: int = 8
    #: Optional vnode-count override (affordability at large N).
    vnodes: Optional[int] = None
    #: Workload preset name (``repro.workload.scenarios.PRESETS``); None
    #: runs the bug's membership scenario as before.  Workload points run
    #: live traffic, which PIL replay has no recording of, so they are
    #: restricted to the ``real``/``colo`` modes.
    workload: Optional[str] = None
    #: Logical-user override for the workload preset.
    users: Optional[int] = None
    #: Consistency-level override ("one" | "quorum" | "all"), applied to
    #: both reads and writes.
    consistency: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown sweep mode {self.mode!r} "
                             f"(expected one of {MODES})")
        if self.nodes <= 0:
            raise ValueError("a sweep point needs a positive cluster size")
        if self.workload is None:
            if self.users is not None or self.consistency is not None:
                raise ValueError("users/consistency overrides need a "
                                 "workload preset")
        elif self.mode == "pil":
            raise ValueError("workload points support real/colo modes "
                             "only (no traffic recording exists for PIL "
                             "replay)")

    def label(self) -> str:
        """Compact human-readable identity for tables and logs."""
        parts = [f"{self.bug_id}", f"N={self.nodes}", f"s{self.seed}",
                 self.mode]
        if self.chaos_seed is not None:
            parts.append(f"chaos{self.chaos_seed}")
        if self.vnodes is not None:
            parts.append(f"P={self.vnodes}")
        if self.workload is not None:
            parts.append(f"wl={self.workload}")
            if self.users is not None:
                parts.append(f"U={self.users}")
            if self.consistency is not None:
                parts.append(f"cl={self.consistency}")
        return "/".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "bug": self.bug_id,
            "nodes": self.nodes,
            "seed": self.seed,
            "mode": self.mode,
            "chaos_seed": self.chaos_seed,
            "chaos_events": self.chaos_events,
            "vnodes": self.vnodes,
            "workload": self.workload,
            "users": self.users,
            "consistency": self.consistency,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepPoint":
        """Inverse of :meth:`to_dict`."""
        _refuse_enforced_order(data)
        return cls(
            bug_id=str(data["bug"]),
            nodes=int(data["nodes"]),
            seed=int(data.get("seed", 42)),
            mode=str(data.get("mode", "pil")),
            chaos_seed=(None if data.get("chaos_seed") is None
                        else int(data["chaos_seed"])),
            chaos_events=int(data.get("chaos_events", 8)),
            vnodes=(None if data.get("vnodes") is None
                    else int(data["vnodes"])),
            workload=(None if data.get("workload") is None
                      else str(data["workload"])),
            users=(None if data.get("users") is None
                   else int(data["users"])),
            consistency=(None if data.get("consistency") is None
                         else str(data["consistency"])),
        )

    def memo_identity(self) -> Dict[str, Any]:
        """The part of the identity the basic-colocation recording depends on.

        Mode is a *replay-side* knob: every mode of the same scenario shares
        one recording, which is exactly why the sweep writes it once and
        reloads it everywhere.
        """
        data = self.to_dict()
        del data["mode"]
        return data


@dataclass
class SweepSpec:
    """A declarative grid of sweep points."""

    bugs: List[str]
    scales: List[int]
    seeds: List[int] = field(default_factory=lambda: [42])
    modes: List[str] = field(default_factory=lambda: ["pil"])
    chaos_seeds: List[Optional[int]] = field(default_factory=lambda: [None])
    chaos_events: int = 8
    vnodes: Optional[int] = None
    #: Workload-preset axis; ``None`` entries run the plain membership
    #: scenario.  The ``users``/``consistencies`` axes only multiply under
    #: a non-None preset (a membership point has no users to vary).
    workloads: List[Optional[str]] = field(default_factory=lambda: [None])
    users: List[Optional[int]] = field(default_factory=lambda: [None])
    consistencies: List[Optional[str]] = field(default_factory=lambda: [None])
    name: str = ""

    def expand(self) -> List[SweepPoint]:
        """Flatten the grid into points.

        The ordering is stable -- nested loops in declared axis order
        (bugs, scales, seeds, chaos seeds, workloads, users,
        consistencies, modes) -- and duplicates (repeated axis values)
        collapse to their first occurrence, so the executor's job list
        and the summary table are reproducible identities of the spec.
        """
        if not self.bugs or not self.scales or not self.seeds or not self.modes:
            raise ValueError("a sweep spec needs at least one bug, scale, "
                             "seed, and mode")
        points: List[SweepPoint] = []
        for bug_id in self.bugs:
            for nodes in self.scales:
                for seed in self.seeds:
                    for chaos_seed in (self.chaos_seeds or [None]):
                        for workload in (self.workloads or [None]):
                            combos = ([(None, None)] if workload is None
                                      else [(u, cl)
                                            for u in (self.users or [None])
                                            for cl in (self.consistencies
                                                       or [None])])
                            # PIL replay has no traffic recording: workload
                            # points only exist in real/colo modes.  A mixed
                            # spec keeps its pil points for the membership
                            # (workload=None) part of the grid.
                            modes = (self.modes if workload is None else
                                     [m for m in self.modes if m != "pil"])
                            if not modes:
                                raise ValueError(
                                    f"workload {workload!r} needs a real or "
                                    f"colo mode in the spec (pil replay "
                                    f"cannot run live traffic)")
                            for users, consistency in combos:
                                for mode in modes:
                                    points.append(SweepPoint(
                                        bug_id=bug_id, nodes=nodes,
                                        seed=seed, mode=mode,
                                        chaos_seed=chaos_seed,
                                        chaos_events=self.chaos_events,
                                        vnodes=self.vnodes,
                                        workload=workload, users=users,
                                        consistency=consistency,
                                    ))
        return list(dict.fromkeys(points))

    def __len__(self) -> int:
        return len(self.expand())

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "format": SPEC_FORMAT,
            "name": self.name,
            "bugs": list(self.bugs),
            "scales": list(self.scales),
            "seeds": list(self.seeds),
            "modes": list(self.modes),
            "chaos_seeds": list(self.chaos_seeds),
            "chaos_events": self.chaos_events,
            "vnodes": self.vnodes,
            "workloads": list(self.workloads),
            "users": list(self.users),
            "consistencies": list(self.consistencies),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepSpec":
        """Inverse of :meth:`to_dict`."""
        fmt = data.get("format")
        if fmt != SPEC_FORMAT:
            raise ValueError(f"unknown sweep-spec format {fmt!r} "
                             f"(expected {SPEC_FORMAT!r})")
        _refuse_enforced_order(data)
        return cls(
            bugs=[str(b) for b in data["bugs"]],
            scales=[int(n) for n in data["scales"]],
            seeds=[int(s) for s in data.get("seeds", [42])],
            modes=[str(m) for m in data.get("modes", ["pil"])],
            chaos_seeds=[None if c is None else int(c)
                         for c in data.get("chaos_seeds", [None])],
            chaos_events=int(data.get("chaos_events", 8)),
            vnodes=(None if data.get("vnodes") is None
                    else int(data["vnodes"])),
            workloads=[None if w is None else str(w)
                       for w in data.get("workloads", [None])],
            users=[None if u is None else int(u)
                   for u in data.get("users", [None])],
            consistencies=[None if c is None else str(c)
                           for c in data.get("consistencies", [None])],
            name=str(data.get("name", "")),
        )

    def to_json(self, indent: int = 1) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Parse a spec from its JSON string form."""
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        """Write the JSON form to ``path``."""
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "SweepSpec":
        """Read a spec previously written with :meth:`save`."""
        return cls.from_json(Path(path).read_text())
