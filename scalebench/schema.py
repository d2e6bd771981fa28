"""The limits ``BENCHMARK.json`` must stay inside, as a checkable function."""

from __future__ import annotations

import re
from typing import Any, Dict, List

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")

KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer"}
MAX_BOUND = 0.25


def _metric_problems(kind: str, entries: Any, keys: set, low: int,
                     high: int) -> List[str]:
    if not isinstance(entries, list) or not low <= len(entries) <= high:
        return [f"{kind}: need {low} to {high} entries"]
    problems = []
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != keys:
            problems.append(f"{kind}: entry needs exactly {sorted(keys)}")
            continue
        if not NAME.match(str(entry["name"])):
            problems.append(f"{kind}: bad name {entry['name']!r}")
        if not UNIT.match(str(entry["unit"])):
            problems.append(f"{kind}: bad unit {entry['unit']!r}")
        if entry["better"] not in ("lower", "higher"):
            problems.append(f"{kind}: {entry['name']}: better is "
                            f"lower or higher")
        if "bound" in keys and not (
                isinstance(entry["bound"], (int, float))
                and 0 < entry["bound"] <= MAX_BOUND):
            problems.append(f"{kind}: {entry['name']}: bound must be in "
                            f"(0, {MAX_BOUND}]")
    return problems


def validate(spec: Dict[str, Any]) -> List[str]:
    """Every way ``spec`` breaks the benchmark contract (empty = valid)."""
    if set(spec) != KEYS:
        return [f"top level needs exactly the keys {sorted(KEYS)}"]
    problems = []
    command = spec["command"]
    if (not isinstance(command, list) or not 1 <= len(command) <= 32
            or any(not isinstance(a, str) or len(a) > 200 for a in command)):
        problems.append("command: 1 to 32 strings of at most 200 characters")
    elif any(a.startswith("/") or ".." in a.split("/") for a in command):
        problems.append("command: no absolute path and no '..'")
    paths = spec["paths"]
    if (not isinstance(paths, list) or not 1 <= len(paths) <= 16
            or any(not isinstance(p, str) or not PATH.match(p)
                   or p.startswith("/") or ".." in p.split("/")
                   for p in paths)):
        problems.append("paths: 1 to 16 relative directories")
    seconds = spec["run_seconds"]
    if (not isinstance(seconds, int) or isinstance(seconds, bool)
            or not 1 <= seconds <= 60):
        problems.append("run_seconds: a whole number from 1 to 60")
    workloads = spec["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        problems.append("workloads: need 2 to 8 entries")
        workloads = []
    for entry in workloads:
        if not isinstance(entry, dict) or set(entry) != {"name", "why"}:
            problems.append("workloads: entry needs exactly name and why")
            continue
        if not NAME.match(str(entry["name"])):
            problems.append(f"workloads: bad name {entry['name']!r}")
        why = entry["why"]
        if not isinstance(why, str) or len(why) > 200 or "\n" in why:
            problems.append(f"workloads: {entry['name']}: why is one line "
                            f"of at most 200 characters")
    problems += _metric_problems(
        "end_to_end", spec["end_to_end"],
        {"name", "unit", "better", "bound"}, 1, 16)
    problems += _metric_problems(
        "per_layer", spec["per_layer"], {"name", "unit", "better"}, 1, 128)
    names = [e["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for e in spec[kind]
             if isinstance(spec[kind], list) and isinstance(e, dict)
             and "name" in e]
    for name in sorted({n for n in names if names.count(n) > 1}):
        problems.append(f"name {name!r} is used more than once")
    setup = [e for e in spec["end_to_end"] if isinstance(e, dict)
             and e.get("name") == "setup_s"] if isinstance(
                 spec["end_to_end"], list) else []
    if not setup or setup[0].get("unit") != "s" or setup[0].get(
            "better") != "lower":
        problems.append("end_to_end: needs setup_s in s, lower is better")
    return problems
