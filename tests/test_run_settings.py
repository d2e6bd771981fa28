"""Run settings that no caller sets: a list that only shrinks.

A standard-library ``ast`` scan.  A *run setting* is a constructor field of
one of the classes a run is configured through (:data:`CLASSES`).  It is
*set* when some code in ``src/``, ``tests/``, ``examples/``,
``benchmarks/`` or ``scalebench/`` passes it:

* a keyword, or a positional argument, of a call to the class;
* a keyword of a ``for_bug(...)`` call on the class;
* a keyword of a ``replace(...)`` call, or an attribute write
  (``obj.name = ...``, ``setattr(obj, "name", ...)``) outside ``self``;
  the object's type is not known, so these set the name in every class.

A field nothing sets names a configuration that nothing runs or tests:
make it a constant read where it is used.  So the scan over-counts sets,
and the list is a lower bound.

``tests/fixtures/unset_run_settings.json`` records the list.  A field that
joins it fails the test (set it somewhere or make it a constant); so does
a listed field that is now set or gone (take it off the list).
"""

import ast
import json
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "examples", "benchmarks", "scalebench")
FIXTURE = Path(__file__).parent / "fixtures" / "unset_run_settings.json"

#: The classes a run is configured through, and where each is defined.
CLASSES = {
    "ScaleCheck": "src/repro/core/scalecheck.py",
    "ClusterConfig": "src/repro/cassandra/cluster.py",
    "GossipConfig": "src/repro/cassandra/gossip.py",
    "HdfsConfig": "src/repro/hdfs/cluster.py",
    "ChaosConfig": "src/repro/faults/chaos.py",
}


def _init_false(value) -> bool:
    """``field(..., init=False)``: not a constructor field."""
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant)
        and kw.value.value is False for kw in value.keywords)


def fields(root: Path, classes: Dict[str, str]) -> Dict[str, List[str]]:
    """``class -> constructor fields in order`` (dataclass annotations)."""
    found: Dict[str, List[str]] = {}
    for name, rel in classes.items():
        for node in ast.walk(ast.parse((root / rel).read_text())):
            if isinstance(node, ast.ClassDef) and node.name == name:
                found[name] = [
                    stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and not _init_false(stmt.value)]
    return found


def _called(func) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _python_files(root: Path) -> List[Path]:
    return sorted(path for top in SCANNED for path in (root / top).rglob("*.py")
                  if not any(part.startswith(".") for part in
                             path.relative_to(root).parts))


def settings_set(root: Path, by_class: Dict[str, List[str]]
                 ) -> Set[Tuple[str, str]]:
    """Every ``(class, field)`` some scanned code sets."""
    def anywhere(name) -> Set[Tuple[str, str]]:
        return {(cls, name) for cls, names in by_class.items()
                if name in names}

    found: Set[Tuple[str, str]] = set()
    for path in _python_files(root):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                called = _called(node.func)
                keywords = [kw.arg for kw in node.keywords if kw.arg]
                if called in by_class:
                    found.update((called, name) for name in
                                 by_class[called][:len(node.args)])
                    found.update((called, name) for name in keywords)
                elif called == "for_bug":
                    owner = _called(getattr(node.func, "value", None))
                    for name in keywords:
                        found |= ({(owner, name)} if owner in by_class
                                  else anywhere(name))
                elif called == "replace":
                    for name in keywords:
                        found |= anywhere(name)
                elif (called == "setattr" and len(node.args) > 1
                      and isinstance(node.args[1], ast.Constant)):
                    found |= anywhere(node.args[1].value)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                while targets:
                    target = targets.pop()
                    if isinstance(target, (ast.Tuple, ast.List)):
                        targets.extend(target.elts)
                    elif isinstance(target, ast.Attribute) and not (
                            isinstance(target.value, ast.Name)
                            and target.value.id in ("self", "cls")):
                        found |= anywhere(target.attr)
    return found


def unset(root: Path = ROOT, classes: Dict[str, str] = CLASSES) -> List[str]:
    """``Class.field`` for every run setting nothing sets."""
    by_class = fields(root, classes)
    done = settings_set(root, by_class)
    return sorted(f"{cls}.{name}" for cls, names in by_class.items()
                  for name in names if (cls, name) not in done)


def test_every_run_setting_has_a_caller_and_the_list_only_shrinks():
    recorded = json.loads(FIXTURE.read_text())["unset"]
    found = unset()
    new = sorted(set(found) - set(recorded))
    stale = sorted(set(recorded) - set(found))
    assert not new, f"run settings nothing sets (make them constants): {new}"
    assert not stale, (f"now set or gone; take them off "
                       f"{FIXTURE.name}: {stale}")
    assert found == sorted(recorded)


def test_the_scan_sees_every_way_to_set_a_field(tmp_path):
    for top in SCANNED:
        (tmp_path / top).mkdir()
    (tmp_path / "src" / "conf.py").write_text(
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class Conf:\n"
        "    first: int\n"
        "    second: int = 0\n"
        "    keyword: int = 0\n"
        "    overridden: int = 0\n"
        "    replaced: int = 0\n"
        "    written: int = 0\n"
        "    by_name: int = 0\n"
        "    own: int = 0\n"
        "    unset: int = 0\n"
        "    _derived: int = field(default=0, init=False)\n"
        "    def __post_init__(self):\n"
        "        self.own = 1\n"
        "    @classmethod\n"
        "    def for_bug(cls, first, **overrides):\n"
        "        return cls(first, **overrides)\n")
    (tmp_path / "tests" / "use.py").write_text(
        "from conf import Conf\n"
        "import dataclasses\n"
        "conf = Conf(1, 2, keyword=3)\n"
        "Conf.for_bug(1, overridden=4)\n"
        "dataclasses.replace(conf, replaced=5)\n"
        "conf.written = 6\n"
        "setattr(conf, 'by_name', 7)\n")
    assert unset(tmp_path, {"Conf": "src/conf.py"}) == ["Conf.own",
                                                        "Conf.unset"]
