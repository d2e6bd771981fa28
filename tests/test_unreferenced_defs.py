"""Functions and classes in ``src/`` that nothing names: a list that only shrinks.

A standard-library ``ast`` + ``tokenize`` scan.  Every function or class
defined in ``src/`` (dunders excluded) whose name appears nowhere in
``src/``, ``examples/``, ``benchmarks/`` or ``scalebench/`` except at its
own definitions is *unreferenced*.  A name counts as appearing wherever it
is a code token or a word in a string or comment, so a ``getattr`` by name
or a wrapper that patches by attribute name keeps a def alive, and so does
a docstring that mentions it.  Two defs sharing a name hide each other
whenever either is used.  So the list is a lower bound on dead code: the
reachability pass on ROADMAP item 16 replaces it.

``tests/fixtures/unreferenced_defs.json`` records the list.  A def that
joins it fails the test (use it or delete it); so does a listed def that
is now referenced or gone (take it off the list), so the list can only
shrink.
"""

import ast
import io
import json
import re
import tokenize
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCANNED = ("src", "examples", "benchmarks", "scalebench")
FIXTURE = Path(__file__).parent / "fixtures" / "unreferenced_defs.json"

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _python_files(root: Path) -> List[Path]:
    return sorted(path for top in SCANNED for path in (root / top).rglob("*.py")
                  if not any(part.startswith(".") for part in
                             path.relative_to(root).parts))


def mentions(paths: Iterable[Path]) -> Counter:
    """How often each identifier appears: as a name token, or as a word in
    a string or comment token."""
    counts: Counter = Counter()
    for path in paths:
        source = io.StringIO(path.read_text())
        for token in tokenize.generate_tokens(source.readline):
            if token.type == tokenize.NAME:
                counts[token.string] += 1
            elif token.type in (tokenize.STRING, tokenize.COMMENT):
                counts.update(_WORD.findall(token.string))
    return counts


def definitions(src: Path) -> Dict[str, List[str]]:
    """``name -> ["<module path>::<name>", ...]`` for every non-dunder
    function and class ``src`` defines, methods and nested defs included."""
    defs: Dict[str, List[str]] = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            defs.setdefault(name, []).append(
                f"{path.relative_to(src).as_posix()}::{name}")
    return defs


def unreferenced(root: Path = ROOT) -> List[str]:
    """Every def whose name appears only at its own definitions."""
    counts = mentions(_python_files(root))
    return sorted(entry
                  for name, entries in definitions(root / "src").items()
                  if counts[name] <= len(entries)
                  for entry in entries)


def test_no_new_unreferenced_defs_and_the_list_only_shrinks():
    recorded = json.loads(FIXTURE.read_text())["unreferenced"]
    found = unreferenced()
    new = sorted(set(found) - set(recorded))
    stale = sorted(set(recorded) - set(found))
    assert not new, f"defs nothing references (use or delete them): {new}"
    assert not stale, (f"no longer unreferenced or gone; take them off "
                       f"{FIXTURE.name}: {stale}")
    assert found == sorted(recorded)


def test_the_scan_sees_code_strings_and_comments(tmp_path):
    for top in SCANNED:
        (tmp_path / top).mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        "class Kept:\n"
        "    def called(self): pass\n"
        "    def patched(self): pass\n"
        "    def commented(self): pass\n"
        "    def dead(self): pass\n"
        "    def __repr__(self): return ''\n"
        "def shared(): pass\n")
    (tmp_path / "src" / "other.py").write_text("def shared(): pass\n")
    (tmp_path / "examples" / "use.py").write_text(
        "from mod import Kept\n"
        "Kept().called()\n"
        "setattr(Kept, 'patched', None)  # see commented\n")
    assert unreferenced(tmp_path) == ["mod.py::dead", "mod.py::shared",
                                      "other.py::shared"]
