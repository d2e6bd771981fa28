"""No ``src/`` module imports a name it never uses.

A standard-library ``ast`` scan: every name bound by an ``import`` must
be read somewhere in its module -- in code, in an annotation, or in a
string annotation.  A package's ``__init__.py`` imports to re-export, and
a name listed in a module's ``__all__`` is exported, so both count as
used.  ``from __future__`` imports bind nothing.
"""

import ast
from pathlib import Path
from typing import List, Set, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"


def _imported(tree: ast.Module) -> List[Tuple[str, int]]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend((alias.asname or alias.name.split(".")[0],
                          node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend((alias.asname or alias.name, node.lineno)
                         for alias in node.names if alias.name != "*")
    return names


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read(tree: ast.AST) -> Set[str]:
    """Every name ``tree`` reads, string annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _read(ast.parse(node.value, mode="eval"))
    return used


def _exported(tree: ast.Module) -> Set[str]:
    """The names a module-level ``__all__`` lists."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path, root: Path = SRC) -> List[str]:
    """``"<path>:<line> <name>"`` for each import of ``path`` never read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _read(tree) | _exported(tree)
    return [f"{path.relative_to(root)}:{line} {name}"
            for name, line in _imported(tree) if name not in used]


def test_no_unused_imports_in_src():
    modules = sorted(path for path in SRC.rglob("*.py")
                     if path.name != "__init__.py")
    assert len(modules) > 90
    assert [entry for path in modules for entry in unused_imports(path)] == []


def test_the_scan_sees_every_kind_of_use(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Dict, List, Optional as Maybe\n"
        "from json import dumps, loads\n"
        "from array import array\n"
        "__all__ = ['loads']\n"
        "def f(x: 'Maybe[int]') -> List[int]:\n"
        "    return os.path.sep\n")
    assert unused_imports(module, tmp_path) == ["probe.py:3 Dict", "probe.py:4 dumps",
                                      "probe.py:5 array"]
