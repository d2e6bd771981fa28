"""Static shared-state pass: escape analysis over kernel processes.

Every mutable structure a class initializes (``self.x = {}`` and friends
in ``__init__``) is checked for *escape*: can more than one kernel
process -- a generator handed to ``sim.spawn(...)`` -- reach an access to
it?  Reachability follows the calls :meth:`Program.resolve_call` links
(the one resolver every analysis uses; its unique-name fallback links
cross-object calls like ``self.storage.coordinate_write(...)``).  Each
shared structure is then classified:

* **declared** -- a ``lock_protects`` annotation names it;
* **guard-inferred** -- undeclared, but every static access happens while
  one common lock-like attribute is held (the annotation is merely
  missing, the discipline is not);
* **undeclared-shared** -- reachable from two or more process roots with
  no declared or inferred guard: the ``undeclared-shared-state`` lint
  rule, and the site list the sanitizer's runtime instrumentation is
  generated from.

A second rule closes the loop in the other direction:
``dead-lock-annotation`` flags a ``lock_protects`` declaration whose
structure is never accessed *under* the named lock anywhere in the
program -- a stale annotation gives the lock checker false authority.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.finder import MUTATING_METHODS, Program, _call_name, _root_name
from .findings import Finding, sort_findings
from .locks import _WalkResult, incoming_locks

Key = Tuple[str, str]

#: Constructor calls that build mutable builtin containers.
_MUTABLE_CTORS = {
    "dict", "list", "set", "deque", "defaultdict", "OrderedDict", "Counter",
}


@dataclass
class SharedSite:
    """One mutable structure reachable from more than one process root."""

    module: str
    cls: str
    attr: str
    kind: str                      # "dict" | "list" | "set" | "object"
    lineno: int
    classification: str = ""       # "declared" | "guard-inferred" | "undeclared-shared"
    lock: str = ""                 # owning/inferred lock, when any
    roots: Tuple[str, ...] = ()    # process roots that reach an access
    accessors: Tuple[str, ...] = ()
    writes: int = 0
    reads: int = 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready record (deterministic field order via sort_keys)."""
        return {
            "module": self.module,
            "class": self.cls,
            "attr": self.attr,
            "kind": self.kind,
            "classification": self.classification,
            "lock": self.lock,
            "roots": list(self.roots),
            "accessors": list(self.accessors),
            "writes": self.writes,
            "reads": self.reads,
        }


@dataclass
class SharedStateReport:
    """Everything the static pass learned about one program."""

    sites: List[SharedSite] = field(default_factory=list)
    #: All process roots discovered, as ``module:function``.
    roots: List[str] = field(default_factory=list)
    #: Mutable structures that never escape a single root (context only).
    private: int = 0

    def shared(self, *classifications: str) -> List[SharedSite]:
        """Sites filtered by classification (all when none given)."""
        if not classifications:
            return list(self.sites)
        return [s for s in self.sites if s.classification in classifications]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form of the whole harvest."""
        return {
            "roots": list(self.roots),
            "private": self.private,
            "sites": [s.to_dict() for s in self.sites],
        }


# -- per-class structure harvest ------------------------------------------------


def _mutable_kind(value: ast.AST) -> Optional[str]:
    """The container kind a ctor expression builds, or None."""
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        name = _call_name(value)
        tail = name.rsplit(".", 1)[-1]
        if tail in ("lock", "channel", "Lock", "Channel"):
            return None  # synchronization primitives, not shared data
        if tail in _MUTABLE_CTORS:
            if tail in ("dict", "defaultdict", "OrderedDict", "Counter"):
                return "dict"
            if tail in ("list", "deque"):
                return "list"
            return "set"
        if tail[:1].isupper():
            return "object"  # constructor of a model class
    return None


class _ClassInfo:
    """Static facts about one class: mutable attrs and member methods."""

    def __init__(self, program: Program, module: str,
                 node: ast.ClassDef, lockish: FrozenSet[str]) -> None:
        self.module = module
        self.name = node.name
        defs = program.modules[module].defs
        init = f"{node.name}.__init__"
        #: qualname -> defs of this class's methods other than __init__
        self.methods = {qualname: nodes for qualname, nodes in defs.items()
                        if qualname.rpartition(".")[0] == node.name
                        and qualname != init}
        self.lockish = lockish
        #: attr -> (kind, lineno), from __init__ assignments.
        self.mutable: Dict[str, Tuple[str, int]] = {}
        for stmt in (sub for tree in defs.get(init, [])
                     for sub in ast.walk(tree)):
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value: Optional[ast.AST] = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
                value = stmt.value
            else:
                continue
            if value is None:
                continue
            kind = _mutable_kind(value)
            if kind is None:
                continue
            for target in targets:
                if isinstance(target, ast.Attribute) \
                        and _root_name(target) == "self" \
                        and target.attr not in self.lockish:
                    self.mutable.setdefault(target.attr,
                                            (kind, stmt.lineno))


def _classes(program: Program, walks: Sequence[_WalkResult]
             ) -> List[_ClassInfo]:
    """Every top-level class, with the lock-like attributes the lock walk
    found for it (a class none of whose methods was walked has no
    ``__init__`` either, so no structure they could exclude)."""
    lockish = {(walk.module, walk.function.rpartition(".")[0]):
               walk.class_locks for walk in walks}
    out: List[_ClassInfo] = []
    for module in sorted(program.modules):
        tree = program.modules[module].tree
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                out.append(_ClassInfo(
                    program, module, node,
                    lockish.get((module, node.name), frozenset())))
    return out


# -- access collection ----------------------------------------------------------


def _attr_accesses(method: ast.AST, attrs: Set[str]
                   ) -> List[Tuple[str, str, int]]:
    """(attr, 'r'|'w', lineno) for every ``self.<attr>`` access in one
    def."""
    accesses: List[Tuple[str, str, int]] = []
    write_nodes: Set[int] = set()

    def mark_write_targets(target: ast.AST) -> None:
        # The attribute (or the subscript base) being assigned through.
        node = target
        while isinstance(node, (ast.Subscript, ast.Starred)):
            node = node.value
        if isinstance(node, ast.Attribute) and node.attr in attrs \
                and _root_name(node) == "self":
            write_nodes.add(id(node))
        elif isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                mark_write_targets(elt)

    for stmt in ast.walk(method):
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                mark_write_targets(target)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            mark_write_targets(stmt.target)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                mark_write_targets(target)
        elif isinstance(stmt, ast.Call):
            func = stmt.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in MUTATING_METHODS:
                base = func.value
                if isinstance(base, ast.Attribute) and base.attr in attrs \
                        and _root_name(base) == "self":
                    write_nodes.add(id(base))

    for node in ast.walk(method):
        if isinstance(node, ast.Attribute) and node.attr in attrs \
                and _root_name(node) == "self":
            kind = "w" if id(node) in write_nodes else "r"
            accesses.append((node.attr, kind, node.lineno))
    return accesses


# -- process roots and reachability ---------------------------------------------


def find_process_roots(program: Program) -> List[Key]:
    """(module, qualname) of every function spawned as a kernel process."""
    roots: Set[Key] = set()
    for module in sorted(program.modules):
        for qualname, nodes in program.modules[module].defs.items():
            for node in (sub for tree in nodes for sub in ast.walk(tree)):
                if not isinstance(node, ast.Call) or not node.args \
                        or _call_name(node).rsplit(".", 1)[-1] != "spawn" \
                        or not isinstance(node.args[0], ast.Call):
                    continue
                root = program.resolve_call(module, qualname,
                                            _call_name(node.args[0]))
                if root is not None:
                    roots.add(root)
    return sorted(roots)


def _reachable(program: Program, root: Key) -> Set[Key]:
    seen = {root}
    frontier = [root]
    while frontier:
        key = frontier.pop()
        for call in program.function(key).calls:
            nxt = program.resolve_call(*key, call.callee)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


# -- guard inference -------------------------------------------------------------


def _held_at_touches(walks: Dict[Key, _WalkResult], info: _ClassInfo,
                     attrs: Set[str]) -> Dict[str, List[FrozenSet[str]]]:
    """attr -> held-lock-ish sets at each static touch in this class."""
    held: Dict[str, List[FrozenSet[str]]] = {attr: [] for attr in attrs}
    for qualname in info.methods:
        for structure, _lineno, held_set in \
                walks[(info.module, qualname)].touches:
            if structure in held:
                held[structure].append(held_set)
    return held


# -- the pass --------------------------------------------------------------------


def harvest_shared_state(program: Program, walks: Sequence[_WalkResult]
                         ) -> SharedStateReport:
    """Classify every mutable class structure by process-escape, reading
    held locks off the program's one lock walk (:func:`walk_locks`)."""
    registry = program.registry
    roots = find_process_roots(program)
    reach = {root: _reachable(program, root) for root in roots}
    by_key = {(walk.module, walk.function): walk for walk in walks}
    report = SharedStateReport(roots=[f"{m}:{f}" for m, f in roots])

    for info in _classes(program, walks):
        if not info.mutable:
            continue
        attrs = set(info.mutable)
        accesses: Dict[str, List[Tuple[str, str, int]]] = {
            attr: [] for attr in attrs
        }
        # attr -> methods (of this class) accessing it, with r/w counts.
        accessors: Dict[str, Set[str]] = {attr: set() for attr in attrs}
        for mname, nodes in info.methods.items():
            for node in nodes:
                for attr, kind, lineno in _attr_accesses(node, attrs):
                    accesses[attr].append((mname, kind, lineno))
                    accessors[attr].add(mname)
        held = _held_at_touches(by_key, info, attrs)
        for attr in sorted(attrs):
            if not accesses[attr]:
                report.private += 1
                continue
            touching_roots: Set[str] = set()
            for mname in accessors[attr]:
                key = (info.module, mname)
                for root, reached in reach.items():
                    if key in reached:
                        touching_roots.add(f"{root[0]}:{root[1]}")
            kind, lineno = info.mutable[attr]
            site = SharedSite(
                module=info.module,
                cls=info.name,
                attr=attr,
                kind=kind,
                lineno=lineno,
                roots=tuple(sorted(touching_roots)),
                accessors=tuple(sorted(
                    f"{info.module}:{m}" for m in accessors[attr])),
                writes=sum(1 for _m, k, _l in accesses[attr] if k == "w"),
                reads=sum(1 for _m, k, _l in accesses[attr] if k == "r"),
            )
            if len(touching_roots) < 2:
                report.private += 1
                continue
            declared = registry.lock_for(attr)
            if declared is not None:
                site.classification = "declared"
                site.lock = declared
            else:
                touch_held = held.get(attr, [])
                common: Optional[Set[str]] = None
                for held_set in touch_held:
                    common = set(held_set) if common is None \
                        else common & set(held_set)
                if touch_held and common:
                    site.classification = "guard-inferred"
                    site.lock = sorted(common)[0]
                else:
                    site.classification = "undeclared-shared"
            report.sites.append(site)
    report.sites.sort(key=lambda s: (s.module, s.cls, s.attr))
    return report


# -- lint rules ------------------------------------------------------------------


def check_shared_state(harvest: SharedStateReport) -> List[Finding]:
    """The ``undeclared-shared-state`` rule over the harvest."""
    findings: List[Finding] = []
    for site in harvest.shared("undeclared-shared"):
        # Roots are ``module:qualname``; the message names bare functions.
        root_tails = [r.rpartition(":")[2].rpartition(".")[2]
                      for r in site.roots]
        findings.append(Finding(
            rule="undeclared-shared-state",
            severity="warning",
            module=site.module,
            function=site.cls,
            lineno=site.lineno,
            message=(f"{site.cls}.{site.attr} ({site.kind}) is reachable"
                     f" from {len(site.roots)} process roots"
                     f" ({', '.join(sorted(root_tails))}) with no declared"
                     f" or inferred lock"),
            detail=f"{site.cls}.{site.attr}",
        ))
    return sort_findings(findings)


def _annotation_sites(program: Program) -> Dict[str, Tuple[str, int]]:
    """lock name -> (module, lineno) of its ``lock_protects`` call."""
    sites: Dict[str, Tuple[str, int]] = {}
    for module in sorted(program.modules):
        tree = program.modules[module].tree
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node).rsplit(".", 1)[-1]
            if name != "lock_protects" or not node.args:
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                sites.setdefault(first.value, (module, node.lineno))
    return sites


def check_dead_annotations(program: Program,
                           walks: Sequence[_WalkResult]) -> List[Finding]:
    """The ``dead-lock-annotation`` rule: declared but never exercised.

    A ``lock_protects(lock, structure)`` pair is *live* when some function
    touches the structure while holding the lock, or is only ever called
    with the lock held (the same exemption the unlocked-access rule
    grants helpers).  Every other declared pair is stale: the checker is
    enforcing a discipline nothing in the program practices.
    """
    annotations = program.registry.lock_annotations()
    if not annotations:
        return []
    incoming = incoming_locks(walks)
    live: Set[Tuple[str, str]] = set()
    for result in walks:
        edges = incoming.get((result.module, result.function), [])
        for structure, _lineno, held in result.touches:
            for annotation in annotations:
                if structure not in annotation.structures:
                    continue
                lock = annotation.lock
                if lock in held or (edges and all(lock in h for h in edges)):
                    live.add((lock, structure))
    where = _annotation_sites(program)
    findings: List[Finding] = []
    for annotation in annotations:
        module, lineno = where.get(annotation.lock, ("", 0))
        for structure in annotation.structures:
            if (annotation.lock, structure) in live:
                continue
            findings.append(Finding(
                rule="dead-lock-annotation",
                severity="warning",
                module=module or "<unknown>",
                function="<module>",
                lineno=lineno,
                message=(f"lock_protects({annotation.lock!r},"
                         f" {structure!r}) is stale: {structure} is never"
                         f" accessed under {annotation.lock} anywhere in"
                         f" the program"),
                detail=f"{annotation.lock}|{structure}",
            ))
    return sort_findings(findings)
