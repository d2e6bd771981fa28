"""Lock-discipline checker: the generic C5456-pattern detector.

Given ``lock_protects("ring_lock", "metadata")`` declarations, two rules
run over every function, path-sensitively (if/else branches fork the
held-lock state; a lock is considered held after a join only when every
branch holds it):

* **lock-held-scale-work** -- scale-dependent work performed while a
  declared lock is held: a scale loop nest, a call to a function whose
  program-wide effective complexity is scale-dependent, or a call into a
  ``declare_cost`` bridge.  Degree >= 2 is an error (the C5456 coarse-lock
  bug: O(M·T^2) pending-range calculation under the ring lock), degree 1
  a warning (the HDFS shape: O(B) block-report processing serialized
  under the global namesystem lock).
* **unlocked-access** -- a ``self.<structure>`` access (or an access via a
  local alias of one) on a path where the owning lock is not held.
  Functions that are only ever *called* with the lock held (helpers like
  ``_apply_report``) are exempted by a program-wide call-site pass;
  ``__init__`` is skipped (construction precedes concurrency).

Lock operations recognized: ``yield Acquire(self.lock)`` (the simulator
kernel idiom), ``self.lock.acquire()``, ``with self.lock:``, and
``self.lock.release()``.

:func:`walk_locks` walks every function of the program once; the two
rules here, ``dead-lock-annotation`` and the shared-state pass's guard
inference (:mod:`repro.analysis.shared`) all read that one walk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.axes import Term, primary
from ..core.finder import FunctionAnalysis, Program, _call_name, _root_name
from .findings import Finding


@dataclass
class _WalkResult:
    """Per-function raw facts gathered by the path walk."""

    module: str
    function: str
    #: (attribute, lineno, held-locks) for every ``self.<attribute>``
    #: access, direct or through a local alias
    touches: List[Tuple[str, int, FrozenSet[str]]] = field(default_factory=list)
    #: (callee-module, callee-function, lineno, held-locks) resolved calls
    edges: List[Tuple[str, str, int, FrozenSet[str]]] = field(default_factory=list)
    #: scale work found under a declared lock: (lock, what, term, lineno)
    work: List[Tuple[str, str, Term, int]] = field(default_factory=list)
    #: the lock-like attributes of the function's class (one set per
    #: class, shared by its methods' results)
    class_locks: FrozenSet[str] = frozenset()


class _LockWalker:
    """Path-sensitive held-lock walk of one function body.

    ``locks`` are the names tracked as held: the declared locks plus the
    lock-like attributes of the function's class.  Scale work is reported
    under the ``declared`` ones only.
    """

    def __init__(self, program: Program, module: str,
                 analysis: FunctionAnalysis, declared: Set[str],
                 locks: Set[str]) -> None:
        self.program = program
        self.module = module
        self.analysis = analysis
        self.declared = declared
        self.locks = locks
        #: local alias name -> the ``self`` attribute it refers to
        self.alias: Dict[str, str] = {}
        self.result = _WalkResult(module=module, function=analysis.qualname)
        self._loops_by_line = {
            loop.lineno: loop for loop in analysis.scale_loops
        }

    def run(self, nodes: Sequence[ast.FunctionDef]) -> _WalkResult:
        for node in nodes:
            self._walk(node.body, held=set(), in_reported_loop=False)
        return self.result

    # -- statement walk -----------------------------------------------------------

    def _walk(self, stmts: Sequence[ast.stmt], held: Set[str],
              in_reported_loop: bool) -> Set[str]:
        for stmt in stmts:
            held = self._stmt(stmt, held, in_reported_loop)
        return held

    def _stmt(self, stmt: ast.stmt, held: Set[str],
              in_reported_loop: bool) -> Set[str]:
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            header = stmt.iter if isinstance(stmt, (ast.For, ast.AsyncFor)) \
                else stmt.test
            self._scan_expr(header, held)
            reported = in_reported_loop
            if held & self.declared and not in_reported_loop:
                reported = self._report_loop_work(
                    stmt, held & self.declared) or reported
            body_exit = self._walk(list(stmt.body), set(held), reported)
            self._walk(list(stmt.orelse), set(held), in_reported_loop)
            return held & body_exit
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test, held)
            body_exit = self._walk(list(stmt.body), set(held),
                                   in_reported_loop)
            else_exit = self._walk(list(stmt.orelse), set(held),
                                   in_reported_loop)
            return body_exit & else_exit
        if isinstance(stmt, ast.With):
            inner = set(held)
            for item in stmt.items:
                self._scan_expr(item.context_expr, held)
                lock = self._lock_of_expr(item.context_expr)
                if lock is not None:
                    inner.add(lock)
            self._walk(list(stmt.body), inner, in_reported_loop)
            return held
        if isinstance(stmt, ast.Try):
            held = self._walk(list(stmt.body), held, in_reported_loop)
            for handler in stmt.handlers:
                self._walk(list(handler.body), set(held), in_reported_loop)
            held = self._walk(list(stmt.orelse), held, in_reported_loop)
            held = self._walk(list(stmt.finalbody), held, in_reported_loop)
            return held
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return held
        # Leaf statement: aliases, lock transitions, touches, calls.
        if isinstance(stmt, ast.Assign):
            self._note_alias(stmt.targets, stmt.value)
        acquired = self._acquires_in(stmt)
        released = self._releases_in(stmt)
        self._scan_expr(stmt, held)
        held = set(held) | acquired
        held -= released
        return held

    # -- lock transitions ---------------------------------------------------------

    def _lock_of_expr(self, expr: ast.AST) -> Optional[str]:
        """The declared lock an expression names (``self.ring_lock``)."""
        if isinstance(expr, ast.Attribute) and expr.attr in self.locks \
                and _root_name(expr) == "self":
            return expr.attr
        if isinstance(expr, ast.Name) and expr.id in self.locks:
            return expr.id
        return None

    def _acquires_in(self, stmt: ast.stmt) -> Set[str]:
        acquired: Set[str] = set()
        for sub in ast.walk(stmt):
            if not isinstance(sub, ast.Call):
                continue
            name = _call_name(sub)
            tail = name.rsplit(".", 1)[-1]
            if tail == "Acquire" and sub.args:
                lock = self._lock_of_expr(sub.args[0])
                if lock is not None:
                    acquired.add(lock)
            elif tail == "acquire" and isinstance(sub.func, ast.Attribute):
                lock = self._lock_of_expr(sub.func.value)
                if lock is not None:
                    acquired.add(lock)
        return acquired

    def _releases_in(self, stmt: ast.stmt) -> Set[str]:
        released: Set[str] = set()
        for sub in ast.walk(stmt):
            if not isinstance(sub, ast.Call):
                continue
            if isinstance(sub.func, ast.Attribute) \
                    and sub.func.attr == "release":
                lock = self._lock_of_expr(sub.func.value)
                if lock is not None:
                    released.add(lock)
        return released

    # -- structure touches and call edges -------------------------------------------

    def _note_alias(self, targets: Sequence[ast.AST],
                    value: ast.AST) -> None:
        structure: Optional[str] = None
        if isinstance(value, ast.Attribute) and _root_name(value) == "self":
            structure = value.attr
        elif isinstance(value, ast.Name):
            structure = self.alias.get(value.id)
        for target in targets:
            if isinstance(target, ast.Name):
                if structure is not None:
                    self.alias[target.id] = structure
                else:
                    self.alias.pop(target.id, None)

    def _scan_expr(self, expr: Optional[ast.AST], held: Set[str]) -> None:
        """Record ``self`` attribute touches and resolved-call facts."""
        if expr is None:
            return
        frozen = frozenset(held)
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Attribute) and _root_name(sub) == "self":
                self.result.touches.append((sub.attr, sub.lineno, frozen))
            elif isinstance(sub, ast.Name) and sub.id in self.alias:
                self.result.touches.append(
                    (self.alias[sub.id], sub.lineno, frozen))
            elif isinstance(sub, ast.Call):
                self._scan_call(sub, frozen)

    def _scan_call(self, call: ast.Call, held: FrozenSet[str]) -> None:
        name = _call_name(call)
        if not name:
            return
        resolved = self.program.resolve_call(self.module,
                                             self.analysis.qualname, name)
        if resolved is not None:
            self.result.edges.append(
                (resolved[0], resolved[1], call.lineno, held))
        held = held & self.declared
        if not held:
            return
        declared = self.program.registry.cost_degrees(name)
        if declared:
            work = Term.from_degrees(declared)
        elif resolved is not None:
            work = primary(self.program.function(resolved).effective_terms) \
                or Term(())
        else:
            return
        if work.total() >= 1:
            for lock in sorted(held):
                self.result.work.append((lock, name, work, call.lineno))

    def _report_loop_work(self, stmt: ast.stmt, held: Set[str]) -> bool:
        """Record a scale-loop nest executed while a lock is held."""
        outer = self._loops_by_line.get(stmt.lineno)
        if outer is None:
            return False
        end = getattr(stmt, "end_lineno", stmt.lineno)
        in_range = [loop for loop in self.analysis.scale_loops
                    if stmt.lineno <= loop.lineno <= end]
        base = outer.depth
        levels: Dict[int, Set[str]] = {}
        for loop in in_range:
            levels.setdefault(loop.depth, set()).update(loop.axes)
        chain = [levels.get(depth, set())
                 for depth in range(base, max(levels) + 1)]
        work = Term.from_chain(chain)
        what = f"loop over {outer.iterates}"
        for lock in sorted(held):
            self.result.work.append((lock, what, work, stmt.lineno))
        return True


def lockish_attrs(cls_node: ast.ClassDef) -> Set[str]:
    """Attribute names that look like locks (``self.x = sim.lock(...)``
    or any attr whose name contains "lock")."""
    locks: Set[str] = set()
    for node in ast.walk(cls_node):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Attribute) \
                    and _root_name(target) == "self":
                tail = _call_name(node.value).rsplit(".", 1)[-1] \
                    if isinstance(node.value, ast.Call) else ""
                if "lock" in target.attr or tail in ("lock", "Lock"):
                    locks.add(target.attr)
    return locks


def walk_locks(program: Program) -> List[_WalkResult]:
    """Walk every function of the program once, in (module, qualname)
    order, tracking the declared locks and its class's lock-like
    attributes (found once per class, and kept on each result for the
    shared-state pass)."""
    declared = {a.lock for a in program.registry.lock_annotations()}
    results: List[_WalkResult] = []
    for module in sorted(program.modules):
        unit = program.modules[module]
        lockish = {node.name: frozenset(lockish_attrs(node))
                   for node in unit.tree.body
                   if isinstance(node, ast.ClassDef)}
        for qualname in sorted(unit.defs):
            owner = lockish.get(qualname.rpartition(".")[0], frozenset())
            walker = _LockWalker(program, module,
                                 unit.report.functions[qualname],
                                 declared, declared | owner)
            result = walker.run(unit.defs[qualname])
            result.class_locks = owner
            results.append(result)
    return results


def incoming_locks(walks: Sequence[_WalkResult]
                   ) -> Dict[Tuple[str, str], List[FrozenSet[str]]]:
    """(module, qualname) -> the held-lock set at every call into it."""
    incoming: Dict[Tuple[str, str], List[FrozenSet[str]]] = {}
    for result in walks:
        for callee_mod, callee_fn, _lineno, held in result.edges:
            incoming.setdefault((callee_mod, callee_fn), []).append(held)
    return incoming


def check_locks(program: Program,
                walks: Sequence[_WalkResult]) -> List[Finding]:
    """Run both lock rules over the walk of every function."""
    if not program.registry.lock_annotations():
        return []
    structures = {
        structure: annotation.lock
        for annotation in program.registry.lock_annotations()
        for structure in annotation.structures
    }
    incoming = incoming_locks(walks)
    findings: List[Finding] = []
    for result in walks:
        if result.function.rpartition(".")[2] == "__init__":
            continue
        seen_work: Set[Tuple[str, str]] = set()
        for lock, what, term, lineno in result.work:
            key = (lock, what)
            if key in seen_work:
                continue
            seen_work.add(key)
            severity = "error" if term.total() >= 2 else "warning"
            findings.append(Finding(
                rule="lock-held-scale-work",
                severity=severity,
                module=result.module,
                function=result.function,
                lineno=lineno,
                message=(f"{lock} held across {term.render()} work"
                         f" ({what})"),
                detail=f"{lock}|{what}|{term.render()}",
            ))
        seen_touch: Set[str] = set()
        for structure, lineno, held in result.touches:
            lock = structures.get(structure)
            if lock is None or lock in held or structure in seen_touch:
                continue
            edges = incoming.get((result.module, result.function), [])
            if edges and all(lock in held_at for held_at in edges):
                continue  # only ever called with the lock already held
            seen_touch.add(structure)
            findings.append(Finding(
                rule="unlocked-access",
                severity="warning",
                module=result.module,
                function=result.function,
                lineno=lineno,
                message=(f"{structure} accessed without holding {lock}"),
                detail=f"{lock}|{structure}",
            ))
    return findings
