"""The PIL-safe and offending-function finder (step (b) of Figure 2).

An AST-based program analysis that answers the paper's two questions:

1. **Which functions are offending?**  Functions whose *effective*
   scale-dependent loop depth is superlinear.  Loops count as
   scale-dependent when they iterate a structure annotated with
   :func:`repro.annotations.scale_dependent` or anything tainted by one
   (assignments, sorted()/list() copies, tainted call arguments flowing
   into parameters; parameter taint stays within a module).  Nesting is
   tracked **across function boundaries** through the whole program's
   call graph, because real offending nests span many functions
   (CASSANDRA-6127: 1000+ LOC across 9 functions), and the analysis
   records the if-branch *guards* on the path to each nest, so
   developers know which workload exercises it (6127 again: the O(N^2)
   loop only runs when the cluster bootstraps from scratch).

   Taint carries the annotation's *named axis variable* (``var="T"``,
   ``var="M"``...), so a nest over two different structures reports
   ``O(M·T)``, distinguishable from ``O(T^2)``.  A function's effective
   complexity is a Pareto-maximal set of :class:`repro.core.axes.Term`
   monomials; the scalar ``effective_depth`` (max total degree) is kept
   for the footnote-1 categorization and backward compatibility.

2. **Which functions are PIL-safe?**  Functions with no side effects --
   no I/O, network sends, locking, blocking, global writes, or
   nondeterminism -- in themselves or anything they call, and a memoizable
   (deterministic, value-returning) shape.  Generator functions are never
   memoizable: their "return value" is a lazily-consumed protocol object,
   so a yield anywhere is an absolute veto that even a registry override
   cannot lift.  Writes through parameters are reported as warnings rather
   than vetoes: they are safe when the mutated structure is call-local,
   which the developer confirms (the paper keeps the developer in the loop
   at exactly this point).  The effect analysis tracks aliases of ``self``
   attributes and parameters (mutating an alias is mutating the original),
   container-mutation method calls (``.append``/``.update``/``.sort``...),
   closure captures by nested functions, and nondeterminism sources
   including set iteration order (hash-seed dependent across processes,
   which breaks the sweep cache's byte-identical-replay guarantee).

The paper's footnote 1 split is also computed: offenders are categorized
as scale-dependent CPU computation (depth >= 2) versus serialized O(N)
work (depth 1), the "other 53%" the authors note can be caught "by
slightly extending our program analysis".

:class:`Program` is the one driver: it loads modules from source, harvests
every annotation from that source into one registry, scans each module,
and links calls across modules.  :func:`find_offending` is the entry point
for one imported module.
"""

from __future__ import annotations

import ast
import importlib.util
import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..annotations import (
    AnnotationRegistry,
    CostAnnotation,
    LockAnnotation,
    ScaleDepAnnotation,
)
from .axes import Term, maximal, primary

# -- side-effect classification tables -----------------------------------------

IO_CALLS = {"open", "print", "input"}
IO_ATTR_HINTS = {"write", "read", "readline", "readlines", "flush", "fsync"}
NETWORK_HINTS = {"send", "sendto", "sendall", "recv", "connect", "_send",
                 "publish", "broadcast", "rpc"}
LOCK_HINTS = {"acquire", "release", "Acquire", "Lock", "Semaphore", "RLock"}
BLOCKING_HINTS = {"sleep", "wait", "join_thread"}
NONDET_HINTS = {"time", "perf_counter", "monotonic", "now", "random",
                "randint", "uniform", "choice", "shuffle", "sample", "gauss",
                "urandom", "getrandbits", "random_stream"}
#: Methods that mutate their receiver in place.
MUTATING_METHODS = {"append", "add", "update", "extend", "insert", "remove",
                    "discard", "pop", "popitem", "clear", "setdefault",
                    "sort", "reverse", "appendleft", "extendleft"}
#: Builtins that reduce a collection to a scalar: results are not tainted.
SCALAR_BUILTINS = {"len", "sum", "min", "max", "any", "all", "count", "index"}
#: Side-effect kinds that veto PIL safety when present (directly or
#: transitively).  Parameter mutation is a warning, not a veto.
VETO_KINDS = ("io", "network", "lock", "blocking", "nondeterminism",
              "global-write", "state-write", "iteration-order",
              "closure-capture")


@dataclass(frozen=True)
class ScaleLoop:
    """One loop iterating a scale-dependent structure."""

    lineno: int
    depth: int                 # scale-loop nesting level (1 = outermost)
    iterates: str              # source text of the iterated expression
    guards: Tuple[str, ...]    # enclosing if-conditions
    axes: Tuple[str, ...] = ()  # named axis vars of the iterated structure


@dataclass(frozen=True)
class SideEffect:
    kind: str
    lineno: int
    detail: str


@dataclass(frozen=True)
class CallSite:
    callee: str
    lineno: int
    scale_loop_depth: int      # scale loops enclosing the call
    tainted_args: Tuple[int, ...]
    guards: Tuple[str, ...]
    #: Axis vars per tainted arg, aligned with ``tainted_args``.
    tainted_arg_axes: Tuple[Tuple[str, ...], ...] = ()
    #: Axis vars per enclosing scale loop, outermost first
    #: (``len(chain) == scale_loop_depth``).
    chain: Tuple[Tuple[str, ...], ...] = ()


@dataclass
class FunctionAnalysis:
    """Analysis result for one function."""

    name: str
    qualname: str
    module: str
    lineno: int
    scale_loops: List[ScaleLoop] = field(default_factory=list)
    side_effects: List[SideEffect] = field(default_factory=list)
    param_mutations: List[SideEffect] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    params: List[str] = field(default_factory=list)
    tainted_params: Set[str] = field(default_factory=set)
    param_axes: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    returns_value: bool = False
    is_generator: bool = False
    local_depth: int = 0
    effective_depth: int = 0
    local_terms: Tuple[Term, ...] = ()
    effective_terms: Tuple[Term, ...] = ()
    transitive_effect_kinds: Set[str] = field(default_factory=set)

    @property
    def offending(self) -> bool:
        """Superlinear in a scale axis -- a PIL candidate."""
        return self.effective_depth >= 2

    @property
    def category(self) -> str:
        """Root-cause category label (footnote-1 taxonomy)."""
        if self.effective_depth >= 2:
            return "scale-dependent-cpu"
        if self.effective_depth == 1:
            return "serialized-linear"
        return "scale-independent"

    def pil_safe(self, registry: Optional[AnnotationRegistry] = None) -> bool:
        """PIL-safety verdict (registry overrides beat analysis; with no
        registry the analysis alone decides).

        The generator veto is absolute and precedes overrides: replaying a
        memoized value cannot reproduce lazy-iteration semantics, so a
        ``yield``-ing function is unsafe no matter what a developer asserts.
        """
        if self.is_generator:
            return False
        override = (registry.pil_safety_override(self.qualname)
                    if registry is not None else None)
        if override is not None:
            return override
        if any(kind in VETO_KINDS for kind in self.transitive_effect_kinds):
            return False
        return self.returns_value

    @property
    def complexity(self) -> str:
        """Big-O label: the primary effective term, or the depth fallback."""
        term = primary(self.effective_terms)
        if term is not None:
            return term.render()
        if self.effective_depth == 0:
            return "O(1)"
        return f"O(N^{self.effective_depth})"

    def guard_conditions(self) -> List[str]:
        """All distinct branch conditions guarding this function's loops."""
        guards: List[str] = []
        for loop in self.scale_loops:
            for guard in loop.guards:
                if guard not in guards:
                    guards.append(guard)
        return guards


class _FunctionScanner:
    """Single-function taint and structure analysis."""

    def __init__(self, node: ast.FunctionDef, qualname: str, module: str,
                 registry: AnnotationRegistry) -> None:
        self.node = node
        self.registry = registry
        self.analysis = FunctionAnalysis(
            name=node.name, qualname=qualname, module=module,
            lineno=node.lineno,
            params=[arg.arg for arg in node.args.args
                    if arg.arg not in ("self", "cls")],
        )
        self.analysis.is_generator = _contains_yield(node)
        #: name -> axis-var frozenset (empty = tainted, axis unnamed)
        self.tainted: Dict[str, FrozenSet[str]] = {}
        #: alias origins: name -> "self" | "param:<name>" | "local"
        self.origin: Dict[str, str] = {}
        #: local names statically known to hold sets
        self.settyped: Set[str] = set()
        self._term_chains: List[Tuple[FrozenSet[str], ...]] = []

    # -- taint -------------------------------------------------------------------

    def _name_axes(self, name: str) -> Optional[FrozenSet[str]]:
        if self.registry.is_scale_dependent(name):
            return self.registry.axis_vars_for(name)
        return None

    def _expr_tainted(self, expr: Optional[ast.AST]) -> Optional[FrozenSet[str]]:
        """Axis vars if any sub-expression is scale-tainted, else None."""
        if expr is None:
            return None
        axes: Optional[FrozenSet[str]] = None
        for sub in ast.walk(expr):
            hit: Optional[FrozenSet[str]] = None
            if isinstance(sub, ast.Name):
                if sub.id in self.tainted:
                    hit = self.tainted[sub.id]
                else:
                    hit = self._name_axes(sub.id)
            elif isinstance(sub, ast.Attribute):
                hit = self._name_axes(sub.attr)
            axes = _merge_axes(axes, hit)
        return axes

    def _value_taints(self, expr: Optional[ast.AST]) -> Optional[FrozenSet[str]]:
        """Axis vars if assigning this expression taints the target.

        Like :meth:`_expr_tainted` but scalar-reducing builtins and plain
        element subscripts launder taint (``len(ring)`` and ``ring[i]`` are
        not scale-sized).
        """
        if expr is None:
            return None
        if isinstance(expr, ast.Call):
            func_name = _call_name(expr)
            if func_name in SCALAR_BUILTINS:
                return None
            axes: Optional[FrozenSet[str]] = None
            for arg in expr.args:
                axes = _merge_axes(axes, self._value_taints(arg))
            for kw in expr.keywords:
                axes = _merge_axes(axes, self._value_taints(kw.value))
            return axes
        if isinstance(expr, ast.Subscript):
            if isinstance(expr.slice, ast.Slice):
                return self._value_taints(expr.value)
            return None
        if isinstance(expr, (ast.BinOp,)):
            return _merge_axes(self._value_taints(expr.left),
                               self._value_taints(expr.right))
        if isinstance(expr, ast.IfExp):
            return _merge_axes(self._value_taints(expr.body),
                               self._value_taints(expr.orelse))
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            axes = None
            for gen in expr.generators:
                axes = _merge_axes(axes, self._expr_tainted(gen.iter))
            return axes
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            axes = None
            for item in expr.elts:
                axes = _merge_axes(axes, self._value_taints(item))
            return axes
        return self._expr_tainted(expr)

    def _taint_target(self, target: ast.AST, axes: FrozenSet[str]) -> None:
        if isinstance(target, ast.Name):
            self.tainted[target.id] = self.tainted.get(target.id,
                                                       frozenset()) | axes
        elif isinstance(target, (ast.Tuple, ast.List)):
            for item in target.elts:
                self._taint_target(item, axes)

    # -- alias origins ------------------------------------------------------------

    def _origin_of(self, root: str) -> Optional[str]:
        """Where a local name's referent lives: self state, a param, local."""
        if root == "self":
            return "self"
        if root in self.analysis.params:
            return f"param:{root}"
        return self.origin.get(root)

    def _value_origin(self, expr: ast.AST) -> str:
        """Alias origin of an assigned value.

        Calls produce fresh (call-local) values -- including ``.clone()``
        and ``sorted()`` copies, which is exactly why the C5456 CLONE fix's
        out-of-lock calculation over a cloned ring is not a violation.
        """
        if isinstance(expr, (ast.Name, ast.Attribute, ast.Subscript,
                             ast.Starred)):
            return self._origin_of(_root_name(expr)) or "local"
        if isinstance(expr, ast.IfExp):
            body = self._value_origin(expr.body)
            orelse = self._value_origin(expr.orelse)
            return body if body != "local" else orelse
        return "local"

    def _note_origins(self, target: ast.AST, value: Optional[ast.AST]) -> None:
        if value is None:
            return
        if isinstance(target, ast.Name):
            self.origin[target.id] = self._value_origin(value)
            if self._is_set_expr(value):
                self.settyped.add(target.id)
            elif target.id in self.settyped and not isinstance(value, ast.Name):
                self.settyped.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for item in target.elts:
                if isinstance(item, ast.Name):
                    self.origin[item.id] = "local"

    def _is_set_expr(self, expr: ast.AST) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in self.settyped
        if isinstance(expr, ast.Call):
            name = _call_name(expr)
            if name in ("set", "frozenset"):
                return True
            tail = name.rsplit(".", 1)[-1]
            return tail in ("intersection", "union", "difference",
                            "symmetric_difference") and "." in name
        if isinstance(expr, ast.BinOp) and isinstance(
                expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return self._is_set_expr(expr.left) or self._is_set_expr(expr.right)
        return False

    # -- scanning -----------------------------------------------------------------

    def scan(self) -> FunctionAnalysis:
        """Iterate the statement walk to a taint fixpoint (handles taint
        introduced later in the body flowing into earlier-seen loops)."""
        self.tainted = {
            param: self.analysis.param_axes.get(param, frozenset())
            for param in self.analysis.tainted_params
        }
        while True:
            before = dict(self.tainted)
            self.analysis.scale_loops = []
            self.analysis.side_effects = []
            self.analysis.param_mutations = []
            self.analysis.calls = []
            self.analysis.returns_value = False
            self._term_chains = []
            self._walk(self.node.body, chain=(), guards=())
            if self.tainted == before:
                break
        self.analysis.local_depth = max(
            (loop.depth for loop in self.analysis.scale_loops), default=0
        )
        self.analysis.local_terms = maximal(
            Term.from_chain(chain) for chain in self._term_chains
        )
        return self.analysis

    def _walk(self, stmts: Sequence[ast.stmt],
              chain: Tuple[FrozenSet[str], ...],
              guards: Tuple[str, ...]) -> None:
        for stmt in stmts:
            self._stmt(stmt, chain, guards)

    def _stmt(self, stmt: ast.stmt, chain: Tuple[FrozenSet[str], ...],
              guards: Tuple[str, ...]) -> None:
        depth = len(chain)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_axes = self._expr_tainted(stmt.iter)
            self._note_origins(stmt.target, stmt.iter)
            self._check_set_iteration(stmt.iter, stmt.lineno)
            if iter_axes is not None:
                inner = chain + (iter_axes,)
                self.analysis.scale_loops.append(ScaleLoop(
                    lineno=stmt.lineno, depth=len(inner),
                    iterates=_safe_unparse(stmt.iter), guards=guards,
                    axes=tuple(sorted(iter_axes)),
                ))
                self._term_chains.append(inner)
            else:
                inner = chain
            self._scan_exprs(stmt.iter, chain, guards)
            self._walk(stmt.body, inner, guards)
            self._walk(stmt.orelse, chain, guards)
        elif isinstance(stmt, ast.While):
            test_axes = self._expr_tainted(stmt.test)
            if test_axes is not None:
                inner = chain + (test_axes,)
                self.analysis.scale_loops.append(ScaleLoop(
                    lineno=stmt.lineno, depth=len(inner),
                    iterates=_safe_unparse(stmt.test), guards=guards,
                    axes=tuple(sorted(test_axes)),
                ))
                self._term_chains.append(inner)
            else:
                inner = chain
            self._scan_exprs(stmt.test, chain, guards)
            self._walk(stmt.body, inner, guards)
            self._walk(stmt.orelse, chain, guards)
        elif isinstance(stmt, ast.If):
            self._scan_exprs(stmt.test, chain, guards)
            test_src = _safe_unparse(stmt.test)
            self._walk(stmt.body, chain, guards + (test_src,))
            self._walk(stmt.orelse, chain, guards + (f"not ({test_src})",))
        elif isinstance(stmt, ast.Assign):
            axes = self._value_taints(stmt.value)
            if axes is not None:
                for target in stmt.targets:
                    self._taint_target(target, axes)
            for target in stmt.targets:
                self._note_origins(target, stmt.value)
            self._record_write_targets(stmt.targets, stmt.lineno)
            self._scan_exprs(stmt.value, chain, guards)
        elif isinstance(stmt, ast.AugAssign):
            axes = self._value_taints(stmt.value)
            if axes is not None:
                self._taint_target(stmt.target, axes)
            self._record_write_targets([stmt.target], stmt.lineno)
            self._scan_exprs(stmt.value, chain, guards)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                axes = self._value_taints(stmt.value)
                if axes is not None:
                    self._taint_target(stmt.target, axes)
                self._note_origins(stmt.target, stmt.value)
            self._record_write_targets([stmt.target], stmt.lineno)
            self._scan_exprs(stmt.value, chain, guards)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None and not _is_none_constant(stmt.value):
                self.analysis.returns_value = True
            self._scan_exprs(stmt.value, chain, guards)
        elif isinstance(stmt, ast.Expr):
            self._scan_exprs(stmt.value, chain, guards)
        elif isinstance(stmt, (ast.Global, ast.Nonlocal)):
            self.analysis.side_effects.append(SideEffect(
                kind="global-write", lineno=stmt.lineno,
                detail=", ".join(stmt.names),
            ))
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._scan_exprs(item.context_expr, chain, guards)
                if item.optional_vars is not None:
                    self._note_origins(item.optional_vars, item.context_expr)
            self._walk(stmt.body, chain, guards)
        elif isinstance(stmt, ast.Try):
            self._walk(stmt.body, chain, guards)
            for handler in stmt.handlers:
                self._walk(handler.body, chain, guards)
            self._walk(stmt.orelse, chain, guards)
            self._walk(stmt.finalbody, chain, guards)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested definitions are analyzed separately, but writes they
            # capture from this scope escape the call: scan for closures.
            self._scan_closure(stmt)
        elif isinstance(stmt, ast.ClassDef):
            pass
        elif isinstance(stmt, ast.Raise):
            self._scan_exprs(stmt.exc, chain, guards)
        elif isinstance(stmt, (ast.Assert,)):
            self._scan_exprs(stmt.test, chain, guards)

    def _scan_closure(self, inner: ast.AST) -> None:
        """Flag nested functions that write state captured from this scope."""
        outer = set(self.analysis.params) | set(self.origin) | {"self"}
        shadowed = {
            arg.arg for node in ast.walk(inner)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda))
            for arg in node.args.args
        }
        for sub in ast.walk(inner):
            if isinstance(sub, ast.Nonlocal):
                self.analysis.side_effects.append(SideEffect(
                    kind="closure-capture", lineno=sub.lineno,
                    detail=f"nonlocal {', '.join(sub.names)}",
                ))
                continue
            targets: List[ast.AST] = []
            if isinstance(sub, ast.Assign):
                targets = list(sub.targets)
            elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                targets = [sub.target]
            elif isinstance(sub, ast.Call):
                name = _call_name(sub)
                tail = name.rsplit(".", 1)[-1]
                root = name.split(".", 1)[0]
                if (tail in MUTATING_METHODS and "." in name
                        and root in outer and root not in shadowed):
                    self.analysis.side_effects.append(SideEffect(
                        kind="closure-capture", lineno=sub.lineno,
                        detail=_safe_unparse(sub.func),
                    ))
                continue
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = _root_name(target)
                    if root in outer and root not in shadowed:
                        self.analysis.side_effects.append(SideEffect(
                            kind="closure-capture", lineno=sub.lineno,
                            detail=_safe_unparse(target),
                        ))

    def _record_write_targets(self, targets: Sequence[ast.AST],
                              lineno: int) -> None:
        """Classify writes through attributes/subscripts by alias origin."""
        for target in targets:
            if not isinstance(target, (ast.Attribute, ast.Subscript)):
                continue
            base = _root_name(target)
            origin = self._origin_of(base)
            detail = _safe_unparse(target)
            if origin == "self":
                self.analysis.side_effects.append(SideEffect(
                    kind="state-write", lineno=lineno, detail=detail,
                ))
            elif origin is not None and origin.startswith("param:"):
                self.analysis.param_mutations.append(SideEffect(
                    kind="param-mutation", lineno=lineno, detail=detail,
                ))
            elif origin is None and base:
                # Not a parameter, never assigned locally: a module-level
                # structure (or an import) is being written through.
                self.analysis.side_effects.append(SideEffect(
                    kind="global-write", lineno=lineno, detail=detail,
                ))

    def _check_set_iteration(self, iter_expr: ast.AST, lineno: int) -> None:
        if self._is_set_expr(iter_expr):
            self.analysis.side_effects.append(SideEffect(
                kind="iteration-order", lineno=lineno,
                detail=f"set iteration: {_safe_unparse(iter_expr)}",
            ))

    def _scan_exprs(self, expr: Optional[ast.AST],
                    chain: Tuple[FrozenSet[str], ...],
                    guards: Tuple[str, ...]) -> None:
        """Find calls (call-graph edges + side effects) and comprehension
        loops inside an expression tree."""
        if expr is None:
            return
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                self._record_call(sub, chain, guards)
            elif isinstance(sub, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                                  ast.DictComp)):
                for gen in sub.generators:
                    self._check_set_iteration(gen.iter, sub.lineno)
                    gen_axes = self._expr_tainted(gen.iter)
                    if gen_axes is not None:
                        self.analysis.scale_loops.append(ScaleLoop(
                            lineno=sub.lineno, depth=len(chain) + 1,
                            iterates=_safe_unparse(gen.iter), guards=guards,
                            axes=tuple(sorted(gen_axes)),
                        ))
                        self._term_chains.append(chain + (gen_axes,))

    def _record_call(self, call: ast.Call,
                     chain: Tuple[FrozenSet[str], ...],
                     guards: Tuple[str, ...]) -> None:
        name = _call_name(call)
        if not name:
            return
        arg_axes = [self._value_taints(arg) for arg in call.args]
        tainted_positions = tuple(
            i for i, axes in enumerate(arg_axes) if axes is not None
        )
        self.analysis.calls.append(CallSite(
            callee=name, lineno=call.lineno, scale_loop_depth=len(chain),
            tainted_args=tainted_positions, guards=guards,
            tainted_arg_axes=tuple(
                tuple(sorted(arg_axes[i])) for i in tainted_positions
            ),
            chain=tuple(tuple(sorted(axes)) for axes in chain),
        ))
        self._classify_call_effect(call, name)

    def _classify_call_effect(self, call: ast.Call, name: str) -> None:
        tail = name.rsplit(".", 1)[-1]
        kind = None
        if tail in IO_CALLS or tail in IO_ATTR_HINTS and "." in name:
            kind = "io"
        elif tail in NETWORK_HINTS:
            kind = "network"
        elif tail in LOCK_HINTS:
            kind = "lock"
        elif tail in BLOCKING_HINTS:
            kind = "blocking"
        elif tail in NONDET_HINTS:
            # Seeded simulation RNG streams are deterministic by
            # construction; anything reached through an "rng" *attribute*
            # (self.rng.choice, cluster.sim.rng.uniform) is whitelisted.
            # A bare root named "rng" stays flagged: a parameter or local
            # by that name carries no seeding guarantee.
            if "rng" not in name.split(".")[1:]:
                kind = "nondeterminism"
        elif tail in MUTATING_METHODS and "." in name:
            root = name.split(".", 1)[0]
            origin = self._origin_of(root)
            detail = _safe_unparse(call.func)
            if origin == "self":
                kind = "state-write"
            elif origin is not None and origin.startswith("param:"):
                self.analysis.param_mutations.append(SideEffect(
                    kind="param-mutation", lineno=call.lineno, detail=detail,
                ))
                return
            elif origin is None and root:
                kind = "global-write"
        if kind is not None:
            self.analysis.side_effects.append(SideEffect(
                kind=kind, lineno=call.lineno, detail=_safe_unparse(call.func),
            ))


def _merge_axes(a: Optional[FrozenSet[str]],
                b: Optional[FrozenSet[str]]) -> Optional[FrozenSet[str]]:
    if a is None:
        return b
    if b is None:
        return a
    return a | b


def _is_none_constant(expr: ast.AST) -> bool:
    return isinstance(expr, ast.Constant) and expr.value is None


def _contains_yield(node: ast.AST) -> bool:
    """True if the function body yields (excluding nested definitions)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            return True
        if _contains_yield(child):
            return True
    return False


def _call_name(call: ast.Call) -> str:
    """Full dotted receiver chain (``self.gossiper.handle_message``).

    Subscripts in the chain are skipped (``self.queues[i].append`` ->
    ``self.queues.append``); calls or other expressions as the root leave
    only the attribute tail, never a fabricated receiver.
    """
    parts: List[str] = []
    node: ast.AST = call.func
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            break
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _root_name(node: ast.AST) -> str:
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _safe_unparse(node: Optional[ast.AST]) -> str:
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on valid ASTs
        return f"<line {getattr(node, 'lineno', '?')}>"


@dataclass
class FinderReport:
    """One module's resolved analyses, with the registry that scored them."""

    module: str
    functions: Dict[str, FunctionAnalysis]
    registry: AnnotationRegistry

    def get(self, name: str) -> FunctionAnalysis:
        """Look up by bare name or qualname."""
        if name in self.functions:
            return self.functions[name]
        for analysis in self.functions.values():
            if analysis.qualname == name:
                return analysis
        raise KeyError(name)

    def offenders(self) -> List[FunctionAnalysis]:
        """Offending functions, deepest first."""
        return sorted(
            (f for f in self.functions.values() if f.offending),
            key=lambda f: (-f.effective_depth, f.qualname),
        )

    def pil_candidates(self) -> List[FunctionAnalysis]:
        """Offending functions that are also PIL-safe: ready for replacement."""
        return [f for f in self.offenders() if f.pil_safe(self.registry)]

    def serialized_linear(self) -> List[FunctionAnalysis]:
        """Depth-1 offenders: the paper's 'other 53%' O(N) serializations."""
        return sorted(
            (f for f in self.functions.values()
             if f.category == "serialized-linear"),
            key=lambda f: f.qualname,
        )

    def category_counts(self) -> Dict[str, int]:
        """Function count per category."""
        counts: Dict[str, int] = {}
        for analysis in self.functions.values():
            counts[analysis.category] = counts.get(analysis.category, 0) + 1
        return counts


def _collect(body: Sequence[ast.stmt], prefix: str, module: str,
             registry: AnnotationRegistry,
             scanners: Dict[str, _FunctionScanner]) -> None:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scanners[node.name] = _FunctionScanner(
                node, f"{prefix}{node.name}", module, registry
            )
        elif isinstance(node, ast.ClassDef):
            _collect(node.body, f"{node.name}.", module, registry, scanners)


def _scan_module(tree: ast.Module, module: str,
                 registry: AnnotationRegistry) -> Dict[str, FunctionAnalysis]:
    """Scan one module's functions and run its parameter-taint fixpoint.

    Taint crosses intra-module call edges only.  Each round moves it one
    call hop; rounds repeat until nothing changes, which terminates
    because axis sets only grow and there are finitely many of them.
    """
    scanners: Dict[str, _FunctionScanner] = {}
    _collect(tree.body, "", module, registry, scanners)
    analyses = {name: scanner.scan() for name, scanner in scanners.items()}
    changed = True
    while changed:
        changed = False
        for analysis in analyses.values():
            for call in analysis.calls:
                callee = _local_callee(call.callee, analyses)
                if callee is None:
                    continue
                callee_analysis = analyses[callee]
                for pos, axes in zip(call.tainted_args, call.tainted_arg_axes):
                    if pos >= len(callee_analysis.params):
                        continue
                    param = callee_analysis.params[pos]
                    new = frozenset(axes)
                    old = callee_analysis.param_axes.get(param)
                    if (param not in callee_analysis.tainted_params
                            or old is None or not new <= old):
                        callee_analysis.tainted_params.add(param)
                        callee_analysis.param_axes[param] = (
                            (old or frozenset()) | new
                        )
                        changed = True
        if changed:
            for scanner in scanners.values():
                scanner.scan()
    return analyses


def _local_callee(callee: str, functions: Dict[str, object]) -> Optional[str]:
    """Resolve a call-site name to a function of the same module."""
    if callee in functions:
        return callee
    parts = callee.split(".")
    if parts[0] == "self" and len(parts) == 2 and parts[1] in functions:
        return parts[1]
    return None


# -- the whole program: annotation harvest, module discovery, linking ----------

_ANNOTATION_CALLS = ("scale_dependent", "lock_protects", "declare_cost")
_OVERRIDES = {"pil_safe": AnnotationRegistry.add_pil_safe,
              "pil_unsafe": AnnotationRegistry.add_pil_unsafe}


@dataclass
class ModuleUnit:
    """One analyzed module: source facts plus the finder's report."""

    name: str
    path: str
    tree: ast.Module
    report: FinderReport
    #: local alias -> (absolute module name, remote function name)
    imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)


def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _tail_name(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def harvest_annotations(tree: ast.Module, registry: AnnotationRegistry) -> int:
    """Statically register the annotations found in one module's source.

    Handles the call form at module top level
    (``scale_dependent("ring", var="T")``,
    ``lock_protects("ring_lock", "metadata")``, ``declare_cost("f", T=2)``),
    the decorator-call form on top-level classes/functions, and the
    ``@pil_safe`` / ``@pil_unsafe`` overrides on functions and methods.
    Returns the number of annotations registered.
    """
    count = 0
    for stmt in tree.body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            count += _harvest_call(stmt.value, registry, decorated=None)
        if isinstance(stmt, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            for decorator in stmt.decorator_list:
                if isinstance(decorator, ast.Call):
                    count += _harvest_call(decorator, registry,
                                           decorated=stmt.name)
    return count + _harvest_overrides(tree.body, "", registry)


def _harvest_overrides(body: Sequence[ast.stmt], prefix: str,
                       registry: AnnotationRegistry) -> int:
    """Register ``@pil_safe``/``@pil_unsafe`` under the finder's qualname."""
    count = 0
    for node in body:
        if isinstance(node, ast.ClassDef):
            count += _harvest_overrides(node.body, f"{node.name}.", registry)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                add = _OVERRIDES.get(_tail_name(decorator))
                if add is not None:
                    add(registry, f"{prefix}{node.name}")
                    count += 1
    return count


def _harvest_call(call: ast.Call, registry: AnnotationRegistry,
                  decorated: Optional[str]) -> int:
    tail = _tail_name(call.func)
    if tail not in _ANNOTATION_CALLS:
        return 0
    keywords: Dict[str, ast.AST] = {
        kw.arg: kw.value for kw in call.keywords if kw.arg
    }
    note = _const_str(keywords.get("note", ast.Constant(value=""))) or ""
    if tail == "scale_dependent":
        axis = _const_str(keywords.get("axis",
                                       ast.Constant(value="cluster-size")))
        var = _const_str(keywords.get("var", ast.Constant(value=None)))
        names = [s for s in (_const_str(a) for a in call.args)
                 if s is not None]
        if decorated is not None:
            names.append(decorated)
        for name in names:
            registry.add_scale_dependent(ScaleDepAnnotation(
                name, axis=axis or "cluster-size", note=note, var=var))
        return len(names)
    if tail == "lock_protects":
        names = [s for s in (_const_str(a) for a in call.args)
                 if s is not None]
        if not names:
            return 0
        registry.add_lock(LockAnnotation(names[0], tuple(names[1:]),
                                         note=note))
        return 1
    # declare_cost
    funcs = [s for s in (_const_str(a) for a in call.args) if s is not None]
    if not funcs:
        return 0
    degrees = {
        key: value.value
        for key, value in keywords.items()
        if key not in ("note", "registry")
        and isinstance(value, ast.Constant) and isinstance(value.value, int)
    }
    registry.add_cost(CostAnnotation(funcs[0], degrees, note=note))
    return 1


def _collect_imports(tree: ast.Module, module_name: str
                     ) -> Dict[str, Tuple[str, str]]:
    """Map local aliases to (absolute module, remote name) for ImportFrom."""
    imports: Dict[str, Tuple[str, str]] = {}
    package = module_name.rsplit(".", 1)[0] if "." in module_name else ""
    for stmt in tree.body:
        if not isinstance(stmt, ast.ImportFrom):
            continue
        if stmt.level:
            base_parts = package.split(".") if package else []
            # level=1 is "current package"; each extra level pops one.
            base_parts = base_parts[:len(base_parts) - (stmt.level - 1)]
            base = ".".join(base_parts)
            target = f"{base}.{stmt.module}" if stmt.module else base
        else:
            target = stmt.module or ""
        for alias in stmt.names:
            local = alias.asname or alias.name
            imports[local] = (target, alias.name)
    return imports


def _walk_package(location: str, package: str) -> List[Tuple[str, str]]:
    """(module name, path) for every source file under a package directory."""
    pairs: List[Tuple[str, str]] = []
    for root, dirs, files in os.walk(location):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for fname in sorted(files):
            if not fname.endswith(".py"):
                continue
            rel = os.path.relpath(os.path.join(root, fname), location)
            parts = [package] + rel.split(os.sep)
            parts[-1] = parts[-1][:-3]
            if parts[-1] == "__init__":
                parts = parts[:-1]
            pairs.append((".".join(parts), os.path.join(root, fname)))
    return pairs


def _discover(target: str) -> List[Tuple[str, str]]:
    """Resolve one target (module/package name or filesystem path) to
    sorted (module_name, file_path) pairs."""
    if os.path.exists(target):
        path = os.path.abspath(target)
        if os.path.isfile(path):
            return [(os.path.splitext(os.path.basename(path))[0], path)]
        return _walk_package(path, os.path.basename(path.rstrip(os.sep)))
    spec = importlib.util.find_spec(target)
    if spec is None:
        raise ModuleNotFoundError(f"lint target not found: {target}")
    if spec.submodule_search_locations:
        return [pair for location in spec.submodule_search_locations
                for pair in _walk_package(location, target)]
    if spec.origin and spec.origin.endswith(".py"):
        return [(target, spec.origin)]
    raise ModuleNotFoundError(f"lint target has no python source: {target}")


class Program:
    """A linked set of analyzed modules with a shared harvested registry.

    The one driver of the static analysis.  Building a program parses
    each module once, harvests every annotation from source into one
    registry, scans each module (taint stays intra-module), and then
    fills every function's effective terms, depth and transitive effect
    kinds over the cross-module call graph, honoring ``declare_cost``
    bridges (modeled demand charged arithmetically).
    """

    def __init__(self, registry: AnnotationRegistry) -> None:
        self.registry = registry
        self.modules: Dict[str, ModuleUnit] = {}

    # -- construction ------------------------------------------------------------

    @classmethod
    def load(cls, targets: Sequence[str],
             registry: Optional[AnnotationRegistry] = None) -> "Program":
        """Load and analyze ``targets`` (module names, packages, or paths)."""
        paths: Dict[str, str] = {}
        for target in targets:
            paths.update(_discover(target))
        sources: Dict[str, str] = {}
        for name in sorted(paths):
            with open(paths[name], "r", encoding="utf-8") as handle:
                sources[name] = handle.read()
        return cls.from_sources(sources, registry=registry, paths=paths)

    @classmethod
    def from_sources(cls, sources: Dict[str, str],
                     registry: Optional[AnnotationRegistry] = None,
                     paths: Optional[Dict[str, str]] = None) -> "Program":
        """Build a program from in-memory sources (used heavily by tests)."""
        registry = registry if registry is not None else AnnotationRegistry()
        program = cls(registry)
        trees = {name: ast.parse(sources[name]) for name in sorted(sources)}
        for tree in trees.values():
            harvest_annotations(tree, registry)
        for name, tree in trees.items():
            program.modules[name] = ModuleUnit(
                name=name,
                path=(paths or {}).get(name, f"<{name}>"),
                tree=tree,
                report=FinderReport(name, _scan_module(tree, name, registry),
                                    registry),
                imports=_collect_imports(tree, name),
            )
        program._link()
        return program

    # -- call resolution -----------------------------------------------------------

    def find_module(self, dotted: str) -> Optional[str]:
        """Resolve a (possibly relative-suffix) module name to a loaded one."""
        if dotted in self.modules:
            return dotted
        matches = [name for name in self.modules
                   if name.endswith(f".{dotted}")]
        if len(matches) == 1:
            return matches[0]
        return None

    def resolve_call(self, module: str, callee: str
                     ) -> Optional[Tuple[str, str]]:
        """Resolve a call-site name to (module, function) program-wide."""
        unit = self.modules.get(module)
        if unit is None:
            return None
        local = _local_callee(callee, unit.report.functions)
        if local is not None:
            return (module, local)
        if "." not in callee and callee in unit.imports:
            remote_module, remote_name = unit.imports[callee]
            resolved = self.find_module(remote_module)
            if resolved is not None:
                remote_unit = self.modules[resolved]
                if remote_name in remote_unit.report.functions:
                    return (resolved, remote_name)
        return None

    def functions(self) -> List[Tuple[str, FunctionAnalysis]]:
        """Every analyzed function as (module, analysis), sorted."""
        result: List[Tuple[str, FunctionAnalysis]] = []
        for name in sorted(self.modules):
            report = self.modules[name].report
            for fname in sorted(report.functions):
                result.append((name, report.functions[fname]))
        return result

    def function(self, key: Tuple[str, str]) -> FunctionAnalysis:
        """The analysis of ``(module, function)``."""
        return self.modules[key[0]].report.functions[key[1]]

    # -- program-wide inference -------------------------------------------------------

    def _link(self) -> None:
        """Fill effective terms, depth and transitive effect kinds.

        One memoized DFS per quantity, visiting roots in sorted order; a
        call back into the DFS stack (recursion) contributes nothing.
        """
        Key = Tuple[str, str]
        terms: Dict[Key, Tuple[Term, ...]] = {}
        kinds: Dict[Key, Set[str]] = {}

        def terms_of(key: Key, stack: Tuple[Key, ...]) -> Tuple[Term, ...]:
            if key in terms:
                return terms[key]
            if key in stack:
                return ()
            found: List[Term] = list(self.function(key).local_terms)
            for call in self.function(key).calls:
                chain_term = Term.from_chain(call.chain)
                declared = self.registry.cost_degrees(call.callee)
                if declared:
                    # Cost-model bridge: the callee charges virtual CPU
                    # demand arithmetically; use its declared degrees
                    # instead of (invisible) loop structure.
                    found.append(chain_term.mul(Term.from_degrees(declared)))
                    continue
                resolved = self.resolve_call(key[0], call.callee)
                if resolved is not None:
                    found.extend(chain_term.mul(term) for term
                                 in terms_of(resolved, stack + (key,)))
            terms[key] = maximal(found)
            return terms[key]

        def kinds_of(key: Key, stack: Tuple[Key, ...]) -> Set[str]:
            if key in kinds:
                return kinds[key]
            if key in stack:
                return set()
            found = {effect.kind for effect in self.function(key).side_effects}
            for call in self.function(key).calls:
                resolved = self.resolve_call(key[0], call.callee)
                if resolved is not None:
                    found |= kinds_of(resolved, stack + (key,))
            kinds[key] = found
            return found

        roots = [(module, analysis.name)
                 for module, analysis in self.functions()]
        for key in roots:
            analysis = self.function(key)
            analysis.effective_terms = terms_of(key, ())
            analysis.effective_depth = max(
                (term.total() for term in analysis.effective_terms), default=0
            )
        for key in roots:
            self.function(key).transitive_effect_kinds = kinds_of(key, ())


def find_offending(module, registry: Optional[AnnotationRegistry] = None
                   ) -> FinderReport:
    """Step (b) over one imported module.

    Loads a :class:`Program` over the module's package, so annotations
    and calls resolve from source, and returns the module's report.  An
    explicit ``registry`` receives the harvested annotations on top of
    whatever it already holds.
    """
    name = module.__name__
    package = name if hasattr(module, "__path__") else name.rpartition(".")[0]
    return Program.load([package or name], registry).modules[name].report
