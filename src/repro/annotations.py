"""Developer annotations for scale-check (step (a) of the paper's Figure 2).

The paper's workflow starts with developers *lightly* annotating (< 30 LOC)
the data structures whose size depends on cluster scale -- in Cassandra, the
ring table and endpoint-state map.  Everything downstream (the offending-
function finder and the PIL candidates it names) keys off these annotations.

Two annotation surfaces are provided:

* :func:`scale_dependent` -- decorator/marker for classes, functions, or
  named attributes whose size grows with the cluster; an optional ``var``
  names the symbolic scale variable (``N`` nodes, ``T`` ring tokens, ``M``
  in-flight changes, ``B`` blocks) so the analysis can report closed-form
  labels like ``O(M·N^3)`` instead of a generic depth count;
* :func:`pil_safe` / :func:`pil_unsafe` -- explicit overrides for the
  finder's PIL-safety analysis (the analysis is conservative; a developer
  can assert safety for a function whose side effects are benign, or veto a
  function the analysis would otherwise replace);
* :func:`lock_protects` -- declares which lock owns a shared structure, the
  input the :mod:`repro.analysis` lock-discipline checker keys off;
* :func:`declare_cost` -- declares the modeled complexity of a cost-model
  function (e.g. ``calc_cost``), bridging the static analysis to virtual
  CPU demand that is charged arithmetically rather than looped.

In source these calls are markers: :class:`repro.core.finder.Program`
harvests them *statically* into its own :class:`AnnotationRegistry`, so
analysis never depends on what the host process imported, and works on
modules that are never imported at all.  Called with an explicit
``registry=``, they register into that registry at run time instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, TypeVar

F = TypeVar("F", bound=Callable)


@dataclass
class ScaleDepAnnotation:
    """One scale-dependent structure annotation."""

    name: str                     # qualified name or attribute name
    axis: str = "cluster-size"    # which axis of scale: cluster-size, data, load
    note: str = ""
    #: Symbolic scale variable (``"N"``, ``"T"``, ``"M"``, ``"B"``...).
    #: ``None`` means the axis is unnamed and complexity labels fall back
    #: to the generic ``O(N^depth)`` form.
    var: Optional[str] = None


@dataclass
class LockAnnotation:
    """Declares that ``lock`` owns ``structures`` (attribute names)."""

    lock: str
    structures: tuple
    note: str = ""


@dataclass
class CostAnnotation:
    """Declared complexity of a cost-model function, as axis-var degrees.

    ``declare_cost("calc_cost", M=1, T=2)`` says every call to ``calc_cost``
    charges virtual CPU demand growing as M·T² even though the charge is
    arithmetic (``changes * tokens ** 2``) and invisible to loop analysis.
    """

    func: str
    degrees: Dict[str, int]
    note: str = ""


class AnnotationRegistry:
    """A store of annotations, consulted by the finder."""

    def __init__(self) -> None:
        self._scale_dep: Dict[str, ScaleDepAnnotation] = {}
        self._pil_safe: Set[str] = set()
        self._pil_unsafe: Set[str] = set()
        self._locks: Dict[str, LockAnnotation] = {}
        self._costs: Dict[str, CostAnnotation] = {}

    # -- registration ----------------------------------------------------------

    def add_scale_dependent(self, annotation: ScaleDepAnnotation) -> None:
        """Register one scale-dependent structure annotation."""
        self._scale_dep[annotation.name] = annotation

    def add_pil_safe(self, qualname: str) -> None:
        """Record a developer assertion that ``qualname`` is PIL-safe."""
        self._pil_safe.add(qualname)
        self._pil_unsafe.discard(qualname)

    def add_pil_unsafe(self, qualname: str) -> None:
        """Record a developer veto: ``qualname`` must not take the PIL."""
        self._pil_unsafe.add(qualname)
        self._pil_safe.discard(qualname)

    def add_lock(self, annotation: LockAnnotation) -> None:
        """Register a lock-ownership declaration."""
        self._locks[annotation.lock] = annotation

    def add_cost(self, annotation: CostAnnotation) -> None:
        """Register a declared-cost annotation for a cost-model function."""
        self._costs[annotation.func] = annotation

    # -- queries -----------------------------------------------------------------

    def is_scale_dependent(self, name: str) -> bool:
        """True if ``name`` (qualified or bare attribute name) is annotated."""
        if name in self._scale_dep:
            return True
        tail = name.rsplit(".", 1)[-1]
        return tail in self._scale_dep

    def scale_dependent_names(self) -> List[str]:
        """All annotated names, sorted."""
        return sorted(self._scale_dep)

    def annotation_for(self, name: str) -> Optional[ScaleDepAnnotation]:
        """The annotation for ``name`` (qualified or bare), or None."""
        if name in self._scale_dep:
            return self._scale_dep[name]
        return self._scale_dep.get(name.rsplit(".", 1)[-1])

    def axis_vars_for(self, name: str) -> frozenset:
        """The named scale variables for ``name`` as a frozenset.

        Empty frozenset means the name is annotated but its axis is
        unnamed (the ``O(N^depth)`` fallback); callers must use
        :meth:`is_scale_dependent` to distinguish "unannotated".
        """
        annotation = self.annotation_for(name)
        if annotation is None or annotation.var is None:
            return frozenset()
        return frozenset((annotation.var,))

    def pil_safety_override(self, qualname: str) -> Optional[bool]:
        """Explicit developer verdict for ``qualname``, if any."""
        if qualname in self._pil_safe:
            return True
        if qualname in self._pil_unsafe:
            return False
        return None

    def lock_for(self, structure: str) -> Optional[str]:
        """The lock declared to protect attribute ``structure``, or None."""
        tail = structure.rsplit(".", 1)[-1]
        for annotation in self._locks.values():
            if tail in annotation.structures:
                return annotation.lock
        return None

    def lock_annotations(self) -> List[LockAnnotation]:
        """All lock declarations, sorted by lock name."""
        return [self._locks[k] for k in sorted(self._locks)]

    def cost_degrees(self, func: str) -> Optional[Dict[str, int]]:
        """Declared axis degrees for cost-model function ``func``, or None."""
        annotation = self._costs.get(func)
        if annotation is None:
            annotation = self._costs.get(func.rsplit(".", 1)[-1])
        return dict(annotation.degrees) if annotation else None

    def clear(self) -> None:
        """Reset all annotations (used by tests)."""
        self._scale_dep.clear()
        self._pil_safe.clear()
        self._pil_unsafe.clear()
        self._locks.clear()
        self._costs.clear()


def scale_dependent(*names: str, axis: str = "cluster-size", note: str = "",
                    var: Optional[str] = None,
                    registry: Optional[AnnotationRegistry] = None):
    """Mark data structures as scale-dependent.

    ``var`` optionally names the symbolic scale variable all ``names`` in
    this call share (``var="T"`` for ring-token tables, ``var="B"`` for
    block maps).  Use separate calls to give structures distinct variables.

    Usable three ways::

        scale_dependent("ring", "endpoint_state_map")   # call form

        @scale_dependent()                              # class decorator:
        class TokenMetadata: ...                        # annotates the class name

        @scale_dependent("tokens")                      # decorator + attrs
        class Ring: ...
    """
    if registry is None:
        return lambda obj: obj
    for name in names:
        registry.add_scale_dependent(
            ScaleDepAnnotation(name, axis=axis, note=note, var=var))

    def decorate(obj):
        """Decorate."""
        qualname = getattr(obj, "__qualname__", getattr(obj, "__name__", str(obj)))
        registry.add_scale_dependent(
            ScaleDepAnnotation(qualname, axis=axis, note=note, var=var))
        bare = getattr(obj, "__name__", None)
        if bare and bare != qualname:
            # Also register the bare name: the AST finder sees unqualified
            # identifiers, and locally-defined classes carry nested
            # qualnames ("outer.<locals>.Ring").
            registry.add_scale_dependent(
                ScaleDepAnnotation(bare, axis=axis, note=note, var=var))
        return obj

    return decorate


def lock_protects(lock: str, *structures: str, note: str = "",
                  registry: Optional[AnnotationRegistry] = None) -> None:
    """Declare that attribute ``lock`` owns the shared ``structures``.

    The lock-discipline checker flags any read/write of a protected
    structure on a code path where the owning lock is not held, and any
    scale-dependent work performed *while* it is held (the C5456 pattern).
    """
    if registry is not None:
        registry.add_lock(LockAnnotation(lock, tuple(structures), note=note))


def declare_cost(func: str, note: str = "",
                 registry: Optional[AnnotationRegistry] = None,
                 **degrees: int) -> None:
    """Declare the modeled complexity of cost function ``func``.

    Degrees are axis-var exponents: ``declare_cost("calc_cost", M=1, T=2)``
    means each call costs O(M·T²) virtual CPU time.  The interprocedural
    analyzer treats a call to ``func`` as carrying these degrees even
    though the demand is charged arithmetically, not looped.
    """
    if registry is not None:
        registry.add_cost(CostAnnotation(func, dict(degrees), note=note))


def pil_safe(func: F, registry: Optional[AnnotationRegistry] = None) -> F:
    """Assert that ``func`` may be PIL-replaced (memoizable, side-effect free)."""
    if registry is not None:
        registry.add_pil_safe(func.__qualname__)
    return func


def pil_unsafe(func: F, registry: Optional[AnnotationRegistry] = None) -> F:
    """Veto PIL replacement of ``func`` regardless of analysis verdict."""
    if registry is not None:
        registry.add_pil_unsafe(func.__qualname__)
    return func
