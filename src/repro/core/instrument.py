"""Auto-instrumentation (step (c) of Figure 2).

Given a finder report, wrap the offending PIL-safe functions of a module
with record/replay shims (:class:`~repro.core.pilfunc.PilFunction`) without
touching the module's source.  Because Python resolves intra-module calls
through module globals at call time, rebinding the module attribute also
redirects *internal* callers -- the instrumentation is transparent to the
code under test, like the bytecode rewriting a JVM agent would do.
"""

from __future__ import annotations

import types
from typing import Dict, Iterable, List, Optional

from ..annotations import AnnotationRegistry
from .finder import FinderReport, find_offending
from .memoization import MemoDB
from .pilfunc import PilFunction


class InstrumentationError(RuntimeError):
    """Raised when a requested target cannot be instrumented."""


class Instrumenter:
    """Rebinds offending functions of one module to PIL shims.

    Usage::

        db = MemoDB()
        with Instrumenter(legacy_calc, db) as inst:
            inst.instrument()                      # wrap finder's picks
            run_workload()                         # record mode
            inst.set_mode("replay")
            run_workload()                         # PIL-infused replay
        # module restored on exit
    """

    def __init__(
        self,
        module: types.ModuleType,
        db: MemoDB,
        registry: Optional[AnnotationRegistry] = None,
        time_scale: float = 1.0,
    ) -> None:
        self.module = module
        self.db = db
        self.registry = registry
        self.time_scale = time_scale
        self.report: Optional[FinderReport] = None
        self._originals: Dict[str, object] = {}
        self.wrapped: Dict[str, PilFunction] = {}

    # -- selection -----------------------------------------------------------------

    def analyze(self) -> FinderReport:
        """Run (and cache) the finder over the target module."""
        if self.report is None:
            self.report = find_offending(self.module, self.registry)
        return self.report

    def default_targets(self) -> List[str]:
        """The finder's picks: offending *and* PIL-safe functions."""
        return [f.name for f in self.analyze().pil_candidates()]

    # -- wrapping -------------------------------------------------------------------

    def instrument(self, names: Optional[Iterable[str]] = None) -> List[str]:
        """Wrap ``names`` (default: the finder's picks).  Returns wrapped names.

        Atomic: either every requested target is rebound or none of this
        batch is.  Targets are validated before the first rebind, and an
        unexpected failure mid-rebind rolls the batch back, so a raising
        ``instrument()`` never leaves the module half-instrumented -- even
        when the Instrumenter is used without its context manager.
        """
        targets = list(names) if names is not None else self.default_targets()
        batch: Dict[str, object] = {}
        for name in targets:
            if name in self.wrapped or name in batch:
                continue
            original = getattr(self.module, name, None)
            if original is None or not callable(original):
                raise InstrumentationError(
                    f"{self.module.__name__}.{name} is not a callable"
                )
            batch[name] = original
        rebound: List[str] = []
        try:
            for name, original in batch.items():
                shim = PilFunction(
                    original, self.db,
                    func_id=f"{self.module.__name__}.{name}",
                    time_scale=self.time_scale,
                )
                setattr(self.module, name, shim)
                rebound.append(name)
                self._originals[name] = original
                self.wrapped[name] = shim
        except Exception:
            for name in rebound:
                setattr(self.module, name, batch[name])
                self._originals.pop(name, None)
                self.wrapped.pop(name, None)
            raise
        return targets

    def set_mode(self, mode: str) -> None:
        """Switch every shim: ``"record"``, ``"replay"``, or ``"off"``."""
        if mode not in ("record", "replay", "off"):
            raise ValueError(f"unknown mode {mode!r}")
        for shim in self.wrapped.values():
            shim.mode = mode

    def restore(self) -> None:
        """Rebind the original functions."""
        for name, original in self._originals.items():
            setattr(self.module, name, original)
        self._originals.clear()
        self.wrapped.clear()

    # -- stats ------------------------------------------------------------------------

    def live_calls(self) -> int:
        """Total live (recorded) invocations across shims."""
        return sum(shim.live_calls for shim in self.wrapped.values())

    def replayed_calls(self) -> int:
        """Total PIL-replayed invocations across shims."""
        return sum(shim.replayed_calls for shim in self.wrapped.values())

    # -- context manager ----------------------------------------------------------------

    def __enter__(self) -> "Instrumenter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()
