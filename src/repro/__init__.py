"""repro: a reproduction of "Scalability Bugs: When 100-Node Testing is Not
Enough" (Leesatapornwongsa et al., HotOS '17).

The package implements *scale check* -- finding and replaying scalability
bugs at real scale on a single machine via the processing illusion (PIL) --
together with every substrate the paper's evaluation needs:

* :mod:`repro.sim`       -- deterministic discrete-event simulation kernel
  with explicit CPU-contention and memory models;
* :mod:`repro.cassandra` -- a Cassandra-like gossip/membership system with
  the historical buggy code paths (CASSANDRA-3831/3881/5456/6127);
* :mod:`repro.core`      -- the contribution: offending-function finder,
  PIL memoization and replay, colocation analysis;
* :mod:`repro.study`     -- the 38-bug scalability-bug study;
* :mod:`repro.bench`     -- harnesses regenerating every paper figure/table.

Quickstart::

    from repro import ScaleCheck

    check = ScaleCheck(bug_id="c3831", nodes=64)
    reports = check.compare_modes()          # Real vs Colo vs SC+PIL
    for mode, report in reports.items():
        print(mode, report.flaps, "flaps")
"""

import importlib

__version__ = "1.0.0"

#: Public name -> the submodule that defines it.  A name is imported on
#: first access (PEP 562), so ``import repro.cassandra`` loads neither the
#: finder nor the sweep engine; ``from repro import ScaleCheck`` still works.
_EXPORTS = {
    "AnnotationRegistry": "annotations",
    "ScaleDepAnnotation": "annotations",
    "pil_safe": "annotations",
    "pil_unsafe": "annotations",
    "scale_dependent": "annotations",
    "Cluster": "cassandra",
    "ClusterConfig": "cassandra",
    "Mode": "cassandra",
    "RunReport": "cassandra",
    "ScenarioParams": "cassandra",
    "all_bugs": "cassandra",
    "get_bug": "cassandra",
    "ColocationAnalyzer": "core",
    "FinderReport": "core",
    "MemoDB": "core",
    "ScaleCheck": "core",
    "ScaleCheckResult": "core",
    "find_offending": "core",
    "SweepPoint": "sweep",
    "SweepSpec": "sweep",
    "SweepSummary": "sweep",
    "run_sweep": "sweep",
}


def __getattr__(name: str):
    """Import a public name from its submodule on first access."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                    name)
    globals()[name] = value
    return value


__all__ = [
    "AnnotationRegistry",
    "Cluster",
    "ClusterConfig",
    "ColocationAnalyzer",
    "FinderReport",
    "MemoDB",
    "Mode",
    "RunReport",
    "ScaleCheck",
    "ScaleCheckResult",
    "ScaleDepAnnotation",
    "ScenarioParams",
    "SweepPoint",
    "SweepSpec",
    "SweepSummary",
    "run_sweep",
    "all_bugs",
    "find_offending",
    "get_bug",
    "pil_safe",
    "pil_unsafe",
    "scale_dependent",
    "__version__",
]
