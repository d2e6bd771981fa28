#!/usr/bin/env python3
"""Program analysis walkthrough: annotate and find the PIL candidates.

Demonstrates steps (a)-(b) of the paper's Figure 2 on real Python code:

1. the scale-dependent structure annotations already present in
   ``repro.cassandra.legacy_calc`` (< 30 LOC, step a);
2. the finder locating cross-function scale-dependent loop nests, the
   branch-guarded CASSANDRA-6127 bootstrap path, and PIL-safety verdicts
   (step b);
3. the finder's PIL candidates: offending functions that are also
   PIL-safe, the ones the processing illusion may replace.

Steps (c)-(f) -- recording under basic colocation, then replaying with
``sleep(t)`` plus the stored output in virtual time -- run in
``examples/debug_replay_loop.py``.

Run:
    python examples/find_offenders.py
"""

import repro.cassandra.legacy_calc as legacy_calc
from repro.core import find_offending
from repro.core.report import render_finder_report


def main() -> None:
    # Step (b) reads the annotations of step (a) from source: the report
    # carries the registry they were harvested into.
    report = find_offending(legacy_calc)
    print("scale-dependent structures annotated by the developer:")
    for name in report.registry.scale_dependent_names():
        print(f"  - {name}")
    print()
    print(render_finder_report(report))
    print()
    print("PIL candidates (offending and PIL-safe):")
    for analysis in report.pil_candidates():
        print(f"  - {analysis.qualname}")
    print()
    print("record and replay them: python examples/debug_replay_loop.py")


if __name__ == "__main__":
    main()
