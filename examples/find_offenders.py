#!/usr/bin/env python3
"""Program analysis walkthrough: annotate, find, and auto-instrument.

Demonstrates steps (a)-(c) of the paper's Figure 2 on real Python code:

1. the scale-dependent structure annotations already present in
   ``repro.cassandra.legacy_calc`` (< 30 LOC, step a);
2. the finder locating cross-function scale-dependent loop nests, the
   branch-guarded CASSANDRA-6127 bootstrap path, and PIL-safety verdicts
   (step b);
3. auto-instrumentation wrapping the offenders with record/replay shims,
   then recording one run and replaying it with sleeps substituted for
   computation (step c + the PIL mechanism, wall-clock flavour).

Run:
    python examples/find_offenders.py
"""

import time

import repro.cassandra.legacy_calc as legacy_calc
from repro.cassandra.pending_ranges import compute_pending_ranges
from repro.cassandra.ring import TokenMetadata
from repro.cassandra.tokens import tokens_for_node
from repro.core import Instrumenter, MemoDB, find_offending
from repro.core.report import render_finder_report


def build_cluster_state(nodes: int = 40, vnodes: int = 16) -> TokenMetadata:
    """An established ring with one node leaving (a decommission)."""
    metadata = TokenMetadata()
    for i in range(nodes):
        name = f"node-{i:03d}"
        metadata.update_normal_tokens(name, tokens_for_node(name, vnodes))
    metadata.add_leaving_endpoint("node-000")
    return metadata


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

    # Step (c): auto-instrument the finder's picks and demonstrate PIL.
    metadata = build_cluster_state()
    expected = compute_pending_ranges(metadata, rf=3)
    db = MemoDB()
    with Instrumenter(legacy_calc, db) as instrumenter:
        wrapped = instrumenter.instrument()
        print(f"instrumented: {', '.join(wrapped)}\n")

        started = time.perf_counter()
        recorded = legacy_calc.calculate_pending_ranges_legacy(metadata, 3)
        record_wall = time.perf_counter() - started
        assert recorded == expected

        instrumenter.set_mode("replay")
        started = time.perf_counter()
        replayed = legacy_calc.calculate_pending_ranges_legacy(metadata, 3)
        replay_wall = time.perf_counter() - started
        assert replayed == expected

        print(f"recording run (live computation):   {record_wall * 1e3:8.1f} ms")
        print(f"PIL replay (sleep + stored output): {replay_wall * 1e3:8.1f} ms")
        print("  -> replay reproduces the recorded duration by sleeping,")
        print("     without executing the computation (no CPU consumed --")
        print("     hundreds of replayed nodes can share one machine).")
        print(f"outputs identical: {recorded == replayed}")
        print(f"memo DB: {len(db)} records for "
              f"{instrumenter.live_calls()} live calls")

    # Bonus: the time-dilation knob.  Replays that only need the *outputs*
    # (not faithful timing) can shrink every sleep.
    fast_db = MemoDB()
    with Instrumenter(legacy_calc, fast_db, time_scale=0.01) as instrumenter:
        instrumenter.instrument()
        legacy_calc.calculate_pending_ranges_legacy(metadata, 3)
        instrumenter.set_mode("replay")
        started = time.perf_counter()
        dilated = legacy_calc.calculate_pending_ranges_legacy(metadata, 3)
        dilated_wall = time.perf_counter() - started
        assert dilated == expected
        print(f"replay at time_scale=0.01:          {dilated_wall * 1e3:8.1f} ms")


if __name__ == "__main__":
    main()
