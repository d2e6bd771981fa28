#!/usr/bin/env python3
"""Quickstart: reproduce one scalability bug three ways on one machine.

Runs the CASSANDRA-3831 decommission scenario (the paper's section 2
opener) at a modest scale in all three execution modes --

* real-scale testing  (every node on its own machine),
* basic colocation    (all nodes contending on one machine),
* SC+PIL              (scale check: memoize once, replay with the
                       processing illusion),

-- and prints the flap counts side by side.  Scale-check's claim: the PIL
replay matches real-scale testing, basic colocation does not.

Run:
    python examples/quickstart.py [nodes]
"""

import sys

from repro import ScaleCheck
from repro.bench.calibrate import ci_cost_constants
from repro.cassandra import ScenarioParams
from repro.core import render_memo_summary, render_mode_comparison


def main() -> None:
    nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    print(f"scale-checking CASSANDRA-3831 (decommission) at {nodes} nodes\n")

    check = ScaleCheck(
        bug_id="c3831",
        nodes=nodes,
        seed=42,
        params=ScenarioParams(warmup=20, observe=90, leaving_duration=15),
        # CI calibration: small clusters pay paper-scale calculation costs,
        # so the bug's shape is visible without simulating 256 nodes.
        cost_constants=ci_cost_constants("c3831"),
    )

    # Step (b): what would the finder replace?
    finder_report = check.find_offenders()
    print("offending functions found by the program analysis:")
    for analysis in finder_report.offenders():
        print(f"  - {analysis.qualname}: {analysis.complexity}, "
              f"PIL-safe={analysis.pil_safe(finder_report.registry)}")
    print()

    # The real-scale baseline, then steps (c)-(f): memoize once under
    # colocation, replay once with PIL.
    real = check.run_real()
    result = check.check()
    reports = result.modes(real)
    print(render_mode_comparison(reports))
    print()

    print(render_memo_summary(result.db))
    print()

    accuracy = ScaleCheck.accuracy(reports)
    print(f"flap-count error vs real-scale testing: "
          f"colocation {accuracy['colo_error']:.0%}, "
          f"SC+PIL {accuracy['pil_error']:.0%}")
    if accuracy["pil_error"] <= accuracy["colo_error"]:
        print("=> PIL replay reproduces real-scale behaviour on one machine.")


if __name__ == "__main__":
    main()
