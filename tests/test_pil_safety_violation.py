"""The finder refuses every function that breaks the PIL-safety rule.

DESIGN.md ablation 5.  The paper's rule (section 5): a PIL-safe function
must have a memoizable output and no side effects (disk I/O, network
messages, locks).  What a violation costs shows on the running executors:
a replayed call's effects never happen
(``test_replayer_scalecheck.py::test_replay_hit_runs_no_calculation``), a
nondeterministic output is counted rather than masked
(``test_memoization.py::test_conflicting_output_is_counted_not_masked``,
``test_pil_executors.py::test_a_conflicting_output_is_still_recorded``),
and replay pins the first recorded output
(``test_memoization.py::test_first_output_wins_durations_fold_to_mean``).
This module shows that the finder refuses each violation class up front.
"""

from repro.analysis import Program
from repro.annotations import AnnotationRegistry, scale_dependent


def test_finder_would_have_refused_each_replacement():
    """The analysis catches all three violation classes statically."""
    registry = AnnotationRegistry()
    scale_dependent("values", registry=registry)
    source = """
def announce_and_sum(values, net):
    total = 0
    for v in values:
        total += v
    net.send(("total", total))
    return total

def pick(values, rng):
    items = list(values)
    return rng.choice(items)

class Holder:
    def bump(self, values):
        for v in values:
            self.count = self.count + 1
        return self.count
"""
    report = Program.from_sources({"m": source}, registry).modules["m"].report
    assert not report.get("announce_and_sum").pil_safe(registry)   # network
    assert not report.get("pick").pil_safe(registry)               # nondet
    assert not report.get("Holder.bump").pil_safe(registry)        # state
