"""T-FIND -- sections 5/7: the offending-function finder on the corpus.

The paper's program analysis must (a) find scale-dependent loop nests that
span multiple functions (C6127: O(N^x) across 9 functions), (b) surface
the branch conditions that gate expensive paths (the fresh-bootstrap
branch), (c) split offenders into CPU-superlinear vs serialized-O(N)
(the footnote-1 categories), and (d) issue PIL-safety verdicts.
"""

import pytest

from repro.bench.tables import finder_table
from repro.core.report import render_finder_report


@pytest.fixture(scope="module")
def report():
    return finder_table()


def test_finder_runs_over_corpus(benchmark):
    result = benchmark(finder_table)
    assert len(result.functions) >= 9   # the multi-function corpus


def test_cross_function_nests_found(benchmark, report):
    result = benchmark.pedantic(lambda: report, rounds=1, iterations=1)
    entry = result.functions["calculate_pending_ranges_legacy"]
    assert entry.local_depth == 0       # entry has no loops itself
    assert entry.effective_depth >= 2   # the nest spans callees


def test_branch_guarded_path_surfaced(benchmark, report):
    result = benchmark.pedantic(lambda: report, rounds=1, iterations=1)
    entry = result.functions["calculate_pending_ranges_legacy"]
    fresh = [c for c in entry.calls if c.callee == "_fresh_ring_construction"]
    assert fresh and any("_is_fresh_bootstrap" in g for g in fresh[0].guards)


def test_category_split_present(benchmark, report):
    result = benchmark.pedantic(lambda: report, rounds=1, iterations=1)
    counts = result.category_counts()
    assert counts.get("scale-dependent-cpu", 0) >= 3
    assert counts.get("serialized-linear", 0) >= 3


def test_offenders_are_pil_safe(benchmark, report):
    result = benchmark.pedantic(lambda: report, rounds=1, iterations=1)
    assert result.pil_candidates() == result.offenders()


def test_finder_report_rendering(benchmark, report, capsys):
    text = benchmark.pedantic(lambda: render_finder_report(report),
                              rounds=1, iterations=1)
    assert "PIL-safe" in text
    with capsys.disabled():
        print("\n" + text)
