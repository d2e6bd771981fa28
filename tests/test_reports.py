"""Tests for report rendering and run-report utilities."""

import pytest

from repro.analysis import Program
from repro.cassandra.metrics import CalcRecord, FlapCounter, RunReport
from repro.core.finder import find_offending
from repro.core.memoization import MemoDB
from repro.core.report import (
    render_finder_report,
    render_memo_summary,
    render_mode_comparison,
    render_series,
)
from repro.annotations import AnnotationRegistry, scale_dependent


def make_report(mode="real", flaps=10, calc_demands=(0.5, 1.5)):
    return RunReport(
        mode=mode, bug="c3831", nodes=32, vnodes=1, duration=100.0,
        flaps=flaps, recoveries=flaps,
        calc_records=[
            CalcRecord(time=1.0, node="node-000", variant="v0-c3831",
                       input_key="k", demand=d, elapsed=d, changes=1)
            for d in calc_demands
        ],
        cpu_utilization=0.5, mean_stretch=2.0,
    )


class TestRunReport:
    def test_calc_duration_range(self):
        report = make_report(calc_demands=(0.2, 3.0, 1.0))
        assert report.calc_duration_range() == (0.2, 3.0)
        empty = make_report(calc_demands=())
        assert empty.calc_duration_range() == (0.0, 0.0)

    def test_total_calc_demand(self):
        report = make_report(calc_demands=(1.0, 2.0))
        assert report.total_calc_demand() == pytest.approx(3.0)

    def test_summary_is_one_line_with_key_facts(self):
        summary = make_report().summary()
        assert "c3831" in summary
        assert "10 flaps" in summary
        assert "\n" not in summary


class TestFlapCounter:
    def test_windows_and_groupings(self):
        counter = FlapCounter()
        counter.record_conviction(1.0, "a", "x")
        counter.record_conviction(2.0, "a", "y")
        counter.record_conviction(5.0, "b", "x")
        counter.record_recovery(6.0, "a", "x")
        assert counter.total == 3
        assert counter.recoveries == 1
        assert counter.by_observer() == {"a": 2, "b": 1}
        assert counter.by_target() == {"x": 2, "y": 1}
        assert counter.in_window(0.0, 3.0) == 2
        assert counter.first_flap_time() == 1.0
        assert FlapCounter().first_flap_time() is None


def test_render_mode_comparison_table():
    reports = {
        "real": make_report("real", flaps=100),
        "colo": make_report("colo", flaps=400),
        "pil": make_report("pil", flaps=110),
    }
    text = render_mode_comparison(reports)
    assert "real" in text and "colo" in text and "pil" in text
    assert "err-vs-real" in text
    # Colo error (75%) and PIL error (~9%) both present.
    assert "75.0%" in text


def test_render_memo_summary():
    db = MemoDB()
    db.put("calc", "k1", {}, 0.001)
    db.put("calc", "k2", {}, 4.0)
    db.record_message_order(["m1"])
    db.meta["bug"] = "c3831"
    text = render_memo_summary(db)
    assert "2 distinct inputs" in text
    assert "0.0010s .. 4.0000s" in text
    assert "meta bug: c3831" in text


def test_render_series_table():
    series = {"real": {8: 0, 16: 5}, "pil": {8: 0, 16: 4}}
    text = render_series("panel", [8, 16], series)
    lines = text.splitlines()
    assert lines[0] == "panel"
    assert "real" in lines[1] and "pil" in lines[1]
    assert lines[2].split() == ["8", "0", "0"]
    assert lines[3].split() == ["16", "5", "4"]


def test_render_finder_report_includes_guards_and_warnings():
    registry = AnnotationRegistry()
    scale_dependent("ring", registry=registry)
    source = """
def entry(ring, fresh, out):
    if fresh:
        for a in ring:
            for b in ring:
                out[a] = b
    return out
"""
    report = Program.from_sources({"m": source}, registry).modules["m"].report
    text = render_finder_report(report)
    assert "entry" in text
    assert "O(N^2)" in text
    assert "reached when: fresh" in text
    assert "writes through parameters" in text
    assert "categories:" in text


def test_rendered_verdict_reads_the_reports_registry():
    """A registry veto takes the entry point out of the PIL candidates, and
    the rendered report must agree with the candidate list about it."""
    import repro.cassandra.legacy_calc as legacy_calc

    registry = Program.load(["repro.cassandra"]).registry
    registry.add_pil_unsafe("calculate_pending_ranges_legacy")
    report = find_offending(legacy_calc, registry)
    assert "calculate_pending_ranges_legacy" not in [
        f.name for f in report.pil_candidates()]
    text = render_finder_report(report)
    line, = [row for row in text.splitlines()
             if row.startswith("- calculate_pending_ranges_legacy ")]
    assert line.endswith(", NOT PIL-safe")


def test_render_finder_report_empty_module():
    registry = AnnotationRegistry()
    report = Program.from_sources({"m": "x = 1"}, registry).modules["m"].report
    assert "no offending functions" in render_finder_report(report)
