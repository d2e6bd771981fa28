"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_bugs_lists_all_configurations(capsys):
    code, out = run_cli(capsys, "bugs")
    assert code == 0
    for bug in ("c3831", "c3881", "c5456", "c6127"):
        assert bug in out
        assert f"{bug}-fixed" in out
    assert "BUGGY" in out and "fixed" in out


def test_study_prints_population(capsys):
    code, out = run_cli(capsys, "study")
    assert code == 0
    assert "38" in out
    assert "47%" in out


def test_finder_runs_on_default_corpus(capsys):
    code, out = run_cli(capsys, "finder")
    assert code == 0
    assert "calculate_pending_ranges_legacy" in out
    assert "PIL-safe" in out


def test_finder_accepts_custom_module(capsys):
    code, out = run_cli(capsys, "finder", "--module",
                        "repro.cassandra.legacy_calc")
    assert code == 0
    assert "_incremental_update" in out


def test_colocation_prints_limits(capsys):
    code, out = run_cli(capsys, "colocation")
    assert code == 0
    assert "max factor" in out
    assert "600-node probe" in out


def test_check_small_pipeline(capsys):
    code, out = run_cli(capsys, "check", "--bug", "c3831-fixed",
                        "--nodes", "6", "--seed", "3")
    assert code == 0
    assert "err-vs-real" in out
    assert "memo DB" in out
    assert "SC+PIL" in out


def test_check_saves_db(tmp_path, capsys):
    path = tmp_path / "memo.json"
    code, out = run_cli(capsys, "check", "--bug", "c3831-fixed",
                        "--nodes", "6", "--seed", "3",
                        "--save-db", str(path))
    assert code == 0
    assert path.exists()
    from repro.core.memoization import MemoDB
    db = MemoDB.load(path)
    assert db.meta["bug"] == "c3831-fixed"


def test_figure3_with_tiny_scales(capsys):
    code, out = run_cli(capsys, "figure3", "--bug", "c3831",
                        "--scales", "4", "6", "--seed", "3")
    assert code == 0
    assert "Figure 3 panel: c3831" in out
    assert "real" in out and "pil" in out


def test_chaos_help_lists_knobs(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["chaos", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--min-flap-ratio", "--save-schedule", "--load-schedule",
                 "--no-shrink", "--no-pil", "--tries"):
        assert flag in out


def test_chaos_end_to_end_with_loaded_schedule(tmp_path, capsys):
    from repro.faults import FaultSchedule, NodeCrash, NodeRestart

    plan = tmp_path / "plan.json"
    out_plan = tmp_path / "final.json"
    FaultSchedule(events=[
        NodeCrash(time=5.0, node="node-003"),
        NodeRestart(time=40.0, node="node-003"),
    ], name="crash-one").save(plan)
    code, out = run_cli(
        capsys, "chaos", "--bug", "c3831-fixed", "--nodes", "6",
        "--seed", "42", "--warmup", "10", "--observe", "40",
        "--load-schedule", str(plan), "--no-shrink",
        "--min-flap-ratio", "1",
        "--save-schedule", str(out_plan))
    assert code == 0
    assert "baseline (no faults):" in out
    assert "chaos run:" in out
    assert "SC+PIL replay" in out
    assert FaultSchedule.load(out_plan).name == "crash-one"


_SCHEDULE_VERBS = {
    "chaos": ["chaos", "--bug", "c3831-fixed", "--nodes", "6",
              "--warmup", "2", "--observe", "3"],
    "doctor": ["doctor", "--bug", "c3831-fixed", "--nodes", "6"],
    "workload": ["workload", "--nodes", "6", "--users", "1000"],
}

_BAD_SCHEDULES = {
    "missing": None,
    "truncated": '{"format": "repro-fault-schedule-v1", "events": [{"kind"',
    "events-wrong-type": '{"format": "repro-fault-schedule-v1", "events": 5}',
}


@pytest.mark.parametrize("damage", sorted(_BAD_SCHEDULES))
@pytest.mark.parametrize("verb", sorted(_SCHEDULE_VERBS))
def test_malformed_load_schedule_is_a_one_line_error(tmp_path, capsys,
                                                     verb, damage):
    """An unusable --load-schedule file exits 2 with `error:`, no traceback."""
    path = tmp_path / "plan.json"
    if _BAD_SCHEDULES[damage] is not None:
        path.write_text(_BAD_SCHEDULES[damage])
    code = main(_SCHEDULE_VERBS[verb] + ["--load-schedule", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(
        f"error: cannot load fault schedule {path}: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.out + captured.err


def test_chaos_generates_and_shrinks(capsys):
    code, out = run_cli(
        capsys, "chaos", "--bug", "c3831-fixed", "--nodes", "6",
        "--seed", "42", "--warmup", "5", "--observe", "35",
        "--tries", "3", "--events", "4", "--min-flap-ratio", "1",
        "--max-evals", "8", "--no-pil")
    assert "generator seed" in out
    assert code in (0, 1)  # 1 = no amplifying schedule within --tries
    if code == 0:
        assert "shrunk" in out


def test_doctor_reports_bottlenecks(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code, out = run_cli(
        capsys, "doctor", "--bug", "c5456", "--nodes", "6",
        "--seed", "42", "--warmup", "10", "--observe", "40",
        "--trace-out", str(trace))
    assert code == 0
    assert "scale-doctor report" in out
    assert "total attributable lateness" in out
    assert "gossip-stage-queue" in out
    assert trace.exists()
    from repro.obs import SpanTracer
    assert len(SpanTracer.from_jsonl(trace)) > 0


def test_doctor_no_trace_still_diagnoses(capsys):
    code, out = run_cli(
        capsys, "doctor", "--bug", "c3831-fixed", "--nodes", "6",
        "--seed", "42", "--warmup", "10", "--observe", "40", "--no-trace")
    assert code == 0
    assert "scale-doctor report" in out


def test_doctor_divergence_attributes_modes(capsys):
    code, out = run_cli(
        capsys, "doctor", "--bug", "c3831-fixed", "--nodes", "6",
        "--seed", "42", "--warmup", "10", "--observe", "40",
        "--no-trace", "--divergence")
    assert code == 0
    assert "divergence vs real" in out
    assert "colo" in out and "pil" in out


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["warp-speed"])


def test_parser_rejects_unknown_figure3_bug():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure3", "--bug", "c9999"])


def test_partition_has_no_backend_flag():
    """One gossip state: ``--backend`` went with the second one."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(["partition", "--backend", "dict"])


# -- lint ----------------------------------------------------------------------------


FIXTURE_PKG = str(__import__("pathlib").Path(__file__).parent
                  / "fixtures" / "lintpkg")
REPO_BASELINE = str(__import__("pathlib").Path(__file__).resolve().parents[1]
                    / "lint-baseline.json")


def test_lint_fixture_without_baseline_fails(capsys, tmp_path):
    code, out = run_cli(capsys, "lint", "--targets", FIXTURE_PKG,
                        "--baseline", str(tmp_path / "absent.json"))
    assert code == 1
    assert "lock-held-scale-work" in out
    assert "lintpkg.lockmod" in out


def test_lint_write_baseline_then_clean(capsys, tmp_path):
    baseline = tmp_path / "baseline.json"
    code, out = run_cli(capsys, "lint", "--targets", FIXTURE_PKG,
                        "--baseline", str(baseline), "--write-baseline")
    assert code == 0
    assert baseline.exists()
    code, out = run_cli(capsys, "lint", "--targets", FIXTURE_PKG,
                        "--baseline", str(baseline))
    assert code == 0
    assert "0 finding(s)" in out


_BAD_BASELINES = {
    "truncated": '{"version": 1, "suppressions": [{"fingerprint"',
    "wrong-shape": "[]",
}


@pytest.mark.parametrize("damage", sorted(_BAD_BASELINES))
@pytest.mark.parametrize("verb", ["bench", "lint"])
def test_malformed_baseline_is_a_one_line_error(tmp_path, capsys, verb,
                                                damage):
    """An unusable baseline exits 2 with `error:`, no traceback."""
    if verb == "lint":
        path = tmp_path / "baseline.json"
        argv = ["lint", "--targets", FIXTURE_PKG, "--baseline", str(path)]
    else:
        path = tmp_path / "BENCH_event_churn.json"
        argv = ["bench", "--quick", "--repeats", "1", "--names",
                "event_churn", "--compare", "--dir", str(tmp_path)]
    path.write_text(_BAD_BASELINES[damage])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot load baseline {path}: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.out + captured.err


def test_lint_self_check_passes_on_shipped_tree(capsys):
    code, out = run_cli(capsys, "lint", "--self-check",
                        "--baseline", REPO_BASELINE)
    assert code == 0
    assert "self-check ok: C5456" in out
    assert "self-check ok: HDFS" in out
    assert "FAIL" not in out


def test_lint_json_format(capsys, tmp_path):
    import json

    code, out = run_cli(capsys, "lint", "--targets", FIXTURE_PKG,
                        "--baseline", str(tmp_path / "absent.json"),
                        "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["summary"]["findings"] > 0
    assert {f["rule"] for f in data["findings"]} >= {"scale-complexity"}


def test_lint_sarif_to_file(capsys, tmp_path):
    import json

    out_path = tmp_path / "report.sarif"
    code, out = run_cli(capsys, "lint", "--targets", FIXTURE_PKG,
                        "--baseline", str(tmp_path / "absent.json"),
                        "--format", "sarif", "--out", str(out_path))
    assert code == 1
    assert "written to" in out
    sarif = json.loads(out_path.read_text())
    assert sarif["version"] == "2.1.0"
    assert sarif["runs"][0]["results"]
