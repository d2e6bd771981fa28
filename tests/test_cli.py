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


def test_bench_verb_is_gone():
    """One timing engine: the micro-scenarios are count-gated in
    ``tests/test_micro_census.py`` and timed only by ``scalebench``."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bench"])


def test_partition_run_prints_steps_memory_and_digest(capsys):
    code, out = run_cli(capsys, "partition", "--nodes", "12", "--shards", "2",
                        "--until", "1.0")
    assert code == 0
    lines = {line.split()[0]: line for line in out.splitlines() if line}
    assert lines["steps"].endswith("virtual seconds)")
    assert "KB peak RSS (coordinator)" in lines["memory"]
    assert int(lines["memory"].split()[1].replace(",", "")) > 0
    assert len(lines["digest"].split()[1]) == 64


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


# ``verb`` keeps the ``lint-`` prefix of the test ids.
@pytest.mark.parametrize("damage", sorted(_BAD_BASELINES))
@pytest.mark.parametrize("verb", ["lint"])
def test_malformed_baseline_is_a_one_line_error(tmp_path, capsys, verb,
                                                damage):
    """An unusable baseline exits 2 with `error:`, no traceback."""
    path = tmp_path / "baseline.json"
    path.write_text(_BAD_BASELINES[damage])
    code = main([verb, "--targets", FIXTURE_PKG, "--baseline", str(path)])
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


_BAD_SWEEP_SPECS = {
    "missing": None,
    "not-json": '{"format": "repro-sweep-spec-v1", "bugs": [',
    "wrong-format": '{"format": "repro-sweep-spec-v0", "bugs": ["c3831"], '
                    '"scales": [8]}',
    "no-bugs": '{"format": "repro-sweep-spec-v1", "scales": [8]}',
}


@pytest.mark.parametrize("damage", sorted(_BAD_SWEEP_SPECS))
def test_malformed_sweep_spec_is_a_one_line_error(tmp_path, capsys, damage):
    """An unusable --spec file exits 2 with `error:`, no traceback."""
    path = tmp_path / "grid.json"
    if _BAD_SWEEP_SPECS[damage] is not None:
        path.write_text(_BAD_SWEEP_SPECS[damage])
    code = main(["sweep", "--spec", str(path),
                 "--cache-dir", str(tmp_path / "cache")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot load sweep spec {path}: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.out + captured.err


def _failing_checks(*_args, **_kwargs):
    from repro.checks import Checks

    checks = Checks()
    checks.add("planted bug rediscovered", False, "MISSING: planted")
    return checks


def _stub_lint(monkeypatch, tmp_path):
    import repro.analysis

    monkeypatch.setattr(repro.analysis, "self_check", _failing_checks)
    return ["lint", "--targets", FIXTURE_PKG,
            "--baseline", str(tmp_path / "absent.json")]


def _stub_sanitize(monkeypatch, tmp_path):
    import repro.sanitize

    monkeypatch.setattr(repro.sanitize, "self_check", _failing_checks)
    return ["sanitize", "--static-only", "--targets", FIXTURE_PKG]


def _stub_hunt(monkeypatch, tmp_path):
    import repro.hunt
    from repro.hunt import HuntReport

    monkeypatch.setattr(repro.hunt, "run_hunt", lambda config: HuntReport(
        targets=list(config.targets), scales=[8], hdfs_scales=[8], seed=42))
    monkeypatch.setattr(repro.hunt, "self_check", _failing_checks)
    return ["hunt"]


def _stub_ci(monkeypatch, tmp_path):
    import repro.ci

    monkeypatch.setattr(repro.ci, "self_check", _failing_checks)
    return ["ci", "--cache-dir", str(tmp_path / "cache")]


def _stub_partition(monkeypatch, tmp_path):
    import repro.cli

    monkeypatch.setattr(repro.cli, "_partition_self_check", _failing_checks)
    return ["partition"]


_SELF_CHECK_VERBS = {
    "lint": _stub_lint,
    "sanitize": _stub_sanitize,
    "hunt": _stub_hunt,
    "ci": _stub_ci,
    "partition": _stub_partition,
}


@pytest.mark.parametrize("verb", list(_SELF_CHECK_VERBS))
def test_a_failing_self_check_exits_2(tmp_path, capsys, monkeypatch, verb):
    """Every gating verb exits 2 and prints one FAIL line for a failed check."""
    argv = _SELF_CHECK_VERBS[verb](monkeypatch, tmp_path)
    code, out = run_cli(capsys, *argv, "--self-check")
    assert code == 2
    fails = [line for line in out.splitlines()
             if line.startswith("  self-check FAIL: ")]
    assert fails == ["  self-check FAIL: planted bug rediscovered "
                     "-- MISSING: planted"]
