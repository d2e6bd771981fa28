"""Tests for the detect -> sweep -> confirm hunt pipeline.

Unit tests cover each stage in isolation (curve fitting, candidate
extraction, probe mapping, confirmation logic, report ranking); a
stubbed-sweep test drives the whole pipeline without simulation cost; the
``hunt``-marked end-to-end test runs the real thing over the grown bug
corpus and belongs to the CI hunt job.
"""

import json
import os

import pytest

from repro.analysis.findings import Finding
from repro.hunt import (
    HuntConfig,
    HuntReport,
    fit_flap_curve,
    probe_for,
    run_hunt,
)
from repro.hunt.candidates import candidates_from_findings
from repro.hunt.confirm import confirm_candidate
from repro.hunt.pipeline import self_check
from repro.hunt.probes import (
    EXPECTED_REFUTED,
    HDFS_BUG_ID,
    PLANTED_BUG_CHECKS,
)
from repro.hunt.report import HuntedCandidate


# -- stage: curve fitting ------------------------------------------------------


class TestCurveFit:
    def test_latent_then_jump_is_threshold(self):
        fit = fit_flap_curve([8, 16, 24, 32], [0, 0, 0, 91])
        assert fit.classification == "threshold"
        assert fit.confirms
        assert fit.exponent is None

    def test_visible_superlinear_growth(self):
        fit = fit_flap_curve([8, 16, 24, 32], [0, 10, 159, 750])
        assert fit.classification == "superlinear"
        assert fit.confirms
        assert fit.exponent > 2

    def test_no_symptom_is_flat(self):
        fit = fit_flap_curve([8, 16, 24, 32], [0, 1, 2, 3])
        assert fit.classification == "flat"
        assert not fit.confirms

    def test_linear_growth_does_not_confirm(self):
        fit = fit_flap_curve([8, 16, 24, 32], [25, 50, 75, 100])
        assert fit.classification == "linear"
        assert not fit.confirms

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_flap_curve([], [])
        with pytest.raises(ValueError):
            fit_flap_curve([8, 16], [1.0])
        with pytest.raises(ValueError):
            fit_flap_curve([16, 8], [1.0, 2.0])


# -- stage: candidates ---------------------------------------------------------


def _finding(rule, module, function, severity="warning", detail="O(N^2)"):
    return Finding(rule=rule, severity=severity, module=module,
                   function=function, lineno=10, message=f"x {detail}",
                   detail=detail)


class TestCandidates:
    def test_findings_group_per_function_with_merged_terms(self):
        findings = [
            _finding("scale-complexity", "repro.cassandra.node",
                     "Node._calc_stage", "error", "O(M·T^2)"),
            _finding("lock-held-scale-work", "repro.cassandra.node",
                     "Node._calc_stage", "warning",
                     "ring_lock|calc|O(M·T^2)"),
            _finding("unlocked-access", "repro.cassandra.node",
                     "Node._calc_stage"),  # not a candidate rule: ignored
            _finding("scale-complexity", "repro.hdfs.namenode", "start"),
        ]
        cands = candidates_from_findings(findings)
        assert [c.location for c in cands] == [
            "repro.cassandra.node:Node._calc_stage",
            "repro.hdfs.namenode:start",
        ]
        calc = cands[0]
        assert calc.severity == "error"
        assert set(calc.terms) == {"scale-complexity",
                                   "lock-held-scale-work"}
        assert calc.probe is not None and calc.probe.bug_id == "c5456"
        assert cands[1].probe is None

    def test_probe_registry_covers_the_planted_corpus(self):
        locations = {
            "c3831": ("repro.cassandra.calc_variants", "calc_v0_c3831"),
            "c3881": ("repro.cassandra.calc_variants", "calc_v1_c3881"),
            "c5456": ("repro.cassandra.node", "Node._calc_stage"),
            "c6127": ("repro.cassandra.calc_variants",
                      "calc_v3_bootstrap_c6127"),
            HDFS_BUG_ID: ("repro.hdfs.namenode",
                          "NameNode._handle_block_report"),
            "zkclose": ("repro.cassandra.ported_faults",
                        "apply_session_closes"),
            "rhandoff": ("repro.cassandra.ported_faults",
                         "handoff_pending_scan"),
            "retryamp": ("repro.cassandra.ported_faults",
                         "replay_retry_backlog"),
        }
        assert set(locations) == set(PLANTED_BUG_CHECKS)
        for bug_id, (module, function) in locations.items():
            probe = probe_for(module, function)
            assert probe is not None and probe.bug_id == bug_id

    def test_unknown_location_has_no_probe(self):
        assert probe_for("repro.cassandra.legacy_calc",
                         "_merged_future_ring") is None


# -- stage: confirmation -------------------------------------------------------


def _report(flaps, lateness):
    return {"flaps": flaps, "stage_lateness": lateness}


class TestConfirm:
    def test_latent_bug_confirmed_with_extrapolation_miss(self):
        conf = confirm_candidate(
            [8, 16, 24, 32], [0, 0, 0, 91],
            real_top_report=_report(91, {"gossip-stage-queue": 2.0}),
            colo_top_report=_report(400, {"gossip-stage-queue": 80.0}),
        )
        assert conf.verdict == "confirmed"
        assert conf.extrapolation["predicted"] == 0.0
        assert conf.extrapolation["missed"] is True
        assert conf.divergence["stage"] == "gossip-stage-queue"
        assert conf.divergence["excess_lateness"] == pytest.approx(78.0)

    def test_flat_series_refuted(self):
        conf = confirm_candidate([8, 16, 24, 32], [0, 0, 1, 2])
        assert conf.verdict == "refuted"
        assert conf.curve.classification == "flat"

    def test_divergence_unattributable_without_reports(self):
        conf = confirm_candidate([8, 16], [0, 100])
        assert conf.divergence["stage"] is None
        assert "unattributable" in conf.divergence


# -- report ranking and serialization ------------------------------------------


def _hunted(module, function, verdict, top=0.0):
    cand = candidates_from_findings(
        [_finding("scale-complexity", module, function)])[0]
    hc = HuntedCandidate(candidate=cand, verdict=verdict)
    if verdict != "no-probe":
        hc.confirmation = confirm_candidate(
            [8, 16], [0.0, top], min_symptom=20.0)
    return hc


class TestReport:
    def test_ranking_confirmed_first_biggest_symptom_first(self):
        report = HuntReport(
            targets=["t"], scales=[8, 16], hdfs_scales=[8], seed=1,
            candidates=[
                _hunted("m.a", "small", "confirmed", top=50.0),
                _hunted("m.b", "none", "no-probe"),
                _hunted("m.c", "big", "confirmed", top=500.0),
                _hunted("m.d", "quiet", "refuted", top=1.0),
            ],
        ).finalize()
        order = [hc.candidate.function for hc in report.candidates]
        assert order == ["big", "small", "quiet", "none"]
        assert [hc.rank for hc in report.candidates] == [1, 2, 3, 4]

    def test_json_form_is_deterministic_and_tagged(self):
        report = HuntReport(targets=["t"], scales=[8], hdfs_scales=[8],
                            seed=1, candidates=[]).finalize()
        first, second = report.to_json(), report.to_json()
        assert first == second
        data = json.loads(first)
        assert data["format"] == "repro-hunt-report-v1"
        assert data["summary"]["candidates"] == 0


# -- pipeline plumbing (stubbed sweeps: no simulation cost) --------------------


class TestPipelineStubbed:
    @pytest.fixture
    def stubbed(self, monkeypatch):
        from repro.hunt import pipeline

        def fake_sweep(bug_ids, scales, seed, config, params=None):
            real, colo = {}, {}
            for bug in bug_ids:
                buggy = not bug.endswith("-fixed")
                stage = ("namenode-queue" if bug == HDFS_BUG_ID
                         else "gossip-stage-queue")
                real[bug] = {
                    n: _report(100 if buggy and n == scales[-1] else 0,
                               {stage: 1.0})
                    for n in scales}
                # retryamp's symptom lives in extra.collateral_flaps.
                for n in scales:
                    real[bug][n]["extra"] = {
                        "collateral_flaps": float(real[bug][n]["flaps"])}
                colo[bug] = _report(140 if buggy else 0, {stage: 60.0})
            return real, colo

        monkeypatch.setattr(pipeline, "_sweep", fake_sweep)

    def test_full_pipeline_over_stub_dynamics(self, stubbed):
        report = run_hunt(HuntConfig())
        report.self_check = self_check(report)
        assert report.self_check_ok, report.to_text()
        confirmed = set(report.confirmed_bug_ids)
        assert set(PLANTED_BUG_CHECKS) <= confirmed
        refuted = {hc.candidate.probe.bug_id
                   for hc in report.by_verdict("refuted")
                   if hc.candidate.probe is not None}
        assert set(EXPECTED_REFUTED) <= refuted
        assert report.by_verdict("no-probe")  # taint echoes stay listed

    def test_self_check_fails_when_a_planted_bug_is_missed(self, stubbed):
        report = run_hunt(HuntConfig())
        report.candidates = [hc for hc in report.candidates
                             if not (hc.candidate.probe is not None
                                     and hc.candidate.probe.bug_id
                                     == "zkclose")]
        checks = self_check(report)
        failed = [c for c in checks if not c["ok"]]
        assert len(failed) == 1
        assert "zkclose" in failed[0]["check"]

    def test_hunt_without_candidates_yields_empty_report(self):
        # The kernel package: no rule that makes a candidate fires there.
        report = run_hunt(HuntConfig(targets=("repro.sim",)))
        assert report.candidates == []
        assert report.to_json_dict()["summary"]["confirmed"] == 0


# -- CLI wiring ----------------------------------------------------------------


class TestCli:
    def test_hunt_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["hunt", "--self-check"])
        assert args.self_check
        assert args.targets == ["repro.cassandra", "repro.hdfs"]
        assert args.hdfs_scales == [8, 16, 32, 64]
        assert args.func.__name__ == "_cmd_hunt"


# -- the real thing (CI hunt job: pytest -m hunt) ------------------------------


@pytest.mark.hunt
class TestHuntEndToEnd:
    def test_hunt_rediscovers_the_grown_corpus(self, tmp_path):
        cache_dir = os.environ.get("REPRO_HUNT_CACHE",
                                   str(tmp_path / "hunt-cache"))
        config = HuntConfig(cache_dir=cache_dir,
                            workers=min(4, os.cpu_count() or 1))
        first = run_hunt(config)
        first.self_check = self_check(first)
        assert first.self_check_ok, first.to_text()
        assert set(PLANTED_BUG_CHECKS) <= set(first.confirmed_bug_ids)
        refuted = {hc.candidate.probe.bug_id
                   for hc in first.by_verdict("refuted")
                   if hc.candidate.probe is not None}
        assert set(EXPECTED_REFUTED) <= refuted
        # A re-hunt is served warm from the sweep cache and serializes to
        # the byte-identical report.
        second = run_hunt(config)
        second.self_check = self_check(second)
        assert second.to_json() == first.to_json()
