"""Tests for repro.analysis: the whole-program scalability linter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    Program,
    Term,
    harvest_annotations,
    level_axis,
    load_baseline,
    maximal,
    primary,
    run_lint,
    run_rules,
    self_check,
    to_sarif_dict,
    write_baseline,
)
from repro.annotations import AnnotationRegistry
from repro.obs import record_lint_findings

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_PKG = Path(__file__).parent / "fixtures" / "lintpkg"
GOLDEN = Path(__file__).parent / "fixtures" / "lintpkg_golden.json"
BASELINE = REPO_ROOT / "lint-baseline.json"


def findings_by(findings, rule=None, function=None):
    return [
        f for f in findings
        if (rule is None or f.rule == rule)
        and (function is None or f.function == function)
    ]


# -- term algebra -------------------------------------------------------------------


class TestTerm:
    def test_render_named_axes(self):
        assert Term.from_degrees({"M": 1, "N": 3}).render() == "O(M·N^3)"
        assert Term.from_degrees({"T": 1}).render() == "O(T)"
        assert Term.from_degrees({}).render() == "O(1)"

    def test_render_unnamed_falls_back_to_generic_n(self):
        assert Term.from_degrees({"": 2}).render() == "O(N^2)"

    def test_render_summed_level_axis_parenthesized(self):
        term = Term.from_chain([("M", "T"), ("T",)])
        assert term.render() == "O((M+T)·T)"

    def test_mul_adds_exponents(self):
        product = Term.from_degrees({"M": 1}).mul(Term.from_degrees({"T": 2}))
        assert product.as_dict() == {"M": 1, "T": 2}
        assert product.total() == 3

    def test_level_axis_sums_multi_axis_levels(self):
        assert level_axis(["T", "M"]) == "M+T"
        assert level_axis([]) == ""

    def test_maximal_prunes_dominated_terms(self):
        big = Term.from_degrees({"T": 2})
        small = Term.from_degrees({"T": 1})
        other = Term.from_degrees({"M": 1, "T": 1})
        kept = maximal([big, small, other])
        assert big in kept and other in kept and small not in kept

    def test_primary_prefers_higher_total_then_label(self):
        assert primary([Term.from_degrees({"M": 1, "T": 1}),
                        Term.from_degrees({"T": 2})]).render() == "O(T^2)"


# -- annotation harvest -------------------------------------------------------------


class TestHarvest:
    def test_call_forms_registered_statically(self):
        import ast
        registry = AnnotationRegistry()
        count = harvest_annotations(ast.parse(
            'scale_dependent("ring", "ring2", var="T")\n'
            'lock_protects("lk", "ring", note="x")\n'
            'declare_cost("charge", M=1, T=2)\n'
        ), registry)
        assert count == 4
        assert registry.axis_vars_for("ring") == frozenset({"T"})
        assert registry.lock_for("ring") == "lk"
        assert registry.cost_degrees("charge") == {"M": 1, "T": 2}

    def test_decorator_form_registers_class_name(self):
        import ast
        registry = AnnotationRegistry()
        harvest_annotations(ast.parse(
            '@scale_dependent("tokens", var="T")\n'
            'class Ring:\n'
            '    pass\n'
        ), registry)
        assert registry.is_scale_dependent("tokens")
        assert registry.is_scale_dependent("Ring")

    def test_pil_overrides_are_harvested_from_decorators(self):
        source = (
            "from repro.annotations import pil_safe, pil_unsafe, "
            "scale_dependent\n"
            "scale_dependent('ring', var='T')\n"
            "@pil_unsafe\n"
            "def square(ring):\n"
            "    out = []\n"
            "    for a in ring:\n"
            "        for b in ring:\n"
            "            out.append((a, b))\n"
            "    return out\n"
            "class Probe:\n"
            "    @pil_safe\n"
            "    def shout(self, ring):\n"
            "        for a in ring:\n"
            "            for b in ring:\n"
            "                print(a, b)\n"
            "        return 1\n"
        )
        program = Program.from_sources({"m": source})
        registry = program.registry
        assert registry.pil_safety_override("square") is False
        assert registry.pil_safety_override("Probe.shout") is True
        report = program.modules["m"].report
        assert [f.name for f in report.pil_candidates()] == ["shout"]

    def test_lint_never_imports_targets(self, tmp_path):
        victim = tmp_path / "boom.py"
        victim.write_text(
            'raise RuntimeError("imported!")\n'
            'scale_dependent("ring", var="T")\n'
        )
        program = Program.load([str(victim)])
        assert "boom" in program.modules  # parsed, not executed


# -- cross-module linking -----------------------------------------------------------


CROSS_MODULE_SOURCES = {
    "pkg.amod": (
        'scale_dependent("ring", var="T")\n'
        "def walk_all(ring):\n"
        "    total = 0\n"
        "    for a in ring:\n"
        "        for b in ring:\n"
        "            total += 1\n"
        "    return total\n"
    ),
    "pkg.bmod": (
        'scale_dependent("changes", var="M")\n'
        "from .amod import walk_all\n"
        "def per_change(ring, changes):\n"
        "    out = []\n"
        "    for change in changes:\n"
        "        out.append(walk_all(ring))\n"
        "    return out\n"
    ),
}


class TestProgram:
    def test_terms_cross_module_boundaries(self):
        program = Program.from_sources(CROSS_MODULE_SOURCES)
        terms = program.function(("pkg.bmod", "per_change")).effective_terms
        assert [t.render() for t in terms] == ["O(M·T^2)"]

    def test_resolve_call_through_import_from(self):
        program = Program.from_sources(CROSS_MODULE_SOURCES)
        assert program.resolve_call("pkg.bmod", "walk_all") == \
            ("pkg.amod", "walk_all")
        assert program.resolve_call("pkg.bmod", "missing") is None

    def test_declared_cost_bridges_arithmetic_charges(self):
        program = Program.from_sources({
            "m": (
                'scale_dependent("changes", var="M")\n'
                'declare_cost("charge", T=2)\n'
                "def top(changes):\n"
                "    demand = 0\n"
                "    for c in changes:\n"
                "        demand += charge(c)\n"
                "    return demand\n"
            ),
        })
        terms = program.function(("m", "top")).effective_terms
        assert [t.render() for t in terms] == ["O(M·T^2)"]

    def test_load_by_package_name(self):
        program = Program.load(["repro.cassandra"])
        assert "repro.cassandra.node" in program.modules
        assert "repro.cassandra.legacy_calc" in program.modules


# -- lock-discipline checker --------------------------------------------------------


LOCK_PRELUDE = (
    'scale_dependent("table", var="T")\n'
    'lock_protects("mtx", "table")\n'
)


def lock_findings(body):
    program = Program.from_sources({"m": LOCK_PRELUDE + body})
    findings, _drift = run_rules(program)
    return [f for f in findings
            if f.rule in ("lock-held-scale-work", "unlocked-access")]


class TestLockChecker:
    def test_scale_loop_under_lock_is_an_error(self):
        found = lock_findings(
            "class C:\n"
            "    def rebuild(self):\n"
            "        self.mtx.acquire()\n"
            "        n = 0\n"
            "        for a in self.table:\n"
            "            for b in self.table:\n"
            "                n += 1\n"
            "        self.mtx.release()\n"
            "        return n\n"
        )
        assert [(f.rule, f.severity) for f in found] == \
            [("lock-held-scale-work", "error")]
        assert "O(T^2)" in found[0].message

    def test_release_before_work_is_clean(self):
        found = lock_findings(
            "class C:\n"
            "    def rebuild(self):\n"
            "        self.mtx.acquire()\n"
            "        snapshot = list(self.table)\n"
            "        self.mtx.release()\n"
            "        n = 0\n"
            "        for a in snapshot:\n"
            "            for b in snapshot:\n"
            "                n += 1\n"
            "        return n\n"
        )
        assert findings_by(found, rule="lock-held-scale-work") == []

    def test_unlocked_access_flagged_but_init_exempt(self):
        found = lock_findings(
            "class C:\n"
            "    def __init__(self):\n"
            "        self.table = {}\n"
            "    def peek(self):\n"
            "        return len(self.table)\n"
        )
        assert [(f.rule, f.function) for f in found] == \
            [("unlocked-access", "peek")]

    def test_helper_called_only_under_lock_is_exempt(self):
        found = lock_findings(
            "class C:\n"
            "    def update(self, k, v):\n"
            "        self.mtx.acquire()\n"
            "        self._install(k, v)\n"
            "        self.mtx.release()\n"
            "    def _install(self, k, v):\n"
            "        self.table[k] = v\n"
        )
        assert found == []

    def test_helper_with_one_unlocked_caller_is_flagged(self):
        found = lock_findings(
            "class C:\n"
            "    def update(self, k, v):\n"
            "        self.mtx.acquire()\n"
            "        self._install(k, v)\n"
            "        self.mtx.release()\n"
            "    def sneak(self, k, v):\n"
            "        self._install(k, v)\n"
            "    def _install(self, k, v):\n"
            "        self.table[k] = v\n"
        )
        assert [(f.rule, f.function) for f in found] == \
            [("unlocked-access", "_install")]

    def test_with_statement_counts_as_held(self):
        found = lock_findings(
            "class C:\n"
            "    def peek(self):\n"
            "        with self.mtx:\n"
            "            return len(self.table)\n"
        )
        assert found == []

    def test_branch_fork_joins_on_intersection(self):
        # Lock acquired on only one branch: after the join it is NOT held.
        found = lock_findings(
            "class C:\n"
            "    def maybe(self, flag):\n"
            "        if flag:\n"
            "            self.mtx.acquire()\n"
            "        value = len(self.table)\n"
            "        if flag:\n"
            "            self.mtx.release()\n"
            "        return value\n"
        )
        assert [(f.rule, f.function) for f in found] == \
            [("unlocked-access", "maybe")]

    def test_alias_of_protected_structure_tracked(self):
        found = lock_findings(
            "class C:\n"
            "    def read(self):\n"
            "        snapshot = self.table\n"
            "        return len(snapshot)\n"
        )
        assert [f.function for f in found] == ["read"]

    def test_yield_acquire_kernel_idiom(self):
        found = lock_findings(
            "class C:\n"
            "    def stage(self):\n"
            "        yield Acquire(self.mtx)\n"
            "        n = 0\n"
            "        for a in self.table:\n"
            "            for b in self.table:\n"
            "                n += 1\n"
            "        self.mtx.release()\n"
            "        return n\n"
        )
        assert findings_by(found, rule="lock-held-scale-work")


# -- the real tree: bug rediscovery -------------------------------------------------


class TestRealTree:
    @pytest.fixture(scope="class")
    def report(self):
        report = run_lint(baseline_path=str(BASELINE))
        report.self_check = self_check(report)
        return report

    def test_self_check_rediscovers_all_bug_paths(self, report):
        assert report.self_check is not None
        failures = [c for c in report.self_check if not c["ok"]]
        assert failures == []
        names = " ".join(c["check"] for c in report.self_check)
        for bug in ("C3831", "C3881", "C5456", "C6127", "HDFS"):
            assert bug in names

    def test_baseline_suppresses_every_intentional_finding(self, report):
        assert report.findings == []
        assert report.suppressed == len(report.raw_findings) > 0

    def test_c5456_found_from_source_alone(self, report):
        found = findings_by(report.raw_findings, rule="lock-held-scale-work",
                            function="_calc_stage")
        assert len(found) == 1
        assert found[0].severity == "error"
        assert "ring_lock" in found[0].message
        assert "O(M·T^2)" in found[0].message

    def test_clone_fix_path_not_flagged(self, report):
        # The CLONE branch calculates after releasing: exactly one
        # lock-held-scale-work finding on _calc_stage (the coarse branch).
        found = findings_by(report.raw_findings, rule="lock-held-scale-work")
        calc_stage = [f for f in found if f.function == "_calc_stage"]
        assert len(calc_stage) == 1

    def test_variant_labels_match_modeled_cost_classes(self, report):
        inferred = {v["function"]: (v["expected"], v["ok"])
                    for v in report.drift}
        assert inferred["calc_v0_c3831"] == ("O(M·N^3)", True)
        assert inferred["calc_v1_c3881"] == ("O(M·T^2)", True)
        assert inferred["calc_v2_vnode_fix"] == ("O(M·T)", True)
        assert inferred["calc_v3_bootstrap_c6127"] == ("O(M·T^2)", True)
        assert all(ok for _expected, ok in inferred.values())

    def test_hdfs_block_report_flagged_under_fsn_lock(self, report):
        found = findings_by(report.raw_findings, rule="lock-held-scale-work",
                            function="_handle_block_report")
        assert found
        assert all("fsn_lock" in f.message and "O(B)" in f.message
                   for f in found)


# -- baseline mechanics -------------------------------------------------------------


class TestBaseline:
    def test_roundtrip_and_suppression(self, tmp_path):
        path = tmp_path / "baseline.json"
        report = run_lint(targets=[str(FIXTURE_PKG)], baseline_path=None)
        assert report.findings
        write_baseline(str(path), report.raw_findings)
        loaded = load_baseline(str(path))
        assert len(loaded) == len(report.raw_findings)
        again = run_lint(targets=[str(FIXTURE_PKG)],
                         baseline_path=str(path))
        assert again.findings == []
        assert again.suppressed == len(report.raw_findings)

    def test_fingerprints_survive_line_moves(self):
        a = Finding(rule="r", severity="warning", module="m", function="f",
                    lineno=10, message="x", detail="d")
        b = Finding(rule="r", severity="warning", module="m", function="f",
                    lineno=99, message="moved", detail="d")
        assert a.fingerprint == b.fingerprint

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) == {}


# -- golden output (S4) -------------------------------------------------------------


def fixture_report():
    report = run_lint(targets=[str(FIXTURE_PKG)], baseline_path=None)
    report.targets = ["lintpkg"]  # normalize the machine-specific path
    return report


class TestGolden:
    def test_json_matches_golden_byte_for_byte(self):
        assert fixture_report().to_json() == GOLDEN.read_text()

    def test_repeated_runs_identical_in_process(self):
        assert fixture_report().to_json() == fixture_report().to_json()

    def test_fresh_interpreters_agree_with_golden(self):
        script = (
            "import sys, json\n"
            "from repro.analysis import run_lint\n"
            "report = run_lint(targets=[sys.argv[1]], baseline_path=None)\n"
            "report.targets = ['lintpkg']\n"
            "sys.stdout.write(report.to_json())\n"
        )
        outputs = []
        for hashseed in ("1", "271828"):
            env = dict(os.environ)
            env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + \
                env.get("PYTHONPATH", "")
            env["PYTHONHASHSEED"] = hashseed
            proc = subprocess.run(
                [sys.executable, "-c", script, str(FIXTURE_PKG)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == GOLDEN.read_text()

    def test_golden_covers_every_rule_shape(self):
        data = json.loads(GOLDEN.read_text())
        rules = {f["rule"] for f in data["findings"]}
        assert rules == {"scale-complexity", "pil-unsafe-offender",
                         "nondeterminism", "lock-held-scale-work",
                         "unlocked-access"}
        by_function = {f["function"]: f for f in data["findings"]
                       if f["rule"] == "scale-complexity"}
        assert "O(M·T^2)" in by_function["pending_gains"]["message"]
        assert "O(N^2)" in by_function["legacy_scan"]["message"]
        assert "fresh_start" in by_function["guarded_rebuild"]["message"]


# -- output formats -----------------------------------------------------------------


class TestFormats:
    def test_sarif_shape(self):
        sarif = to_sarif_dict(fixture_report())
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        results = run["results"]
        assert results
        uris = {r["locations"][0]["physicalLocation"]["artifactLocation"]
                ["uri"] for r in results}
        assert "src/lintpkg/ringmod.py" in uris
        assert all(not u.startswith("/") for u in uris)
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {r["ruleId"] for r in results} == rule_ids

    def test_text_report_lists_findings(self):
        text = fixture_report().to_text()
        assert "repro lint" in text
        assert "lock-held-scale-work" in text


# -- obs bridge ---------------------------------------------------------------------


def test_record_lint_findings_counters():
    registry = record_lint_findings(fixture_report().findings, suppressed=3)
    snapshot = registry.snapshot()
    errors = snapshot.get(
        "lint.findings{rule=scale-complexity,severity=error}")
    assert errors and errors > 0
    assert snapshot.get("lint.suppressed") == 3
