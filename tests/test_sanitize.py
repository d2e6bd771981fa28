"""The hybrid sanitizer end to end: static pass, planted races, pipeline.

Fast halves run in tier-1: the static shared-state classifier over
fixture programs, the planted-race scenarios (both bugs and both
controls), tracker accounting, instrumentation wrappers, and the
sanitizer-off determinism guarantee.  The instrumented real-cluster
ladder and CLI round-trips carry the ``sanitize`` marker (the CI
sanitize job runs them; tier-1 deselects them).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import Program
from repro.analysis.shared import (
    check_dead_annotations,
    check_shared_state,
    find_process_roots,
    harvest_shared_state,
)
from repro.sanitize import RaceTracker, TrackedMap, TrackedSeq, TrackedSet
from repro.sanitize.selfcheck import (
    hint_store_scenario,
    planted_ladders,
    ring_mutation_scenario,
    self_check,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


# -- static pass -------------------------------------------------------------------

UNDECLARED_SRC = '''\
class Store:
    def __init__(self):
        self.items = {}

    def start(self, sim):
        sim.spawn(self._writer(), name="w")
        sim.spawn(self._reader(), name="r")

    def _writer(self):
        while True:
            self.items["k"] = 1
            yield 1

    def _reader(self):
        while True:
            n = len(self.items)
            yield n
'''

DECLARED_SRC = '''\
from repro.annotations import lock_protects

lock_protects("store_lock", "items")


class Store:
    def __init__(self):
        self.items = {}
        self.store_lock = Lock(None, name="store_lock")

    def start(self, sim):
        sim.spawn(self._writer(), name="w")
        sim.spawn(self._reader(), name="r")

    def _writer(self):
        while True:
            yield Acquire(self.store_lock)
            self.items["k"] = 1
            self.store_lock.release()
            yield 1

    def _reader(self):
        while True:
            yield Acquire(self.store_lock)
            n = len(self.items)
            self.store_lock.release()
            yield n
'''

PRIVATE_SRC = '''\
class Store:
    def __init__(self):
        self.items = {}

    def start(self, sim):
        sim.spawn(self._writer(), name="w")
        sim.spawn(self._idle(), name="i")

    def _writer(self):
        while True:
            self.items["k"] = 1
            yield 1

    def _idle(self):
        while True:
            yield 0
'''


class TestStaticPass:
    def test_undeclared_shared_site_classified_and_flagged(self):
        program = Program.from_sources({"fix.store": UNDECLARED_SRC})
        report = harvest_shared_state(program)
        sites = report.shared("undeclared-shared")
        assert [f"{s.cls}.{s.attr}" for s in sites] == ["Store.items"]
        assert sites[0].writes >= 1 and sites[0].reads >= 1
        findings = check_shared_state(program)
        assert len(findings) == 1
        assert findings[0].rule == "undeclared-shared-state"

    def test_declared_site_produces_no_finding(self):
        program = Program.from_sources({"fix.store": DECLARED_SRC})
        report = harvest_shared_state(program)
        declared = report.shared("declared")
        assert [f"{s.cls}.{s.attr}" for s in declared] == ["Store.items"]
        assert declared[0].lock == "store_lock"
        assert check_shared_state(program) == []

    def test_single_root_structure_stays_private(self):
        program = Program.from_sources({"fix.store": PRIVATE_SRC})
        report = harvest_shared_state(program)
        assert report.shared() == []
        assert report.private >= 1

    def test_process_roots_found_from_spawn_calls(self):
        program = Program.from_sources({"fix.store": UNDECLARED_SRC})
        roots = find_process_roots(program)
        assert sorted(f for _, f in roots) == ["_reader", "_writer"]

    def test_dead_annotation_flagged_and_live_one_exempt(self):
        stale = UNDECLARED_SRC + (
            "\nfrom repro.annotations import lock_protects\n"
            "\nlock_protects(\"stale_lock\", \"items\")\n")
        program = Program.from_sources({"fix.store": stale})
        findings = check_dead_annotations(program)
        assert len(findings) == 1
        assert findings[0].rule == "dead-lock-annotation"
        assert "stale_lock" in findings[0].detail
        live = Program.from_sources({"fix.store": DECLARED_SRC})
        assert check_dead_annotations(live) == []

    def test_real_tree_fires_on_known_sites(self):
        """Acceptance: the rule fires on real undeclared-shared sites."""
        program = Program.load(["repro.cassandra", "repro.hdfs",
                                "repro.workload"])
        findings = check_shared_state(program)
        details = {f.detail for f in findings}
        assert "Gossiper.endpoint_state_map" in details
        assert "TokenMetadata.pending_ranges" in details
        assert len(findings) >= 10


# -- tracker + instrumentation -----------------------------------------------------


class TestTrackerAccounting:
    def test_accesses_outside_process_context_are_ignored(self):
        tracker = RaceTracker()
        tracked = TrackedMap(tracker, "site")
        tracked["k"] = 1
        assert tracked["k"] == 1
        assert tracker.accesses == 0

    def test_wrappers_preserve_container_semantics(self):
        tracker = RaceTracker()
        mapping = TrackedMap(tracker, "m", {"a": 1})
        seq = TrackedSeq(tracker, "s", [3, 1, 2])
        values = TrackedSet(tracker, "t", {1, 2})
        assert isinstance(mapping, dict) and mapping["a"] == 1
        mapping["b"] = 2
        assert sorted(mapping.items()) == [("a", 1), ("b", 2)]
        seq.sort()
        assert list(seq) == [1, 2, 3] and isinstance(seq, list)
        values.add(3)
        assert values == {1, 2, 3} and isinstance(values, set)

    def test_gossip_state_map_is_tracked_through_its_columns(self):
        """The map's rows live in columns no container wrapper sees: the
        store reports for itself, under the key a wrapped dict would get.
        Joiners make the gossip stage materialize rows mid-run (writes)
        while the gossip task sizes its SYNs from the map (reads)."""
        from repro.cassandra.cluster import Cluster, ClusterConfig, Mode
        from repro.cassandra.workloads import ScenarioParams, run_workload
        from repro.sanitize import instrument_cluster

        sites = harvest_shared_state(
            Program.load(["repro.cassandra"])).shared()
        config = ClusterConfig.for_bug("c3881", nodes=8, mode=Mode.REAL,
                                       seed=42)
        tracker = RaceTracker()
        cluster = Cluster(config, race_tracker=tracker)
        wrapped = instrument_cluster(cluster, sites, tracker)
        run_workload(cluster, config.bug.workload,
                     ScenarioParams(warmup=2.0, observe=5.0,
                                    join_duration=2.0, join_stagger=0.5))
        assert len(cluster.nodes) > 8        # somebody joined
        for node_id in cluster.nodes:        # joiners are hooked as built
            key = f"Gossiper.endpoint_state_map@{node_id}"
            assert key in wrapped
            assert tracker.sites[key].reads and tracker.sites[key].writes

    def test_race_pairs_deduplicate_per_site_pair(self):
        tracker = ring_mutation_scenario(mutators=4, rounds=3)
        # 3 rounds of all-pairs conflicts still count each pair once.
        assert tracker.race_pairs == 4 * 3 // 2

    def test_metrics_and_detail_are_deterministic(self):
        first = hint_store_scenario().to_dict()
        second = hint_store_scenario().to_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True)


class TestPlantedRaces:
    def test_atomicity_bug_found_and_control_clean(self):
        torn = hint_store_scenario()
        assert torn.race_pairs > 0
        assert len(torn.forced_release_records) > 0
        assert "StorageService.hints" in torn.site_races
        control = hint_store_scenario(interrupt=False)
        assert control.race_pairs == 0
        assert control.accesses > 0

    def test_ring_bug_quadratic_and_control_clean(self):
        counts = {n: ring_mutation_scenario(mutators=n).race_pairs
                  for n in (4, 8, 16)}
        assert counts == {4: 6, 8: 28, 16: 120}     # C(n, 2): superlinear
        control = ring_mutation_scenario(mutators=8, locked=True)
        assert control.race_pairs == 0

    def test_planted_ladders_shape(self):
        ladders = planted_ladders(scales=(4, 8), seed=42)
        assert set(ladders) == {"atomicity", "undeclared"}
        assert ladders["undeclared"] == {4: 6, 8: 28}
        assert ladders["atomicity"][8] >= ladders["atomicity"][4] > 0

    def test_self_check_all_green(self):
        checks = self_check()
        assert [c["check"] for c in checks if not c["ok"]] == []
        assert len(checks) == 7


# -- sanitizer-off invariants ------------------------------------------------------


class TestZeroCostDisabled:
    def test_kernel_has_no_tracker_by_default(self):
        from repro.sim.kernel import Simulator

        sim = Simulator(seed=1)
        assert sim.race_tracker is None

    def test_cluster_report_has_no_race_extras_without_tracker(self):
        from repro.cassandra.cluster import Cluster, ClusterConfig, Mode
        from repro.cassandra.workloads import ScenarioParams, run_workload

        config = ClusterConfig.for_bug("c3831", nodes=4, mode=Mode.REAL,
                                       seed=7)
        cluster = Cluster(config)
        params = ScenarioParams(warmup=1.0, observe=2.0,
                                leaving_duration=1.0, join_duration=1.0,
                                join_stagger=0.5)
        report = run_workload(cluster, config.bug.workload, params)
        assert "race_pairs" not in report.extra


class TestSanitizerDifferential:
    """Attaching the tracker must not change a single scheduling decision."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_event_trace_and_report_identical_with_tracker(self, seed):
        from repro.analysis.shared import harvest_shared_state
        from repro.cassandra.cluster import Cluster, ClusterConfig, Mode
        from repro.cassandra.workloads import ScenarioParams, run_workload
        from repro.sanitize import instrument_cluster

        params = ScenarioParams(warmup=2.0, observe=5.0,
                                leaving_duration=2.0, join_duration=2.0,
                                join_stagger=0.5)

        def run(sanitized):
            config = ClusterConfig.for_bug("c3831", nodes=8, mode=Mode.REAL,
                                           seed=seed)
            tracker = RaceTracker() if sanitized else None
            cluster = Cluster(config, race_tracker=tracker)
            cluster.sim.trace.enabled = True
            if sanitized:
                program = Program.load(["repro.cassandra", "repro.hdfs",
                                        "repro.workload"])
                instrument_cluster(
                    cluster, harvest_shared_state(program).shared(), tracker)
            report = run_workload(cluster, config.bug.workload, params)
            return cluster, report

        plain_cluster, plain_report = run(sanitized=False)
        traced_cluster, traced_report = run(sanitized=True)
        plain_trace = [(r.time, r.kind, r.subject)
                       for r in plain_cluster.sim.trace]
        traced_trace = [(r.time, r.kind, r.subject)
                        for r in traced_cluster.sim.trace]
        assert plain_trace == traced_trace
        assert len(plain_trace) > 0
        assert plain_cluster.sim.steps == traced_cluster.sim.steps
        assert (plain_cluster.network.delivery_log
                == traced_cluster.network.delivery_log)
        plain = plain_report.to_dict()
        traced = traced_report.to_dict()
        for data in (plain, traced):
            data.pop("wall_seconds", None)
            data.get("extra", {}).pop("race_pairs", None)
            data.get("extra", {}).pop("race_sites", None)
            data.get("extra", {}).pop("race_accesses", None)
            data.get("extra", {}).pop("race_forced_releases", None)
        assert (json.dumps(plain, sort_keys=True)
                == json.dumps(traced, sort_keys=True))


# -- instrumented ladder + CLI (CI sanitize job) -----------------------------------


@pytest.mark.sanitize
class TestSanitizePipeline:
    def test_ladder_classifies_superlinear_and_caches_byte_identical(
            self, tmp_path):
        from repro.sanitize import SanitizeConfig, run_sanitize

        config = SanitizeConfig(scales=(8, 16), cache_dir=str(tmp_path))
        cold = run_sanitize(config)
        assert len(cold.wrapped) > 10
        pairs = [p["metrics"]["race_pairs"] for p in cold.ladder]
        assert pairs[1] > pairs[0] > 0
        assert cold.curves["race_pairs"]["classification"] in (
            "superlinear", "linear", "threshold")
        warm = run_sanitize(config)
        assert warm.to_json() == cold.to_json()

    def test_race_metrics_exported_through_run_report_and_obs(self):
        from repro.analysis.shared import harvest_shared_state
        from repro.cassandra.cluster import Cluster, ClusterConfig, Mode
        from repro.cassandra.workloads import ScenarioParams, run_workload
        from repro.obs.collect import ClusterCollector
        from repro.sanitize import instrument_cluster

        program = Program.load(["repro.cassandra", "repro.hdfs",
                                "repro.workload"])
        sites = harvest_shared_state(program).shared()
        config = ClusterConfig.for_bug("c3831", nodes=8, mode=Mode.REAL,
                                       seed=42)
        tracker = RaceTracker()
        cluster = Cluster(config, race_tracker=tracker)
        instrument_cluster(cluster, sites, tracker)
        params = ScenarioParams(warmup=2.0, observe=5.0,
                                leaving_duration=2.0, join_duration=2.0,
                                join_stagger=0.5)
        report = run_workload(cluster, config.bug.workload, params)
        assert report.extra["race_pairs"] == float(tracker.race_pairs)
        assert report.extra["race_pairs"] > 0
        collector = ClusterCollector(cluster)
        snapshot = collector.collect()
        assert snapshot.get("race.pairs") == tracker.race_pairs

    def test_cli_self_check_exit_codes(self, tmp_path):
        env_cmd = [sys.executable, "-m", "repro.cli", "sanitize",
                   "--static-only", "--self-check", "--format", "json"]
        result = subprocess.run(
            env_cmd, capture_output=True, text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["format"] == "repro-sanitize-report-v1"
        assert all(c["ok"] for c in payload["self_check"])

    def test_cli_sarif_lists_both_new_rules(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "sanitize", "--static-only",
             "--format", "sarif"],
            capture_output=True, text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        rules = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert "undeclared-shared-state" in rules
        driver = doc["runs"][0]["tool"]["driver"]["name"]
        assert driver == "repro-sanitize"
