"""Tests for the parallel sweep engine, its caches, and the CLI front-end."""

import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.canonical import canonical_json, sha256_hex
from repro.cassandra.metrics import RunReport, accuracy_error
from repro.cli import main
from repro.core.memoization import MemoDB
from repro.core.report import render_sweep_summary
from repro.core.scalecheck import ReplayResult, ScaleCheck, ScaleCheckResult
from repro.sweep import (
    CACHE_SCHEMA,
    SweepCache,
    SweepPoint,
    SweepSpec,
    result_key,
    run_sweep,
)
from repro.sweep.executor import PointResult

NODES = 8
REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def small_spec(**overrides):
    kwargs = dict(bugs=["c3831"], scales=[NODES], seeds=[1],
                  modes=["colo", "pil"])
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


# -- engine -------------------------------------------------------------------


def test_cold_sweep_executes_every_point(tmp_path):
    summary = run_sweep(small_spec(), cache_dir=tmp_path)
    assert summary.executed == 2 and summary.cached == 0
    assert summary.memo_built == 1          # colo + pil share one recording
    assert [r.point.mode for r in summary.results] == ["colo", "pil"]
    assert all(r.report["flaps"] >= 0 for r in summary.results)


def test_warm_sweep_executes_nothing_and_renders_identically(tmp_path):
    cold = run_sweep(small_spec(), cache_dir=tmp_path)
    warm = run_sweep(small_spec(), cache_dir=tmp_path)
    assert warm.executed == 0 and warm.cached == 2
    assert warm.memo_built == 0
    assert warm.table() == cold.table()
    for a, b in zip(cold.results, warm.results):
        assert a.key == b.key
        assert a.report == b.report
        assert a.replay == b.replay


def test_corrupt_result_entries_are_recomputed_and_counted(tmp_path):
    """A truncated or damaged result file is a counted miss, not a crash."""
    spec = small_spec(seeds=[1, 2])
    cold = run_sweep(spec, cache_dir=tmp_path)
    assert cold.executed == 4
    damaged = [cold.results[0], cold.results[3]]
    assert {r.point.mode for r in damaged} == {"colo", "pil"}
    paths = [tmp_path / "results" / f"{r.key}.json" for r in damaged]
    raw = paths[0].read_bytes()
    paths[0].write_bytes(raw[:len(raw) // 2])
    paths[1].write_text("[]")

    warm = run_sweep(spec, cache_dir=tmp_path)
    assert [r.point for r in warm.results if not r.cached] == [
        r.point for r in damaged]
    assert warm.cache_stats["corrupt"] == 2
    assert warm.table() == cold.table()

    again = run_sweep(spec, cache_dir=tmp_path)     # put() overwrote them
    assert again.executed == 0 and again.cache_stats["corrupt"] == 0


def damage_recording(db_path, damage):
    """Overwrite a saved recording so it no longer matches its sidecar."""
    raw = db_path.read_text()
    if damage == "truncated":
        db_path.write_text(raw[:len(raw) // 2])
    elif damage == "wrong-shape":
        db_path.write_text("[]")
    elif damage == "empty":
        db_path.write_text("{}")            # loads as an empty MemoDB
    else:                                   # a valid recording, other content
        db = MemoDB.load(db_path)
        db.put("other.func", "other-key", 1, 0.5)
        db.save(db_path)


@pytest.mark.parametrize("damage", ["truncated", "wrong-shape", "empty",
                                    "other-content"])
def test_corrupt_recordings_are_rerecorded_and_counted(tmp_path, damage):
    """A MemoDB that fails to load, or whose content no longer matches the
    digest sidecar that survived it, is re-recorded."""
    spec = small_spec(modes=["pil"])
    cold = run_sweep(spec, cache_dir=tmp_path)
    (db_path,) = (tmp_path / "memo").glob("*.json")
    raw = db_path.read_text()
    damage_recording(db_path, damage)
    shutil.rmtree(tmp_path / "results")

    warm = run_sweep(spec, cache_dir=tmp_path)
    assert warm.memo_built == 1 and warm.executed == 1
    assert (warm.cache_stats["corrupt"], warm.cache_stats["stale"]) == (1, 0)
    assert warm.table() == cold.table()
    assert db_path.read_text() == raw               # overwritten in place

    again = run_sweep(spec, cache_dir=tmp_path)
    assert again.executed == 0 and again.cache_stats["corrupt"] == 0


def test_a_recording_in_an_older_format_is_rerecorded(tmp_path):
    """A recording whose payload carries a key this version no longer
    writes (``"strict"``, dropped with the strict mode) is stale: its digest
    sidecar matches the file, but it loads to other content.  It is counted
    stale, not corrupt, and re-recorded, never replayed."""
    spec = small_spec(modes=["pil"])
    cold = run_sweep(spec, cache_dir=tmp_path)
    (db_path,) = (tmp_path / "memo").glob("*.json")
    raw = db_path.read_text()
    stale = dict(json.loads(raw), strict=False)
    db_path.write_text(json.dumps(stale, indent=1, sort_keys=True))
    db_path.with_suffix(".digest").write_text(
        sha256_hex(canonical_json(stale)))
    shutil.rmtree(tmp_path / "results")

    warm = run_sweep(spec, cache_dir=tmp_path)
    assert warm.memo_built == 1 and warm.executed == 1
    assert (warm.cache_stats["stale"], warm.cache_stats["corrupt"]) == (1, 0)
    assert warm.table() == cold.table()
    assert db_path.read_text() == raw               # re-recorded in place


def test_a_recording_with_a_message_order_is_rerecorded(tmp_path):
    """A recording saved while recordings kept the delivery order carries a
    ``"message_order"`` list and a sidecar digest over it.  This version
    reads it without the order, so it loads to content other than the
    sidecar names, though the file is the one the sidecar names: it is
    counted stale, not corrupt, and re-recorded, never replayed."""
    spec = small_spec(modes=["pil"])
    cold = run_sweep(spec, cache_dir=tmp_path)
    (db_path,) = (tmp_path / "memo").glob("*.json")
    raw = db_path.read_text()
    older = dict(json.loads(raw), message_order=["n0>n1:syn#1",
                                                 "n1>n0:ack#1"])
    db_path.write_text(json.dumps(older, indent=1, sort_keys=True))
    db_path.with_suffix(".digest").write_text(
        sha256_hex(canonical_json(older)))
    shutil.rmtree(tmp_path / "results")

    warm = run_sweep(spec, cache_dir=tmp_path)
    assert warm.memo_built == 1 and warm.memo_reused == 0
    assert (warm.cache_stats["stale"], warm.cache_stats["corrupt"]) == (1, 0)
    assert warm.table() == cold.table()
    assert db_path.read_text() == raw               # re-recorded in place


def test_recording_is_shared_across_replay_points(tmp_path):
    """One scenario, many replay points: exactly one MemoDB on disk."""
    spec = small_spec(modes=["pil"], seeds=[1, 2])
    summary = run_sweep(spec, cache_dir=tmp_path)
    assert summary.executed == 2
    assert summary.memo_built == 2          # one per seed (different scenario)
    dbs = list((tmp_path / "memo").glob("*.json"))
    assert len(dbs) == 2
    # A later pil sweep, its results cleared, reuses both recordings.
    shutil.rmtree(tmp_path / "results")
    again = run_sweep(spec, cache_dir=tmp_path)
    assert again.memo_built == 0
    assert again.memo_reused == 2
    assert again.executed == 2              # new replay results, old recordings
    assert again.table() == summary.table()


def test_force_reexecutes_but_result_is_unchanged(tmp_path):
    cold = run_sweep(small_spec(), cache_dir=tmp_path)
    forced = run_sweep(small_spec(), cache_dir=tmp_path, force=True)
    assert forced.executed == 2 and forced.cached == 0
    assert forced.table() == cold.table()
    # And the refreshed cache still serves the next warm run.
    warm = run_sweep(small_spec(), cache_dir=tmp_path)
    assert warm.executed == 0


def test_parallel_workers_match_serial_results(tmp_path):
    spec = small_spec(scales=[NODES, NODES + 4], modes=["real", "pil"])
    serial = run_sweep(spec, workers=1, cache_dir=tmp_path / "serial")
    parallel = run_sweep(spec, workers=2, cache_dir=tmp_path / "par")
    assert serial.table() == parallel.table()
    assert [r.key for r in serial.results] == [r.key for r in parallel.results]


KILLED_WORKER_SCRIPT = """
import os
from repro.cassandra.workloads import ScenarioParams
from repro.sweep import SweepSpec, executor

run_job = executor._execute_job

def job(payload):
    if payload["point"]["nodes"] == 6:
        os._exit(1)
    return run_job(payload)

executor._execute_job = job
spec = SweepSpec(bugs=["c3831"], scales=[4, 6], modes=["real"])
try:
    executor.run_sweep(spec, workers=2,
                       params=ScenarioParams(warmup=1.0, observe=2.0))
except RuntimeError as exc:
    print(exc)
"""


def test_killed_worker_fails_the_sweep_instead_of_hanging():
    """A worker that dies mid-point raises, naming the point, in seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", KILLED_WORKER_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "a sweep worker died" in proc.stdout
    assert "c3831/N=6/s42/real" in proc.stdout


def test_ephemeral_cache_dir_still_shares_recordings():
    summary = run_sweep(small_spec(), cache_dir=None)
    assert summary.executed == 2 and summary.memo_built == 1


def test_collector_counts_sweep_traffic(tmp_path):
    cold = run_sweep(small_spec(), cache_dir=tmp_path)
    warm = run_sweep(small_spec(), cache_dir=tmp_path)
    assert (cold.executed, cold.cached, cold.memo_built) == (2, 0, 1)
    assert (warm.executed, warm.cached, warm.memo_built) == (0, 2, 0)


def test_point_result_payload_round_trip(tmp_path):
    summary = run_sweep(small_spec(), cache_dir=tmp_path)
    for result in summary.results:
        back = PointResult.from_payload(result.point, result.key,
                                        result.payload(), cached=True)
        assert back.report == result.report
        assert back.replay == result.replay
        assert back.memo_digest == result.memo_digest


def test_summary_helpers(tmp_path):
    summary = run_sweep(small_spec(modes=["pil"]), cache_dir=tmp_path)
    series = summary.flap_series()
    assert "pil" in series and NODES in series["pil"]
    rendered = render_sweep_summary(summary, title="smoke")
    assert "smoke" in rendered
    assert summary.table() in rendered
    assert summary.stats_line() in rendered


# -- cache keys ---------------------------------------------------------------


def test_result_key_covers_every_input():
    point = SweepPoint(bug_id="c3831", nodes=8).to_dict()
    params = {"warmup": 30.0}
    constants = {"alpha": 1.0}
    base = result_key(point, params, constants, "digest", "1.0.0")
    assert base == result_key(point, params, constants, "digest", "1.0.0")
    assert base != result_key(dict(point, nodes=9), params, constants,
                              "digest", "1.0.0")
    assert base != result_key(point, {"warmup": 31.0}, constants,
                              "digest", "1.0.0")
    assert base != result_key(point, params, {"alpha": 2.0},
                              "digest", "1.0.0")
    assert base != result_key(point, params, constants, "other", "1.0.0")
    assert base != result_key(point, params, constants, "digest", "1.0.1")
    assert base != result_key(point, params, constants, "digest", "1.0.0",
                              machine={"cores": 40})


def test_cache_miss_then_hit(tmp_path):
    cache = SweepCache(tmp_path)
    assert cache.get("deadbeef") is None
    cache.put("deadbeef", {"report": {"flaps": 3}}, point={"bug": "c3831"})
    assert cache.get("deadbeef") == {"report": {"flaps": 3}}
    assert cache.stats() == {"hits": 1, "misses": 1, "corrupt": 0,
                             "stale": 0}
    assert len(cache) == 1


def test_a_result_of_another_schema_at_its_key_is_corrupt(tmp_path):
    """The schema is hashed into the key, so an entry of another schema at
    a current key is damage: a counted corrupt miss, overwritten by put."""
    cache = SweepCache(tmp_path)
    cache.put("deadbeef", {"report": {"flaps": 3}})
    path = tmp_path / "results" / "deadbeef.json"
    payload = json.loads(path.read_text())
    payload["schema"] = CACHE_SCHEMA + 1
    path.write_text(json.dumps(payload))
    assert cache.get("deadbeef") is None
    assert cache.stats() == {"hits": 0, "misses": 1, "corrupt": 1,
                             "stale": 0}


def fill_the_disk(monkeypatch):
    """Make every ``Path.write_text`` write half its text, then fail the
    way a full disk does."""
    write_text = Path.write_text

    def write_half(self, text, *args, **kwargs):
        write_text(self, text[:len(text) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", write_half)


def test_failed_cache_write_leaves_no_temp_file(tmp_path, monkeypatch):
    """A write that fails part-way removes its temporary sibling and leaves
    the entry it was replacing as it was."""
    cache = SweepCache(tmp_path)
    cache.put("deadbeef", {"report": {"flaps": 3}})
    fill_the_disk(monkeypatch)
    with pytest.raises(OSError):
        cache.put("deadbeef", {"report": {"flaps": 4}})
    monkeypatch.undo()
    assert cache.get("deadbeef") == {"report": {"flaps": 3}}
    assert [p.name for p in tmp_path.rglob("*.tmp*")] == []


def test_memo_digest_requires_both_files(tmp_path):
    cache = SweepCache(tmp_path)
    assert cache.memo_digest("abc") is None
    cache.record_memo_digest("abc", "d1")
    assert cache.memo_digest("abc") is None     # sidecar without the DB
    cache.memo_path("abc").parent.mkdir(parents=True, exist_ok=True)
    cache.memo_path("abc").write_text("{}")
    assert cache.memo_digest("abc") == "d1"


# -- CLI ----------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_cli_sweep_cold_then_warm(capsys, tmp_path):
    argv = ["sweep", "--bugs", "c3831", "--scales", str(NODES),
            "--seeds", "1", "--modes", "colo", "pil",
            "--cache-dir", str(tmp_path)]
    code, cold = run_cli(capsys, *argv)
    assert code == 0
    assert "2 executed, 0 cached" in cold
    assert "1 built" in cold
    code, warm = run_cli(capsys, *argv)
    assert code == 0
    assert "0 executed, 2 cached" in warm
    # The per-point table is identical; only the provenance footer moves.
    table = lambda out: [l for l in out.splitlines() if l.startswith("c3831")]
    assert table(cold) == table(warm)


def test_cli_sweep_spec_save_and_load(capsys, tmp_path):
    spec_file = tmp_path / "spec.json"
    code, _ = run_cli(capsys, "sweep", "--bugs", "c3831",
                      "--scales", str(NODES), "--modes", "pil",
                      "--cache-dir", str(tmp_path / "cache"),
                      "--save-spec", str(spec_file))
    assert code == 0 and spec_file.exists()
    loaded = SweepSpec.load(spec_file)
    assert loaded.bugs == ["c3831"] and loaded.scales == [NODES]
    code, out = run_cli(capsys, "sweep", "--spec", str(spec_file),
                        "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    assert "0 executed, 1 cached" in out


def test_cli_sweep_has_no_enforce_order_flag(capsys, tmp_path):
    """The order-enforced replay is gone, and so is its flag."""
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--bugs", "c3831", "--scales", str(NODES),
              "--modes", "pil", "--enforce-order",
              "--cache-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    assert "--enforce-order" in capsys.readouterr().err


@pytest.mark.parametrize("load", [
    lambda data: SweepSpec.from_dict(dict(small_spec().to_dict(), **data)),
    lambda data: SweepPoint.from_dict(
        dict(SweepPoint("c3831", NODES).to_dict(), **data)),
], ids=["spec", "point"])
def test_a_saved_enforce_order_is_refused_unless_false(load):
    """A spec or point saved with ``"enforce_order": true`` names the
    removed mode; ``false``, which every older saved spec carries, loads."""
    with pytest.raises(ValueError, match="order-enforced replay"):
        load({"enforce_order": True})
    assert load({"enforce_order": False}) == load({})


def test_cli_sweep_force_reexecutes(capsys, tmp_path):
    argv = ["sweep", "--bugs", "c3831", "--scales", str(NODES),
            "--modes", "pil", "--cache-dir", str(tmp_path)]
    run_cli(capsys, *argv)
    code, out = run_cli(capsys, *argv, "--force")
    assert code == 0
    assert "1 executed, 0 cached" in out


# -- division-by-zero regressions (satellite #3) ------------------------------


def zero_report(mode="real", flaps=0):
    return RunReport(mode=mode, bug="c3831", nodes=0, vnodes=0,
                     duration=0.0, flaps=flaps, recoveries=0)


def test_replay_result_empty_counts_yield_zero_hit_rate():
    result = ReplayResult(report=zero_report("pil"), hits=0, misses=0)
    assert result.hit_rate == 0.0
    assert result.to_dict()["hit_rate"] == 0.0


def test_accuracy_with_zero_flap_reports_is_zero():
    reports = {"real": zero_report("real"), "colo": zero_report("colo"),
               "pil": zero_report("pil")}
    accuracy = ScaleCheck.accuracy(reports)
    assert accuracy == {"colo_error": 0.0, "pil_error": 0.0}
    assert accuracy_error(zero_report(), zero_report(flaps=2)) == 2.0 / 2.0


def test_replay_over_empty_recording_reports_zero_hit_rate():
    """An empty MemoDB (nothing recorded) must not crash the replay or

    divide by zero -- every lookup misses and the rate is 0.0."""
    check = ScaleCheck(bug_id="c3831", nodes=NODES, seed=1)
    result = check.replay(MemoDB())
    assert result.hits == 0
    assert result.misses > 0
    assert result.hit_rate == 0.0
    stats_total = result.hits + result.misses
    assert result.hit_rate == pytest.approx(result.hits / stats_total)


def test_failed_memoize_to_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "memo" / "db.json"
    fill_the_disk(monkeypatch)
    with pytest.raises(OSError):
        ScaleCheck(bug_id="c3831", nodes=NODES, seed=1).memoize().db.save(
            path)
    assert not path.exists()
    assert list(path.parent.glob("*.tmp*")) == []


def test_speedup_guard_on_unknown_memo_cost(tmp_path):
    """A recording loaded from disk spent no host time; speedup is 0.0

    (unknown), not a ZeroDivisionError."""
    check = ScaleCheck(bug_id="c3831", nodes=NODES, seed=1)
    db_path = tmp_path / "db.json"
    check.memoize().db.save(db_path)
    db = MemoDB.load(db_path)
    cached = ScaleCheckResult(
        bug_id=check.bug_id, nodes=check.nodes,
        memo_report=RunReport.from_dict(db.meta["memo_report"]),
        replay=check.replay(db), db=db)
    assert cached.memo_report.wall_seconds == 0.0
    assert cached.speedup() == 0.0
