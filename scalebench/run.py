"""scalebench: run the ledger's workloads and print every metric by name.

Three ways to call it, all from the root of a checkout:

``python3 scalebench/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in one mode (the form ``BENCHMARK.json`` names).  The last
    line of standard output is the result object: the end-to-end metrics
    with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``python3 scalebench/run.py --seed N``
    Every workload, untraced and then traced, and the results written to
    ``scalebench/RESULTS.json``.  ``--workload`` narrows it to one workload,
    ``--no-trace`` skips the traced half.

``python3 scalebench/run.py --repeat-check``
    Every workload untraced, twice; fails unless set 2 is within each
    metric's own bound of set 1 and every digest and count is equal.

A run is a fixed number of *rounds*, ``--seconds`` divided by the
workload's nominal round time, each in a fresh child process
(``round.py``) and all on the same inputs, generated from ``--seed``.  So
every round must produce the same digest, and ``wall_s``/``cpu_s`` can be
taken piece by piece from the rounds the host disturbed least (see
``filtered_seconds``).  A traced run leaves the first half of its rounds
untraced as the reference and traces the rest: digests must match, and the
ratio of the two filtered walls is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from scalebench import ROOT, use_checkout_sources
from scalebench.layers import PER_LAYER
from scalebench.stats import median, percentile, worse_by

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
TRACES = HERE / "traces"
RESULTS = HERE / "RESULTS.json"

#: (name, unit, better, bound) of the end-to-end metrics, every one defined
#: on every workload.  ``setup_s`` runs from spawning the child to the start
#: of the timed section: interpreter start, imports, and whatever the
#: workload builds before its timed call.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("events_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

#: A child that runs longer than this is killed and the run fails.
ROUND_TIMEOUT_S = 150
#: Rounds stop early once a run has used this multiple of ``--seconds``
#: (a host much slower than the one the sizes were fixed on).
OVERRUN = 1.25


def run_round(workload: str, seed: int, trace: bool, workdir: Path) -> Dict[str, Any]:
    """One round in a fresh child; returns its ``round.json``."""
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env.pop("REPRO_FULL", None)  # the program's paper-scale switch
    env.pop("PYTHONPATH", None)
    # Hash randomisation moves dict and set layouts between processes and
    # with them host time by a few percent; the simulation is independent
    # of it, so it is pinned to cut noise.
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir)
    command = [sys.executable, str(HERE / "round.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", "1" if trace else "0", "--workdir", str(workdir),
               "--spawned-at", repr(time.monotonic())]
    done = subprocess.run(command, cwd=ROOT, env=env, timeout=ROUND_TIMEOUT_S,
                          stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        raise SystemExit(f"scalebench: round of {workload} exited with "
                         f"{done.returncode}")
    return json.loads((workdir / "round.json").read_text())


def _checks(rounds: List[Dict[str, Any]]) -> List[Tuple[str, bool]]:
    return [(f"round {index}: {name}", bool(ok))
            for index, result in enumerate(rounds)
            for name, ok in result["checks"]]


def _same(rounds: List[Dict[str, Any]], *keys: str) -> bool:
    """True when every round agrees on every one of ``keys``."""
    return len({json.dumps([r[key] for key in keys]) for r in rounds}) == 1


def filtered_seconds(repeats: List[Dict[str, Any]], clock: str) -> float:
    """Seconds of the timed section with host noise filtered out.

    The census cuts the timed section of every round into the same
    segments of work.  A busy neighbour only ever adds time, in bursts
    shorter than a round, so each segment is taken from the round that ran
    it fastest and the segments are summed.  With one round this is the
    plain measured time.
    """
    cuts = [r["segments"][clock] for r in repeats]
    if len({len(cut) for cut in cuts}) > 1:  # reported as a failed check
        return min(sum(cut) for cut in cuts)
    return sum(min(column) for column in zip(*cuts))


def round_count(workload, seconds: float) -> int:
    """Rounds in a run: fixed by ``--seconds`` alone, never by host speed."""
    return max(2, int(seconds // workload.nominal_round_s))


def _run_rounds(workload, seed: int, modes: List[bool], seconds: float,
                workdir: Path) -> List[Dict[str, Any]]:
    started = time.monotonic()
    rounds: List[Dict[str, Any]] = []
    for index, trace in enumerate(modes):
        if index >= 2 and time.monotonic() - started > seconds * OVERRUN:
            print(f"# {workload.name}: stopped after {index} rounds, "
                  f"over {OVERRUN}x the {seconds:g} s budget")
            break
        rounds.append(run_round(workload.name, seed, trace,
                                workdir / f"round-{index}"))
    return rounds


def _detail(rounds: List[Dict[str, Any]]) -> Dict[str, Tuple[float, str, int]]:
    """Workload-specific figures of untraced rounds: (value, unit, samples)."""
    facts = [r["facts"] for r in rounds]
    walls = [r["wall_s"] for r in rounds]
    detail = {"wall_unfiltered_s": (median(walls), "s", len(rounds))}
    if "slices_ms" in facts[0]:
        slices = [ms for f in facts for ms in f["slices_ms"]]
        detail["slice_ms_p50"] = (percentile(slices, 50), "ms", len(slices))
    for phase in ("real", "memoize", "replay"):
        name = f"core.scalecheck.{phase}_s"
        if name in facts[0]:
            detail[f"{phase}_wall_s"] = (median([f[name] for f in facts]),
                                         "s", len(facts))
    for mode in ("pil", "colo"):
        name = f"core.scalecheck.{mode}_flap_error"
        if name in facts[0]:
            detail[f"{mode}_flap_error"] = (facts[0][name], "ratio", 1)
    if "workload.engine.requests" in facts[0]:
        detail["requests_per_s"] = (median(
            [f["workload.engine.requests"] / wall
             for f, wall in zip(facts, walls)]), "1/s", len(facts))
    if "sweep.cache.warm_resolve_ms" in facts[0]:
        detail["warm_resolve_ms"] = (median(
            [f["sweep.cache.warm_resolve_ms"] for f in facts]), "ms",
            len(facts))
    return detail


def untraced_run(workload, seed: int, seconds: float,
                 workdir: Path) -> Dict[str, Any]:
    """End-to-end metrics: every round untraced, on the same inputs."""
    rounds = _run_rounds(workload, seed,
                         [False] * round_count(workload, seconds),
                         seconds, workdir)
    wall = filtered_seconds(rounds, "wall")
    facts = rounds[0]["facts"]
    counts = {"events": rounds[0]["events"]}
    counts.update({name: facts[name] for name in (
        "flaps_real", "flaps_colo", "flaps_pil", "workload.engine.requests")
        if name in facts})
    return {
        "mode": "untraced",
        "rounds": len(rounds),
        "metrics": {
            "wall_s": wall,
            "cpu_s": filtered_seconds(rounds, "cpu"),
            "events_per_s": rounds[0]["events"] / wall,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
            # Set-up is one segment: taken from its fastest round too.
            "setup_s": min(r["setup_s"] for r in rounds),
        },
        "detail": _detail(rounds),
        "counts": counts,
        "sim_digest": rounds[0]["digest"],
        "checks": _checks(rounds) + [
            ("run: every round produced the same digest", _same(rounds, "digest")),
            ("run: every round fired the same events and was cut into the "
             "same segments", len({(r["events"], len(r["segments"]["wall"]))
                                   for r in rounds}) == 1),
        ],
    }


def traced_run(workload, seed: int, seconds: float, workdir: Path,
               keep_trace: bool) -> Dict[str, Any]:
    """Per-layer metrics: half the rounds untraced (the reference), then as
    many traced."""
    count = round_count(workload, seconds)
    count += count % 2  # as many traced as untraced, so both filter alike
    rounds = _run_rounds(workload, seed,
                         [index >= count // 2 for index in range(count)],
                         seconds, workdir)
    references = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    metrics = {name: 0.0 for name, _unit, _better in PER_LAYER}
    for name in traced[0]["layers"]:
        metrics[name] = median([r["layers"][name] for r in traced])
    facts = references[0]["facts"]
    metrics.update({name: float(value) for name, value in facts.items()
                    if name in metrics})
    if "slices_ms" in facts:
        metrics["sim.kernel.slice_ms_p50"] = percentile(
            [ms for r in references for ms in r["facts"]["slices_ms"]], 50)
        metrics["sim.kernel.slice_ms_p90"] = percentile(
            [ms for r in traced for ms in r["facts"]["slices_ms"]], 90) or 0.0
    if "workload.engine.requests" in facts:
        metrics["workload.engine.requests_per_s"] = (
            facts["workload.engine.requests"]
            / filtered_seconds(references, "wall"))
    metrics["bench.trace_overhead_ratio"] = (
        filtered_seconds(traced, "wall")
        / filtered_seconds(references, "wall") - 1.0)

    outputs = {name: value for name, value in facts.items()
               if not isinstance(value, list)
               and not name.endswith(("_s", "_ms"))}
    if keep_trace:
        TRACES.mkdir(exist_ok=True)
        shutil.copyfile(workdir / f"round-{len(rounds) - 1}" / "spans.jsonl",
                        TRACES / f"{workload.name}.jsonl")
    return {
        "mode": "traced",
        "rounds": len(rounds),
        "metrics": metrics,
        "slice_samples": len(traced) * len(facts.get("slices_ms", [])),
        "attributed_s": median([r["attributed_s"] for r in traced]),
        "round_wall_s": median([r["round_wall_s"] for r in traced]),
        "sim_digest": references[0]["digest"],
        "checks": _checks(rounds) + [
            ("run: traced digests equal untraced", _same(rounds, "digest")),
            ("run: traced event counts equal untraced", _same(rounds, "events")),
            ("run: traced outputs equal untraced", all(
                {name: r["facts"].get(name) for name in outputs} == outputs
                for r in rounds)),
        ],
    }


# -- output ----------------------------------------------------------------------


def print_run(name: str, result: Dict[str, Any], units: Dict[str, str]) -> None:
    """Every metric by name with its unit, then the check tally."""
    print(f"## {name} ({result['mode']}, {result['rounds']} rounds)")
    for metric, value in result["metrics"].items():
        print(f"{name} {metric} = {value:.6g} {units[metric]}")
    for metric, (value, unit, samples) in result.get("detail", {}).items():
        print(f"{name} {metric} = {value:.6g} {unit} (n={samples})")
    if result["mode"] == "traced":
        print(f"{name} sim.kernel.slice_ms_p90 samples = "
              f"{result['slice_samples']}")
        print(f"{name} layer self times sum = {result['attributed_s']:.6g} s "
              f"of {result['round_wall_s']:.6g} s traced round")
    for metric, value in result.get("counts", {}).items():
        print(f"{name} {metric} = {value:g} count")
    failed = [check for check, ok in result["checks"] if not ok]
    print(f"{name} sim_digest = {result['sim_digest']}")
    print(f"{name} checks_attempted = {len(result['checks'])} "
          f"checks_failed = {len(failed)}")
    for check in failed:
        print(f"{name} FAILED: {check}")


def result_object(result: Dict[str, Any], units: Dict[str, str]) -> Dict[str, Any]:
    """The object the driver reads from the last line of standard output."""
    failed = sum(1 for _check, ok in result["checks"] if not ok)
    return {
        "correct": failed == 0,
        "attempted": len(result["checks"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }


def compare_sets(first: Dict[str, Any], second: Dict[str, Any],
                 name: str) -> List[str]:
    """Why set 2 of ``--repeat-check`` does not agree with set 1."""
    problems = []
    for metric, _unit, better, bound in END_TO_END:
        worse = worse_by(first["metrics"][metric], second["metrics"][metric],
                         better)
        verdict = "ok" if worse <= bound else "WORSE"
        print(f"{name} {metric}: {first['metrics'][metric]:.6g} -> "
              f"{second['metrics'][metric]:.6g} ({worse:+.1%} worse, "
              f"bound {bound:.0%}) {verdict}")
        if worse > bound:
            problems.append(f"{name} {metric} worse by {worse:.1%}")
    exact = {"sim_digest": (first["sim_digest"], second["sim_digest"]),
             "counts": (first["counts"], second["counts"])}
    if "pil_flap_error" in first["detail"]:
        exact["pil_flap_error"] = (first["detail"]["pil_flap_error"][0],
                                   second["detail"]["pil_flap_error"][0])
    for what, (one, two) in exact.items():
        if one != two:
            problems.append(f"{name} {what} differ between the sets")
    return problems


# -- entry point -----------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="host seconds one run measures for")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="only the untraced (0) or the traced (1) run; "
                             "with --workload, print the result object")
    parser.add_argument("--no-trace", action="store_true",
                        help="same as --trace 0")
    parser.add_argument("--repeat-check", action="store_true",
                        help="untraced set twice; fail unless they agree")
    args = parser.parse_args(argv)
    if args.no_trace:
        args.trace = 0

    use_checkout_sources()
    from scalebench.workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(expected one of {', '.join(WORKLOADS)})")
    chosen = [WORKLOADS[args.workload]] if args.workload else list(
        WORKLOADS.values())
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    if args.repeat_check:
        modes = [False, False]
    units = {name: unit for name, unit, *_rest in END_TO_END}
    units.update({name: unit for name, unit, _better in PER_LAYER})

    workdir = WORK / str(os.getpid())
    results: Dict[str, Dict[str, Any]] = {}
    problems: List[str] = []
    failed = 0
    try:
        for workload in chosen:
            runs = []
            for index, trace in enumerate(modes):
                where = workdir / f"{workload.name}-{index}"
                run = (traced_run(workload, args.seed, args.seconds, where,
                                  keep_trace=args.trace is None)
                       if trace else
                       untraced_run(workload, args.seed, args.seconds, where))
                print_run(workload.name, run, units)
                failed += sum(1 for _check, ok in run["checks"] if not ok)
                runs.append(run)
                shutil.rmtree(where)
            results[workload.name] = {
                "size": workload.size,
                **{run["mode"]: {k: v for k, v in run.items() if k != "checks"}
                   for run in runs}}
            if args.repeat_check:
                problems += compare_sets(runs[0], runs[1], workload.name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for problem in problems:
        print(f"REPEAT-CHECK: {problem}")
    if args.workload is not None and args.trace is not None:
        print(json.dumps(result_object(runs[0], units)))
    elif not args.repeat_check and args.trace is None and not args.workload:
        RESULTS.write_text(json.dumps({
            "seed": args.seed,
            "seconds": args.seconds,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "workloads": results,
        }, indent=1, sort_keys=True) + "\n")
        print(f"# results written to {RESULTS.relative_to(ROOT)}")
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
