"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the library's main entry points:

* ``check``      -- run the scale-check pipeline for a bug at a scale and
                    print the Real / Colo / SC+PIL comparison;
* ``chaos``      -- search for (and shrink) a fault schedule that amplifies
                    a bug's symptom, then verify the PIL replay under it;
* ``doctor``     -- run one scenario under the span tracer and print the
                    scale-doctor's ranked bottleneck report;
* ``finder``     -- run the offending-function finder over the calculation
                    corpus (or any importable module) and print the report;
* ``lint``       -- run the whole-program scalability linter (complexity,
                    PIL-safety, lock discipline, determinism, cost-model
                    drift) with baseline suppression and SARIF/JSON output;
* ``hunt``       -- the detect -> sweep -> confirm pipeline: lint the tree
                    for scale-dependent candidates, sweep each across an
                    N-ladder, and confirm/refute via fitted flap curves,
                    extrapolation misses, and divergence attribution;
* ``figure3``    -- regenerate one Figure 3 panel (flaps vs scale);
* ``sweep``      -- run a declarative (bug, scale, seed, mode, chaos,
                    workload) grid through the parallel sweep engine with a
                    persistent recording store and incremental result cache;
* ``workload``   -- drive client traffic (up to millions of simulated
                    users) through the data path and report per-request
                    latency percentiles;
* ``partition``  -- run one gossip scenario through the partitioned
                    lockstep kernel (K shards, optional worker processes)
                    and print the canonical report digest; ``--self-check``
                    asserts serial/sharded/forked runs are byte-identical;
* ``ci``         -- the continuous-scalability gate: sweep an N-ladder of
                    gossip/workload scenarios, fit flap/throughput/memory
                    scaling slopes, and fail on trend regressions versus
                    the committed ``SCALING_BASELINE.json``;
* ``study``      -- print the 38-bug study population table;
* ``colocation`` -- print max-colocation factors and bottlenecks;
* ``bugs``       -- list the reproducible bug configurations.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import sys
from typing import Iterator, List, Optional

from .bench import calibrate
from .bench.figures import render_figure3
from .bench.runner import figure3_series, make_check
from .bench.tables import colocation_limits, render_colocation_limits
from .cassandra.bugs import all_bugs
from .cassandra.cluster import node_name
from .checks import Checks
from .core.finder import find_offending
from .core.report import (
    render_divergence,
    render_finder_report,
    render_memo_summary,
    render_mode_comparison,
)
from .core.scalecheck import ScaleCheck
from .faults import ChaosConfig, FaultSchedule, generate_schedule, shrink
from .study import default_study, render_population_table
from .workload.scenarios import PRESETS as WORKLOAD_PRESETS


def _cmd_check(args: argparse.Namespace) -> int:
    check = make_check(args.bug, args.nodes, seed=args.seed)
    print(f"scale-checking {args.bug} at {args.nodes} nodes "
          f"(seed {args.seed})...")
    reports = check.compare_modes()
    print(render_mode_comparison(reports))
    result = check.check()
    print()
    print(render_memo_summary(result.db))
    if args.save_db:
        result.db.save(args.save_db)
        print(f"memo DB saved to {args.save_db}")
    accuracy = ScaleCheck.accuracy(reports)
    print(f"\nflap error vs real: colo {accuracy['colo_error']:.0%}, "
          f"SC+PIL {accuracy['pil_error']:.0%}")
    return 0


def _with_window(args: argparse.Namespace, params):
    """``params`` with the ``--warmup``/``--observe`` overrides applied."""
    overrides = {name: getattr(args, name) for name in ("warmup", "observe")
                 if getattr(args, name) is not None}
    return dataclasses.replace(params, **overrides)


def _chaos_scale_check(args: argparse.Namespace) -> ScaleCheck:
    check = make_check(args.bug, args.nodes, seed=args.seed)
    check.params = _with_window(args, check.params)
    return check


class _InputError(Exception):
    """A user-supplied file is unusable; ``main`` reports it and exits 2."""


@contextlib.contextmanager
def _loading(what: str, path) -> Iterator[None]:
    """Turn a failure to load the user's ``what`` file into an _InputError."""
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        # ValueError covers json.JSONDecodeError; the rest is what
        # ``FaultSchedule.from_dict`` and the lint baseline loader raise on
        # a wrong-shaped document.
        raise _InputError(f"cannot load {what} {path}: {exc}") from exc


def _load_schedule(path: Optional[str]) -> Optional[FaultSchedule]:
    """Load and announce a ``--load-schedule`` file (None when not given)."""
    if not path:
        return None
    with _loading("fault schedule", path):
        schedule = FaultSchedule.load(path)
    print(f"loaded {len(schedule)}-event schedule "
          f"{schedule.name!r} from {path}")
    return schedule


def _emit(args: argparse.Namespace, report) -> int:
    """Write ``report`` as ``--format`` to ``--out`` (else stdout).

    Returns 2 if the report carries a failed self-check, else 0.
    """
    output = getattr(report, f"to_{args.format}")()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(output)
        print(f"{args.format} report written to {args.out}")
    else:
        print(output, end="")
    return 0 if report.self_check_ok else 2


def _checked(checks: Checks) -> int:
    """Print a self-check's lines; 2 if any check failed, else 0."""
    for line in checks.lines("self-check"):
        print(line)
    return 0 if checks.ok else 2


def _cmd_chaos(args: argparse.Namespace) -> int:
    check = _chaos_scale_check(args)
    population = [node_name(i) for i in range(args.nodes)]
    horizon = args.horizon
    if horizon is None:
        horizon = check.params.warmup + check.params.observe
    config = ChaosConfig(events=args.events, horizon=horizon)

    print(f"chaos-checking {args.bug} at {args.nodes} nodes "
          f"(seed {args.seed})...")
    baseline = check.run_colo()
    print(f"baseline (no faults): {baseline.flaps} flaps")

    def flaps_under(schedule: FaultSchedule) -> int:
        return check.run_colo(faults=schedule).flaps

    schedule = _load_schedule(args.load_schedule)
    if schedule is None:
        best_flaps = -1
        for gen_seed in range(args.chaos_seed, args.chaos_seed + args.tries):
            candidate = generate_schedule(population, gen_seed, config)
            flaps = flaps_under(candidate)
            print(f"  generator seed {gen_seed}: {len(candidate)} events, "
                  f"{flaps} flaps")
            if flaps > best_flaps:
                schedule, best_flaps = candidate, flaps
            if flaps >= args.min_flap_ratio * max(baseline.flaps, 1):
                break
        if schedule is None:
            print("no schedule generated")
            return 1

    chaos_flaps = flaps_under(schedule)
    target = args.min_flap_ratio * max(baseline.flaps, 1)
    ratio = chaos_flaps / max(baseline.flaps, 1)
    print(f"chaos run: {chaos_flaps} flaps "
          f"({ratio:.1f}x baseline, target {args.min_flap_ratio:.1f}x)")

    if args.shrink and chaos_flaps >= target:
        result = shrink(schedule,
                        lambda s: flaps_under(s) >= target,
                        max_evals=args.max_evals)
        schedule = result.schedule
        print(result.summary())
        for event in schedule.sorted_events():
            print(f"  {event.describe()}")

    if args.save_schedule:
        schedule.save(args.save_schedule)
        print(f"schedule saved to {args.save_schedule}")

    if args.pil:
        result = check.check(faults=schedule)
        memo_flaps = result.memo_report.flaps
        pil_flaps = result.replay_report.flaps
        delta = abs(pil_flaps - memo_flaps) / max(memo_flaps, pil_flaps, 1)
        print(f"under schedule: colo {memo_flaps} flaps, "
              f"SC+PIL replay {pil_flaps} flaps ({delta:.0%} apart, "
              f"hit rate {result.replay.hit_rate:.0%})")

    return 0 if chaos_flaps >= target else 1


def _cmd_doctor(args: argparse.Namespace) -> int:
    from .cassandra.cluster import Cluster, Mode
    from .cassandra.workloads import run_workload
    from .faults.injector import install_faults
    from .obs import SpanTracer, diagnose

    check = _chaos_scale_check(args)
    config = check.config(Mode(args.mode))
    if args.vnodes is not None:
        config.bug = dataclasses.replace(config.bug, vnodes=args.vnodes)
    if args.machine_cores is not None:
        config.machine.cores = args.machine_cores
    schedule = _load_schedule(args.load_schedule)
    tracer = None if args.no_trace else SpanTracer(max_spans=args.max_spans)
    cluster = Cluster(config, observer=tracer)
    install_faults(cluster, schedule)
    print(f"doctoring {args.bug} at {args.nodes} nodes "
          f"(mode {args.mode}, P={config.bug.vnodes}, seed {args.seed})...")
    report = run_workload(cluster, config.bug.workload, check.params)
    print()
    print(diagnose(cluster, tracer=tracer).render())
    print()
    print(report.summary())
    if tracer is not None and args.trace_out:
        written = tracer.to_jsonl(args.trace_out)
        print(f"{written} spans written to {args.trace_out} "
              f"({tracer.dropped_spans} dropped over budget)")
    if args.divergence:
        print("\nrunning real + colo + PIL for divergence attribution...")
        reports = check.compare_modes(faults=schedule)
        print(render_divergence(reports))
    return 0


def _cmd_finder(args: argparse.Namespace) -> int:
    if args.module:
        module = importlib.import_module(args.module)
    else:
        from .cassandra import legacy_calc as module  # the default corpus
    report = find_offending(module)
    print(render_finder_report(report))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import load_baseline, run_lint, self_check, write_baseline
    from .obs import record_lint_findings

    # --write-baseline replaces the file, so a damaged one must not block it;
    # otherwise refuse a damaged baseline before the analysis runs.
    baseline = None if args.write_baseline else args.baseline
    if baseline:
        with _loading("baseline", baseline):
            load_baseline(baseline)
    report = run_lint(targets=args.targets, baseline_path=baseline)
    if args.write_baseline:
        write_baseline(args.baseline, report.raw_findings)
        print(f"baseline with {len(report.raw_findings)} suppression(s) "
              f"written to {args.baseline}")
        return 0
    record_lint_findings(report.findings, suppressed=report.suppressed)
    if args.self_check:
        report.self_check = self_check(report)
    return _emit(args, report) or (1 if report.findings else 0)


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from .sanitize import SanitizeConfig, run_sanitize, self_check

    config = SanitizeConfig(
        targets=tuple(args.targets),
        scales=tuple(args.scales),
        seed=args.seed,
        bug_id=args.bug,
        cache_dir=args.cache_dir,
        static_only=args.static_only,
    )
    report = run_sanitize(config)
    if args.self_check:
        report.self_check = self_check(seed=args.seed)
    return _emit(args, report)


def _cmd_hunt(args: argparse.Namespace) -> int:
    from .hunt import HuntConfig, run_hunt, self_check

    config = HuntConfig(
        targets=tuple(args.targets),
        scales=args.scales,
        hdfs_scales=tuple(args.hdfs_scales),
        seed=args.seed,
        workers=args.workers,
        cache_dir=args.cache_dir,
        min_symptom=args.min_symptom,
    )
    report = run_hunt(config)
    if args.self_check:
        report.self_check = self_check(report)
    return _emit(args, report)


def _cmd_figure3(args: argparse.Namespace) -> int:
    scales = args.scales or calibrate.figure3_scales()
    print(f"running {args.bug} at scales {scales} "
          f"(REPRO_FULL={'1' if calibrate.full_scale() else '0'})...")
    series = figure3_series(args.bug, scales=scales, seed=args.seed)
    print(render_figure3(args.bug, series, scales=scales))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .core.report import render_sweep_summary
    from .obs import SweepCollector
    from .sweep import SweepSpec, run_sweep

    if args.spec:
        with _loading("sweep spec", args.spec):
            spec = SweepSpec.load(args.spec)
        print(f"loaded sweep spec {spec.name or args.spec!r} "
              f"({len(spec)} points)")
    else:
        spec = SweepSpec(
            bugs=args.bugs,
            scales=args.scales,
            seeds=args.seeds,
            modes=args.modes,
            chaos_seeds=(args.chaos_seeds if args.chaos_seeds
                         else [None]),
            chaos_events=args.chaos_events,
            enforce_order=args.enforce_order,
            vnodes=args.vnodes,
            workloads=(args.workloads if args.workloads else [None]),
            users=(args.users if args.users else [None]),
            consistencies=(args.consistencies if args.consistencies
                           else [None]),
        )
    if args.save_spec:
        spec.save(args.save_spec)
        print(f"sweep spec saved to {args.save_spec}")

    points = spec.expand()
    print(f"sweeping {len(points)} points with {args.workers} "
          f"worker{'s' if args.workers != 1 else ''} "
          f"(cache: {args.cache_dir}{', forced' if args.force else ''})...")
    collector = SweepCollector()
    summary = run_sweep(spec, workers=args.workers,
                        cache_dir=args.cache_dir, force=args.force,
                        collector=collector)
    print()
    print(render_sweep_summary(summary))
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from .workload import preset_spec, run_point

    spec = preset_spec(args.preset, users=args.users,
                       consistency=args.consistency)
    params = _with_window(args, calibrate.scenario_params())
    faults = _load_schedule(args.load_schedule)
    print(f"driving {spec.users:,} users ({args.preset}, "
          f"{spec.loop} loop) over {args.bug} at {args.nodes} nodes "
          f"(mode {args.mode}, seed {args.seed})...")
    report = run_point(args.bug, args.nodes, args.mode, args.seed,
                       args.preset, users=args.users,
                       consistency=args.consistency, params=params,
                       faults=faults, vnodes=args.vnodes)

    def _ms(value):
        return "n/a" if value is None else f"{value * 1000:.2f}ms"

    info = report.workload
    print()
    print(f"requests  {report.requests_attempted:>12,.0f} attempted  "
          f"{report.requests_ok:,.0f} ok  "
          f"{report.requests_unavailable:,.0f} unavailable  "
          f"{report.requests_timeout:,.0f} timeout")
    print(f"latency   p50 {_ms(report.latency_p50)}  "
          f"p99 {_ms(report.latency_p99)}  "
          f"p999 {_ms(report.latency_p999)}")
    print(f"events    {info['issued']:,} representative requests over "
          f"{info['shards']} shards "
          f"(fold {info['fold_factor']:,.0f}x)")
    print(f"hints     {report.hints_stored} stored, "
          f"{report.hints_delivered} delivered")
    print(f"control   {report.flaps} flaps, "
          f"{report.messages_delivered:,} messages delivered")
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    print(render_population_table(default_study()))
    return 0


def _cmd_colocation(args: argparse.Namespace) -> int:
    print(render_colocation_limits(colocation_limits()))
    return 0


def _partition_self_check(epoch: float) -> Checks:
    """Cheap K-invariance smoke usable from CI without pytest.

    Re-runs a small scenario serially, sharded, under chaos, and with
    forked workers, and checks every canonical report digest matches the
    serial baseline.
    """
    from .cassandra.partition import PartitionSpec, run_partitioned
    from .faults import FaultSchedule, NodeCrash, NodeRestart, PartitionCut

    base = dict(nodes=12, epoch=epoch, until=4.0, seed=7)
    chaos = FaultSchedule(events=[
        NodeCrash(1.0, "node-004"),
        PartitionCut(1.2, ("node-000", "node-001"), ("node-002", "node-003")),
        NodeRestart(2.0, "node-004"),
    ])

    def run(**overrides):
        return run_partitioned(PartitionSpec(**base, **overrides))

    serial = run(shards=1)
    chaos_serial = run(shards=1, faults=chaos)
    checks = Checks()
    for name, report, reference in (
            ("steady K=2 == K=1", run(shards=2), serial),
            ("steady K=4 == K=1", run(shards=4), serial),
            ("chaos K=4 == K=1", run(shards=4, faults=chaos), chaos_serial),
            ("forked workers == in-process", run(shards=2, workers=2),
             serial)):
        checks.add(name,
                   report.canonical_json() == reference.canonical_json(),
                   f"digest {report.digest()[:12]}")
    checks.add("chaos schedule was live",
               chaos_serial.dropped_down > 0 and chaos_serial.dropped_cut > 0,
               f"dropped_down={chaos_serial.dropped_down} "
               f"dropped_cut={chaos_serial.dropped_cut}")
    return checks


def _cmd_partition(args: argparse.Namespace) -> int:
    import resource
    from dataclasses import replace

    from .cassandra.partition import (
        DEFAULT_PARAMS,
        PartitionSpec,
        run_partitioned,
    )

    if args.self_check:
        print("self-checking shard-merge determinism "
              "(serial vs sharded vs forked)...")
        return _checked(_partition_self_check(epoch=0.05))

    spec = PartitionSpec(
        nodes=args.nodes,
        shards=args.shards,
        epoch=args.epoch,
        until=args.until,
        seed=args.seed,
        workers=args.workers,
        scenario=args.scenario,
        observe_from=args.observe_from,
        params=replace(DEFAULT_PARAMS, warmup=args.op_time,
                       join_count=args.join_count),
    )
    print(f"partitioned run: N={spec.nodes} K={spec.shards} "
          f"workers={spec.workers} epoch={spec.epoch} until={spec.until} "
          f"scenario={spec.scenario}...",
          flush=True)
    report = run_partitioned(spec)
    parent_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if sys.platform == "darwin":  # bytes there, KiB on Linux
        parent_kb //= 1024
        child_kb //= 1024
    print(f"steps     {int(report.extra['steps']):,} kernel events in "
          f"{report.wall_seconds:.1f}s wall "
          f"({report.duration:.1f} virtual seconds)")
    print(f"gossip    {report.flaps} flaps, {report.recoveries} recoveries, "
          f"{report.messages_sent:,} sent, "
          f"{report.messages_delivered:,} delivered, "
          f"{report.messages_dropped:,} dropped")
    print(f"memory    {parent_kb:,} KB peak RSS (coordinator) + "
          f"{child_kb:,} KB (largest worker)")
    print(f"digest    {report.digest()}")
    return 0


def _cmd_ci(args: argparse.Namespace) -> int:
    from .ci import (
        DEFAULT_SCENARIOS,
        CiConfig,
        evaluate,
        load_baseline,
        run_gate,
        save_baseline,
        self_check,
    )

    scenarios = DEFAULT_SCENARIOS
    if args.scenarios:
        by_name = {scenario.name: scenario for scenario in DEFAULT_SCENARIOS}
        unknown = [name for name in args.scenarios if name not in by_name]
        if unknown:
            print(f"unknown gate scenario(s): {', '.join(unknown)} "
                  f"(expected among {sorted(by_name)})")
            return 2
        scenarios = tuple(by_name[name] for name in args.scenarios)
    config = CiConfig(
        scales=args.scales,
        seed=args.seed,
        scenarios=scenarios,
        workers=args.workers,
        cache_dir=args.cache_dir,
        tolerance=args.tolerance,
    )

    if args.self_check:
        print(f"self-checking the gate on the calibrated ladder "
              f"(cache: {args.cache_dir})...")
        return _checked(self_check(config))

    print(f"gating ladder {list(config.scales)} over "
          f"{', '.join(s.name for s in scenarios)} "
          f"(seed {config.seed}, cache: {args.cache_dir})...")
    report = run_gate(config)
    _emit(args, report)

    if args.update:
        save_baseline(args.baseline, report)
        print(f"scaling baseline written to {args.baseline} "
              f"(digest {report.digest()[:12]})")
        return 0

    baseline = None
    if args.compare:
        try:
            baseline = load_baseline(args.baseline)
        except ValueError as exc:
            print(f"gate FAIL: {exc}")
            return 1
        if baseline is None:
            print(f"gate FAIL: no scaling baseline at {args.baseline}; "
                  f"record one with --update")
            return 1
    verdict = evaluate(report, baseline=baseline,
                       tolerance=config.tolerance)
    print()
    print(verdict.render())
    return 0 if verdict.ok else 1


def _cmd_bugs(args: argparse.Namespace) -> int:
    for bug in all_bugs():
        marker = "fixed" if bug.fixed else "BUGGY"
        print(f"{bug.bug_id:<14} [{marker}] {bug.workload.value:<12} "
              f"P={bug.vnodes:<4} {bug.title}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="scale-check: find and replay scalability bugs at real "
                    "scale on one machine (HotOS '17 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the scale-check pipeline")
    check.add_argument("--bug", default="c3831")
    check.add_argument("--nodes", type=int, default=24)
    check.add_argument("--seed", type=int, default=42)
    check.add_argument("--save-db", default=None,
                       help="write the memoization DB to this JSON file")
    check.set_defaults(func=_cmd_check)

    chaos = sub.add_parser(
        "chaos",
        help="find, shrink, and replay a symptom-amplifying fault schedule")
    chaos.add_argument("--bug", default="c6127")
    chaos.add_argument("--nodes", type=int, default=24)
    chaos.add_argument("--seed", type=int, default=42,
                       help="simulation seed (cluster RNG)")
    chaos.add_argument("--chaos-seed", type=int, default=0,
                       help="first generator seed to try")
    chaos.add_argument("--tries", type=int, default=5,
                       help="generator seeds to try before settling")
    chaos.add_argument("--events", type=int, default=8,
                       help="primary fault events per generated schedule")
    chaos.add_argument("--horizon", type=float, default=None,
                       help="chaos window in virtual seconds "
                            "(default: warmup + observe)")
    chaos.add_argument("--warmup", type=float, default=None)
    chaos.add_argument("--observe", type=float, default=None)
    chaos.add_argument("--min-flap-ratio", type=float, default=2.0,
                       help="amplification target vs the fault-free baseline")
    chaos.add_argument("--shrink", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="delta-debug the schedule down")
    chaos.add_argument("--max-evals", type=int, default=50,
                       help="shrink evaluation budget (each is one run)")
    chaos.add_argument("--pil", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="verify the PIL replay under the schedule")
    chaos.add_argument("--save-schedule", default=None,
                       help="write the final schedule to this JSON file")
    chaos.add_argument("--load-schedule", default=None,
                       help="enact a saved schedule instead of generating")
    chaos.set_defaults(func=_cmd_chaos)

    doctor = sub.add_parser(
        "doctor",
        help="rank a run's scalability bottlenecks (the scale-doctor)")
    doctor.add_argument("--bug", default="c6127")
    doctor.add_argument("--nodes", type=int, default=24)
    doctor.add_argument("--seed", type=int, default=42)
    doctor.add_argument("--mode", default="colo", choices=["real", "colo"])
    doctor.add_argument("--vnodes", type=int, default=None,
                        help="override the bug's vnode count (affordability)")
    doctor.add_argument("--machine-cores", type=int, default=None,
                        help="override the colocation host's core count")
    doctor.add_argument("--warmup", type=float, default=None)
    doctor.add_argument("--observe", type=float, default=None)
    doctor.add_argument("--load-schedule", default=None,
                        help="enact a saved fault schedule during the run")
    doctor.add_argument("--no-trace", action="store_true",
                        help="skip span tracing (stats-only diagnosis)")
    doctor.add_argument("--max-spans", type=int, default=1_000_000,
                        help="span memory budget for the tracer")
    doctor.add_argument("--trace-out", default=None,
                        help="write the span trace to this JSON-lines file")
    doctor.add_argument("--divergence", action="store_true",
                        help="also run real+colo+PIL and attribute the "
                             "mode divergence to a stage")
    doctor.set_defaults(func=_cmd_doctor)

    finder = sub.add_parser("finder", help="run the offending-function finder")
    finder.add_argument("--module", default=None,
                        help="importable module to analyze "
                             "(default: the Cassandra calculation corpus)")
    finder.set_defaults(func=_cmd_finder)

    lint = sub.add_parser(
        "lint",
        help="run the whole-program scalability linter over annotated "
             "packages (complexity, PIL-safety, lock discipline, drift)")
    lint.add_argument("--targets", nargs="+",
                      default=["repro.cassandra", "repro.hdfs",
                               "repro.workload"],
                      help="module/package names or source paths to analyze")
    lint.add_argument("--format", default="text",
                      choices=["text", "json", "sarif"])
    lint.add_argument("--out", default=None,
                      help="write the report to this file instead of stdout")
    lint.add_argument("--baseline", default="lint-baseline.json",
                      help="baseline-suppression file (known findings)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="record every current finding as suppressed "
                           "and exit")
    lint.add_argument("--self-check", action="store_true",
                      help="assert the analyzer rediscovers the historical "
                           "bug paths (C3831/C3881/C5456/C6127, HDFS O(B)); "
                           "exit 2 on failure")
    lint.set_defaults(func=_cmd_lint)

    sanitize = sub.add_parser(
        "sanitize",
        help="hybrid race & atomicity sanitizer: static shared-state "
             "harvest plus a vector-clock happens-before sweep over an "
             "N-ladder")
    sanitize.add_argument("--targets", nargs="+",
                          default=["repro.cassandra", "repro.hdfs",
                                   "repro.workload"],
                          help="packages the static harvest analyzes")
    sanitize.add_argument("--scales", type=int, nargs="*",
                          default=[8, 16, 32, 64],
                          help="N-ladder for the instrumented dynamic runs")
    sanitize.add_argument("--seed", type=int, default=42)
    sanitize.add_argument("--bug", default="c3831",
                          help="bug id whose scenario drives the ladder")
    sanitize.add_argument("--cache-dir", default=None,
                          help="persistent sweep cache; a warm report is "
                               "byte-identical to a cold one")
    sanitize.add_argument("--static-only", action="store_true",
                          help="skip the dynamic ladder (harvest + rules "
                               "only)")
    sanitize.add_argument("--format", default="text",
                          choices=["text", "json", "sarif"])
    sanitize.add_argument("--out", default=None,
                          help="write the report to this file instead of "
                               "stdout")
    sanitize.add_argument("--self-check", action="store_true",
                          help="assert both planted races (torn hint-store "
                               "critical section, undeclared ring mutation) "
                               "are rediscovered and their locked controls "
                               "stay clean; exit 2 on failure")
    sanitize.set_defaults(func=_cmd_sanitize)

    hunt = sub.add_parser(
        "hunt",
        help="hunt scalability bugs: lint candidates, sweep each across an "
             "N-ladder, confirm or refute with curve fits and baselines")
    hunt.add_argument("--targets", nargs="+",
                      default=["repro.cassandra", "repro.hdfs"],
                      help="packages the detect stage lints for candidates")
    hunt.add_argument("--scales", type=int, nargs="*", default=None,
                      help="Cassandra N-ladder (default: the current "
                           "calibration's Figure-3 scales)")
    hunt.add_argument("--hdfs-scales", type=int, nargs="*",
                      default=[8, 16, 32, 64],
                      help="datanode ladder for the HDFS probe")
    hunt.add_argument("--seed", type=int, default=42)
    hunt.add_argument("--workers", type=int, default=1,
                      help="sweep worker processes")
    hunt.add_argument("--cache-dir", default=None,
                      help="persistent sweep cache; a re-hunt with the "
                           "same cache is served warm")
    hunt.add_argument("--min-symptom", type=float, default=20.0,
                      help="smallest top-scale symptom that confirms")
    hunt.add_argument("--format", default="text", choices=["text", "json"])
    hunt.add_argument("--out", default=None,
                      help="write the report to this file instead of stdout")
    hunt.add_argument("--self-check", action="store_true",
                      help="assert the hunt rediscovers the whole planted "
                           "bug corpus (paper bugs + ported faults) and "
                           "refutes the fixed-path control; exit 2 on "
                           "failure")
    hunt.set_defaults(func=_cmd_hunt)

    figure3 = sub.add_parser("figure3", help="regenerate a Figure 3 panel")
    figure3.add_argument("--bug", default="c3831",
                         choices=["c3831", "c3881", "c5456"])
    figure3.add_argument("--scales", type=int, nargs="*", default=None)
    figure3.add_argument("--seed", type=int, default=42)
    figure3.set_defaults(func=_cmd_figure3)

    sweep = sub.add_parser(
        "sweep",
        help="run a (bug, scale, seed, mode, chaos) grid in parallel with "
             "a persistent recording store and incremental result cache")
    sweep.add_argument("--bugs", nargs="+", default=["c3831"])
    sweep.add_argument("--scales", type=int, nargs="+", default=[16, 32])
    sweep.add_argument("--seeds", type=int, nargs="+", default=[42])
    sweep.add_argument("--modes", nargs="+", default=["pil"],
                       choices=["real", "colo", "pil"])
    sweep.add_argument("--chaos-seeds", type=int, nargs="*", default=None,
                       help="chaos-generator seeds (omit for fault-free)")
    sweep.add_argument("--chaos-events", type=int, default=8)
    sweep.add_argument("--enforce-order", action="store_true",
                       help="enforce recorded message order during replays")
    sweep.add_argument("--vnodes", type=int, default=None,
                       help="override the bugs' vnode counts (affordability)")
    sweep.add_argument("--workloads", nargs="*", default=None,
                       choices=sorted(WORKLOAD_PRESETS),
                       help="workload presets to drive at each point "
                            "(real/colo modes only; omit for membership-"
                            "scenario sweeps)")
    sweep.add_argument("--users", type=int, nargs="*", default=None,
                       help="logical-user counts for the workload axis")
    sweep.add_argument("--consistencies", nargs="*", default=None,
                       choices=["one", "quorum", "all"],
                       help="consistency levels for the workload axis")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes for the grid fan-out")
    sweep.add_argument("--cache-dir", default=".repro-sweep",
                       help="persistent recording + result cache directory")
    sweep.add_argument("--force", action="store_true",
                       help="re-execute every point, refreshing the cache")
    sweep.add_argument("--spec", default=None,
                       help="load the grid from a saved sweep-spec JSON "
                            "file instead of the axis flags")
    sweep.add_argument("--save-spec", default=None,
                       help="write the grid to this sweep-spec JSON file")
    sweep.set_defaults(func=_cmd_sweep)

    workload = sub.add_parser(
        "workload",
        help="drive client traffic (millions of simulated users) through "
             "the data path and report latency percentiles")
    workload.add_argument("--bug", default="c3831-fixed")
    workload.add_argument("--nodes", type=int, default=24)
    workload.add_argument("--seed", type=int, default=42)
    workload.add_argument("--mode", default="real",
                          choices=["real", "colo"])
    workload.add_argument("--preset", default="steady",
                          choices=sorted(WORKLOAD_PRESETS))
    workload.add_argument("--users", type=int, default=None,
                          help="override the preset's logical-user count")
    workload.add_argument("--consistency", default=None,
                          choices=["one", "quorum", "all"],
                          help="read+write consistency level override")
    workload.add_argument("--vnodes", type=int, default=None,
                          help="override the bug's vnode count")
    workload.add_argument("--warmup", type=float, default=None)
    workload.add_argument("--observe", type=float, default=None)
    workload.add_argument("--load-schedule", default=None,
                          help="enact a saved fault schedule during the run")
    workload.set_defaults(func=_cmd_workload)

    study = sub.add_parser("study", help="print the 38-bug study table")
    study.set_defaults(func=_cmd_study)

    colocation = sub.add_parser("colocation",
                                help="print colocation limits")
    colocation.set_defaults(func=_cmd_colocation)

    partition = sub.add_parser(
        "partition",
        help="run gossip through the partitioned lockstep kernel "
             "(K shards, optional forked workers); byte-identical to the "
             "serial kernel by construction")
    partition.add_argument("--nodes", type=int, default=256)
    partition.add_argument("--shards", type=int, default=4,
                           help="shard count K (node i lives in shard i%%K)")
    partition.add_argument("--workers", type=int, default=0,
                           help="forked worker processes (0: in-process)")
    partition.add_argument("--epoch", type=float, default=0.005,
                           help="lockstep window width in virtual seconds "
                                "(also the message-latency floor)")
    partition.add_argument("--until", type=float, default=8.0,
                           help="virtual seconds to simulate")
    partition.add_argument("--seed", type=int, default=42)
    partition.add_argument("--scenario", default="steady",
                           choices=["steady", "decommission", "join"])
    partition.add_argument("--op-time", type=float, default=2.0,
                           help="when the scenario's membership op starts")
    partition.add_argument("--join-count", type=int, default=0,
                           help="mid-run joiners for the join scenario")
    partition.add_argument("--observe-from", type=float, default=0.0,
                           help="drop flaps/records before this time from "
                                "the headline report")
    partition.add_argument("--self-check", action="store_true",
                           help="assert serial, sharded, chaos, and "
                                "forked-worker runs produce byte-identical "
                                "canonical reports; exit 2 on failure")
    partition.set_defaults(func=_cmd_partition)

    ci = sub.add_parser(
        "ci",
        help="the continuous-scalability gate: sweep an N-ladder, fit "
             "scaling slopes, fail on trend regressions vs the committed "
             "SCALING_BASELINE.json")
    ci.add_argument("--scales", type=int, nargs="+", default=[32, 64, 128],
                    help="the gate's N-ladder (ascending)")
    ci.add_argument("--seed", type=int, default=42)
    ci.add_argument("--scenarios", nargs="*", default=None,
                    help="gate scenarios to run (default: all of them)")
    ci.add_argument("--workers", type=int, default=1,
                    help="sweep worker processes")
    ci.add_argument("--cache-dir", default=".repro-ci-cache",
                    help="persistent sweep cache; a re-gate with the same "
                         "cache is served warm")
    ci.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed log-log slope drift vs the baseline")
    ci.add_argument("--baseline", default="SCALING_BASELINE.json",
                    help="the committed trend contract")
    ci.add_argument("--update", action="store_true",
                    help="re-record the baseline from this run and exit")
    ci.add_argument("--compare", action="store_true",
                    help="gate against the committed baseline (exit 1 on "
                         "a trend regression); without it only the "
                         "intrinsic trend checks run")
    ci.add_argument("--self-check", action="store_true",
                    help="plant the known superlinear bug (c3831) and "
                         "assert the gate trips on its slope while the "
                         "fixed control passes; exit 2 on failure")
    ci.add_argument("--format", default="text", choices=["text", "json"])
    ci.add_argument("--out", default=None,
                    help="write the report to this file instead of stdout")
    ci.set_defaults(func=_cmd_ci)

    bugs = sub.add_parser("bugs", help="list reproducible bugs")
    bugs.set_defaults(func=_cmd_bugs)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
