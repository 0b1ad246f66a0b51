"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the six workloads and the available detector configurations;
* ``run`` — the observed pipeline: build a workload, optionally inject a
  bug, run one detector; prints the verdict, and with ``--json`` the full
  machine-readable :class:`~repro.obs.runreport.RunReport`; ``--trace-out``
  streams typed JSONL events, ``--metrics`` collects histograms/timers;
* ``profile`` — per-phase timing breakdown plus event-type and counter
  hotspots for one app/detector pair;
* ``exhibit`` — regenerate one paper exhibit (table2–table6, figure8);
* ``sweep`` — an arbitrary sensitivity study over one detector knob;
* ``collision`` — print the Section 3.2 Bloom-collision analysis;
* ``fuzz`` — differential fuzzing: N generated programs through the whole
  detector suite, every divergence classified against the approximation
  taxonomy; exits 1 if any divergence stays unexplained (writing shrunk
  reproducers to ``--corpus``);
* ``bench`` — the continuous performance observatory: run one named
  benchmark, write the structured ``BENCH_<name>.json`` artifact, and with
  ``--compare OLD.json`` exit 1 on any per-phase regression >= the
  threshold (default 10%).

Every verb accepts ``--jobs/-j N``: grid commands (``exhibit``, ``sweep``)
fan their evaluation grid out over N worker processes with bit-for-bit
identical output; single-run commands accept the flag for uniformity.
``-j 0`` means "use every CPU".

The CLI is a thin shell over :mod:`repro.api` — the stable public facade;
anything scriptable here is scriptable there.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import api
from repro.common.config import BloomConfig
from repro.core.bloom import collision_probability
from repro.obs import CountingEmitter, JsonlEmitter, Observability
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.registry import (
    EXTRA_WORKLOADS,
    WORKLOAD_NAMES,
    build_workload,
)


def _workload_name(text: str) -> str:
    """Argparse type for app arguments: a known workload or ``fuzz:<n>``."""
    if (
        text in WORKLOAD_NAMES
        or text in EXTRA_WORKLOADS
        or text.startswith("fuzz:")
    ):
        return text
    known = ", ".join(WORKLOAD_NAMES + EXTRA_WORKLOADS)
    raise argparse.ArgumentTypeError(
        f"unknown workload {text!r} (known: {known}, or fuzz:<n>)"
    )


def _resolve_jobs(args: argparse.Namespace) -> int:
    """The effective worker count (``-j 0`` = every CPU)."""
    jobs = getattr(args, "jobs", 1)
    return api.default_jobs() if jobs == 0 else max(1, jobs)


def _cmd_list(_: argparse.Namespace) -> int:
    print("workloads:")
    for name in WORKLOAD_NAMES:
        print(f"  {name}")
    print("extra workloads:")
    for name in EXTRA_WORKLOADS:
        print(f"  {name}")
    print("detectors:")
    for key in api.DETECTOR_KEYS:
        print(f"  {key}")
    print("exhibits:")
    for name in api.EXHIBITS:
        print(f"  {name}")
    return 0


def _open_trace_out(path: str | None):
    """A JSONL emitter for ``--trace-out`` (or None), with a usage error."""
    if not path:
        return None, 0
    try:
        return JsonlEmitter.to_path(path), 0
    except OSError as exc:
        print(f"cannot open --trace-out {path!r}: {exc}", file=sys.stderr)
        return None, 2


def _cmd_run(args: argparse.Namespace) -> int:
    emitter, status = _open_trace_out(args.trace_out)
    if status:
        return status
    recorder = None
    if args.telemetry or args.flame:
        recorder = api.FlightRecorder()
    obs = Observability(
        emitter=emitter, collect_metrics=args.metrics, telemetry=recorder
    )
    machine_overrides = {}
    if args.cores is not None:
        machine_overrides["num_cores"] = args.cores
    if args.fabric is not None:
        machine_overrides["coherence"] = args.fabric
    try:
        run = api.run_pipeline(
            args.app,
            args.detector,
            workload_seed=args.seed,
            schedule_seed=args.schedule_seed,
            bug_seed=args.bug_seed,
            obs=obs,
            jobs=_resolve_jobs(args),
            engine_path=args.engine_path,
            **machine_overrides,
        )
    finally:
        obs.close()

    if args.flame:
        recorder.write_flame(args.flame)

    if args.json:
        print(run.report.to_json(indent=2))
        return 0

    bug = run.bug
    if bug is not None:
        print(
            f"injected bug: thread {bug.thread_id} lost lock 0x{bug.lock_addr:x}"
        )
    result = run.result
    print(f"trace: {len(run.trace):,} events")
    engine = run.report.engine
    fallback = f" (fallback: {engine['fallback']})" if engine["fallback"] else ""
    print(f"engine path: {engine['path']}{fallback}")
    for res in run.results or [result]:
        print(
            f"{res.detector}: {res.reports.dynamic_count} dynamic reports, "
            f"{res.reports.alarm_count} alarms"
        )
    if result.cycles:
        print(f"overhead: {100 * result.overhead_fraction:.2f}%")
    if bug is not None:
        print("injected bug:", "DETECTED" if run.report.verdict["detected"] else "missed")
    if args.show_alarms:
        results = run.results or [result]
        for res in results:
            label = f" [{res.detector}]" if len(results) > 1 else ""
            for site in sorted(res.reports.sites(), key=str):
                print(f"  alarm{label}: {site}")
    if args.trace_out:
        print(f"trace events: {emitter.total:,} -> {args.trace_out}")
    if args.metrics:
        print(obs.metrics.format("run metrics"))
    if recorder is not None:
        print(recorder.format())
    if args.flame:
        print(f"collapsed stacks -> {args.flame}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    emitter = CountingEmitter()
    obs = Observability(emitter=emitter, collect_metrics=True)
    run = api.run_pipeline(
        args.app,
        args.detector,
        workload_seed=args.seed,
        schedule_seed=args.schedule_seed,
        obs=obs,
        jobs=_resolve_jobs(args),
    )
    result = run.result
    print(f"profile: {args.app} / {args.detector}")
    print(run.profiler.format())

    throughput = run.report.throughput
    print(
        f"detect throughput: {throughput['events_per_s']:,.0f} trace events/s "
        f"({throughput['trace_events']:,} events in "
        f"{throughput['detect_wall_s']:.3f}s)"
    )

    if emitter.counts:
        print(f"top {args.top} event types ({emitter.total:,} events)")
        for etype, count in emitter.counts.most_common(args.top):
            print(f"  {etype:<22}{count:>12,}")

    hotspots = sorted(result.stats.items(), key=lambda kv: -kv[1])[: args.top]
    if hotspots:
        print(f"top {args.top} detector counters")
        for name, value in hotspots:
            print(f"  {name:<28}{value:>14,}")

    if result.cycles:
        print(
            f"simulated cycles: {result.cycles:,} total, "
            f"{result.detector_extra_cycles:,} detector "
            f"({100 * result.overhead_fraction:.2f}% overhead)"
        )
    return 0


def _cmd_exhibit(args: argparse.Namespace) -> int:
    jobs = _resolve_jobs(args)
    try:
        result = api.run_table(args.name, cache_dir=args.cache_dir, jobs=jobs)
    except api.HarnessError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(result.text)
    if args.grid_stats:
        counters = (result.metrics or {}).get("counters", {})
        built = counters.get("harness.traces_built", 0)
        cached = counters.get("harness.trace_cache_hits", 0)
        verdicts = counters.get("harness.verdict_cache_hits", 0)
        memo_hits = counters.get("harness.trace_memo_hits", 0)
        memo_misses = counters.get("harness.trace_memo_misses", 0)
        evictions = counters.get("harness.trace_memo_evictions", 0)
        print(
            f"[grid] jobs={result.jobs} traces built={built} "
            f"trace-cache hits={cached} verdict-cache hits={verdicts} "
            f"memo hits={memo_hits} misses={memo_misses} "
            f"evictions={evictions}",
            file=sys.stderr,
        )
    return 0


def _parse_sweep_value(text: str) -> object:
    """Parse one ``--values`` item: int, float, bool, or bare string."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    return text.strip()


def _cmd_sweep(args: argparse.Namespace) -> int:
    values = [_parse_sweep_value(v) for v in args.values.split(",") if v.strip()]
    if not values:
        print("--values must name at least one setting", file=sys.stderr)
        return 2
    apps = (
        tuple(a.strip() for a in args.apps.split(",") if a.strip())
        if args.apps
        else WORKLOAD_NAMES
    )
    unknown = [
        a
        for a in apps
        if a not in WORKLOAD_NAMES
        and a not in EXTRA_WORKLOADS
        and not a.startswith("fuzz:")
    ]
    if unknown:
        print(f"unknown workloads: {', '.join(unknown)}", file=sys.stderr)
        return 2
    emitter, status = _open_trace_out(args.trace_out)
    if status:
        return status
    obs = Observability(emitter=emitter, collect_metrics=args.metrics)
    try:
        result = api.sweep(
            args.detector,
            args.parameter,
            values,
            apps=apps,
            runs=args.runs,
            include_detection=not args.no_detection,
            cache_dir=args.cache_dir,
            jobs=_resolve_jobs(args),
            obs=obs,
        )
    except api.HarnessError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        obs.close()
    print(result.format())
    if args.trace_out:
        print(f"trace events: {emitter.total:,} -> {args.trace_out}")
    if args.metrics:
        print(obs.metrics.format("sweep metrics"))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.engine import EngineSession
    from repro.harness.tracestats import TraceStatsCore

    program = build_workload(args.app, seed=args.seed)
    trace = interleave(program, RandomScheduler(seed=args.seed, max_burst=8)).trace
    session = EngineSession(trace)
    session.add_core(TraceStatsCore())
    [stats] = session.run()
    print(f"characterization of {args.app!r} (seed {args.seed}):")
    print(stats.format())
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    emitter, status = _open_trace_out(args.trace_out)
    if status:
        return status
    obs = Observability(emitter=emitter, collect_metrics=args.metrics)
    try:
        report = api.run_fuzz(
            args.seeds,
            jobs=_resolve_jobs(args),
            workload_seed=args.seed,
            corpus_dir=args.corpus,
            log=lambda message: print(f"[fuzz] {message}", file=sys.stderr),
            obs=obs,
        )
    finally:
        obs.close()
    if args.trace_out:
        print(
            f"[fuzz] trace events: {emitter.total:,} -> {args.trace_out}",
            file=sys.stderr,
        )
    if args.metrics:
        print(obs.metrics.format("fuzz metrics"), file=sys.stderr)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"fuzzed {report.seeds} seeds ({report.cases} cases: "
            f"clean + injected where injectable)"
        )
        print("divergences by kind:")
        counts = report.divergence_counts
        if not counts:
            print("  (none)")
        for kind, count in counts.items():
            print(f"  {kind:<20}{count:>8}")
        print(f"unexplained cases: {len(report.unexplained)}")
        for result in report.unexplained:
            for divergence in result.verdict.unexplained:
                print(
                    f"  seed {result.seed} [{result.case}] "
                    f"{divergence.direction} at {divergence.site}: "
                    f"{divergence.evidence}"
                )
        for path in report.reproducers:
            print(f"  reproducer written: {path}")
    return 1 if report.unexplained else 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    import json

    apps = tuple(args.apps.split(",")) if args.apps else None
    result = api.run_conformance_suite(
        apps=apps,
        schedule_seeds=tuple(args.seeds),
        fuzz_seeds=range(args.fuzz),
        corpus_dir=args.corpus,
        check_parity=not args.no_parity,
        jobs=_resolve_jobs(args),
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        for report in result.reports:
            status = "OK" if report.ok else "FAIL"
            kinds: dict[str, int] = {}
            for divergence in report.divergences:
                kinds[divergence.kind] = kinds.get(divergence.kind, 0) + 1
            summary = ", ".join(
                f"{kind}={count}" for kind, count in sorted(kinds.items())
            )
            print(
                f"[{status}] {report.label}: {report.events} events, "
                f"sites {report.alarm_sites}"
                + (f" ({summary})" if summary else "")
            )
            for violation in report.violations:
                print(f"    violation: {violation}")
            for divergence in report.unexplained:
                print(f"    unexplained: {divergence.to_dict()}")
        print(
            f"conformance: {len(result.reports)} cases, "
            f"{len(result.failures)} failures"
        )
    return 0 if result.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.load:
        try:
            result = api.load_bench(args.load)
        except api.BenchSchemaError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    else:
        if not args.name:
            print("bench: name a benchmark or pass --load PATH", file=sys.stderr)
            return 2
        try:
            result = api.run_benchmark(
                args.name,
                app=args.app,
                detectors=args.detectors,
                rounds=args.rounds,
                workload_seed=args.seed,
                schedule_seed=args.schedule_seed,
                engine_path=args.engine_path,
                engine_jobs=(
                    _resolve_jobs(args) if getattr(args, "jobs", 1) != 1 else None
                ),
                log=lambda message: print(f"[bench] {message}", file=sys.stderr),
            )
        except api.HarnessError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if not args.no_out:
            path = api.write_bench(result, args.out or api.bench_path(result.name))
            print(f"[bench] wrote {path}", file=sys.stderr)

    if args.json:
        print(result.to_json(indent=2))
    else:
        print(f"bench {result.name}: {result.rounds} round(s)")
        for name, entry in result.phases.items():
            rounds = ", ".join(f"{s:.3f}" for s in entry["rounds_s"])
            print(f"  {name:<18}{entry['min_s']:>9.3f}s  (rounds: {rounds})")

    if args.compare:
        try:
            old = api.load_bench(args.compare)
        except api.BenchSchemaError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        min_speedups: dict[str, float] = {}
        for spec in args.min_speedup:
            phase, sep, factor = spec.partition("=")
            try:
                if not sep or not phase:
                    raise ValueError(spec)
                min_speedups[phase] = float(factor)
            except ValueError:
                print(
                    f"bench: bad --min-speedup {spec!r} (want PHASE=FACTOR)",
                    file=sys.stderr,
                )
                return 2
        comparison = api.compare_bench(
            old, result, threshold=args.threshold, min_speedups=min_speedups
        )
        print(comparison.format())
        if not comparison.ok:
            if args.warn_only:
                print(
                    "bench compare: regressed, but --warn-only set", file=sys.stderr
                )
                return 0
            return 1
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.harness.cachegc import gc_cache, render_gc_report

    report = gc_cache(
        args.cache_dir,
        max_age_days=args.max_age_days,
        max_size_mb=args.max_size_mb,
        dry_run=args.dry_run,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(render_gc_report(report))
    return 0


def _cmd_collision(_: argparse.Namespace) -> int:
    print(f"{'bits':>5}" + "".join(f"{'m=' + str(m):>10}" for m in range(1, 5)))
    for bits in (8, 16, 32):
        config = BloomConfig(vector_bits=bits)
        row = "".join(
            f"{collision_probability(m, config):>10.4f}" for m in range(1, 5)
        )
        print(f"{bits:>5}{row}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HARD (HPCA 2007) reproduction toolkit",
    )
    # Shared by every verb: grid commands fan out across processes,
    # single-run commands accept the flag for interface uniformity.
    jobs_parent = argparse.ArgumentParser(add_help=False)
    jobs_parent.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for grid evaluation (0 = every CPU; default 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="list workloads, detectors and exhibits", parents=[jobs_parent]
    ).set_defaults(func=_cmd_list)

    run = sub.add_parser(
        "run", help="run one detector on one workload", parents=[jobs_parent]
    )
    run.add_argument("app", type=_workload_name)
    run.add_argument(
        "--detector",
        default="hard-default",
        help="detector key, or a comma-separated list to run several "
        "detectors in one single-pass engine session",
    )
    run.add_argument("--seed", type=int, default=0, help="workload seed")
    run.add_argument(
        "--bug-seed", type=int, default=None, help="inject a bug with this seed"
    )
    run.add_argument("--schedule-seed", type=int, default=0)
    run.add_argument("--show-alarms", action="store_true")
    run.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="stream typed JSONL events to PATH",
    )
    run.add_argument(
        "--metrics",
        action="store_true",
        help="collect and print histograms/timers",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable RunReport instead of text",
    )
    run.add_argument(
        "--telemetry",
        action="store_true",
        help="attach the engine flight recorder (exact per-core step "
        "time, walk-layer frames, sync density)",
    )
    run.add_argument(
        "--flame",
        metavar="PATH",
        default=None,
        help="write flamegraph collapsed stacks to PATH (implies --telemetry)",
    )
    run.add_argument(
        "--engine-path",
        choices=("auto", "batch", "scalar", "sharded"),
        default="auto",
        help="detect-phase engine walk; sharded spreads one large trace "
        "across -j worker processes",
    )
    run.add_argument(
        "--cores",
        type=int,
        default=None,
        metavar="N",
        help="simulated core count (power of two; default 4)",
    )
    run.add_argument(
        "--fabric",
        choices=("snoopy", "directory"),
        default=None,
        help="coherence fabric of the simulated machine (default snoopy)",
    )
    run.set_defaults(func=_cmd_run)

    profile = sub.add_parser(
        "profile",
        help="per-phase timing and event hotspots for one run",
        parents=[jobs_parent],
    )
    profile.add_argument("app", type=_workload_name)
    profile.add_argument("detector", nargs="?", default="hard-default")
    profile.add_argument("--seed", type=int, default=0, help="workload seed")
    profile.add_argument("--schedule-seed", type=int, default=0)
    profile.add_argument(
        "--top", type=int, default=10, help="rows in the hotspot tables"
    )
    profile.set_defaults(func=_cmd_profile)

    exhibit = sub.add_parser(
        "exhibit", help="regenerate a paper exhibit", parents=[jobs_parent]
    )
    exhibit.add_argument("name", choices=api.EXHIBITS)
    exhibit.add_argument("--cache-dir", default="results/cache")
    exhibit.add_argument(
        "--grid-stats",
        action="store_true",
        help="print grid/cache statistics to stderr after the exhibit",
    )
    exhibit.set_defaults(func=_cmd_exhibit)

    sweep = sub.add_parser(
        "sweep",
        help="sweep one detector knob across applications",
        parents=[jobs_parent],
    )
    sweep.add_argument("--detector", default="hard-default")
    sweep.add_argument(
        "--parameter",
        default="granularity",
        help="DetectorConfig knob to sweep (granularity, l2_size, "
        "vector_bits, barrier_reset, broadcast_updates, use_counter_register)",
    )
    sweep.add_argument(
        "--values",
        default="4,8,16,32",
        help="comma-separated settings (ints, floats, true/false)",
    )
    sweep.add_argument(
        "--apps", default=None, help="comma-separated workloads (default: all)"
    )
    sweep.add_argument("--runs", type=int, default=10, help="injected runs per app")
    sweep.add_argument(
        "--no-detection",
        action="store_true",
        help="skip the injected-run detection columns (alarms only)",
    )
    sweep.add_argument("--cache-dir", default="results/cache")
    sweep.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="stream typed JSONL events (sweep.cell spans) to PATH",
    )
    sweep.add_argument(
        "--metrics",
        action="store_true",
        help="print the harness metrics (trace memo/cache counters, timers)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential-fuzz the detector suite on generated programs",
        parents=[jobs_parent],
    )
    fuzz.add_argument(
        "--seeds", type=int, default=100, help="number of generated programs"
    )
    fuzz.add_argument("--seed", type=int, default=0, help="workload seed")
    fuzz.add_argument(
        "--corpus",
        metavar="DIR",
        default=None,
        help="write shrunk reproducers of unexplained divergences here",
    )
    fuzz.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable FuzzReport instead of text",
    )
    fuzz.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="stream typed JSONL events (fuzz.case) to PATH",
    )
    fuzz.add_argument(
        "--metrics",
        action="store_true",
        help="print fuzz.* counters and histograms to stderr",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    conformance = sub.add_parser(
        "conformance",
        help="pin the hybrid-detector lattice across workloads and corpora",
        parents=[jobs_parent],
    )
    conformance.add_argument(
        "--apps",
        default=None,
        help="comma-separated workload names (default: all six)",
    )
    conformance.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[0],
        help="schedule seeds per program",
    )
    conformance.add_argument(
        "--fuzz",
        type=int,
        default=0,
        metavar="N",
        help="also run the first N generated fuzz programs",
    )
    conformance.add_argument(
        "--corpus",
        metavar="DIR",
        default=None,
        help="also run every checked-in corpus case from DIR",
    )
    conformance.add_argument(
        "--no-parity",
        action="store_true",
        help="skip the batch-vs-scalar bit-for-bit cross-check",
    )
    conformance.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable suite result instead of text",
    )
    conformance.set_defaults(func=_cmd_conformance)

    bench = sub.add_parser(
        "bench",
        help="run a named performance benchmark (continuous observatory)",
        parents=[jobs_parent],
    )
    bench.add_argument(
        "name",
        nargs="?",
        choices=api.BENCHMARKS,
        help="benchmark to run (omit with --load)",
    )
    bench.add_argument(
        "--rounds", type=int, default=3, help="timing rounds (min is kept)"
    )
    bench.add_argument(
        "--app",
        type=_workload_name,
        default=None,
        help="workload override (benchmark default otherwise)",
    )
    bench.add_argument(
        "--detectors",
        default=None,
        help="comma-separated detector keys (benchmark default otherwise)",
    )
    bench.add_argument("--seed", type=int, default=0, help="workload seed")
    bench.add_argument("--schedule-seed", type=int, default=0)
    bench.add_argument(
        "--engine-path",
        choices=("auto", "batch", "scalar", "sharded"),
        default="auto",
        help="engine benchmark walk: vectorized batch kernels, per-event "
        "scalar reference, address-sharded parallel, or auto (batch when "
        "every core supports it)",
    )
    bench.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="artifact path (default BENCH_<name>.json)",
    )
    bench.add_argument(
        "--no-out", action="store_true", help="do not write the artifact"
    )
    bench.add_argument(
        "--load",
        metavar="PATH",
        default=None,
        help="load an existing artifact instead of running the benchmark",
    )
    bench.add_argument(
        "--compare",
        metavar="OLD",
        default=None,
        help="compare against this artifact; exit 1 on any per-phase "
        "regression at --threshold",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=api.DEFAULT_REGRESSION_THRESHOLD,
        help="regression threshold as a fraction (default 0.10 = 10%%)",
    )
    bench.add_argument(
        "--min-speedup",
        metavar="PHASE=FACTOR",
        action="append",
        default=[],
        help="with --compare, require PHASE to be at least FACTOR times "
        "faster than the old artifact (repeatable; e.g. detect=3.0 gates "
        "the batch kernels against a pre-columnar baseline)",
    )
    bench.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (cross-machine CI trend jobs)",
    )
    bench.add_argument(
        "--json",
        action="store_true",
        help="print the BenchResult JSON instead of the phase table",
    )
    bench.set_defaults(func=_cmd_bench)

    sub.add_parser(
        "collision",
        help="Bloom collision analysis (Section 3.2)",
        parents=[jobs_parent],
    ).set_defaults(func=_cmd_collision)

    stats = sub.add_parser(
        "stats", help="characterize a workload's trace", parents=[jobs_parent]
    )
    stats.add_argument("app", type=_workload_name)
    stats.add_argument("--seed", type=int, default=0)
    stats.set_defaults(func=_cmd_stats)

    cache = sub.add_parser(
        "cache",
        help="inspect and garbage-collect the on-disk result caches",
        parents=[jobs_parent],
    )
    cache.add_argument(
        "action",
        choices=("gc",),
        help="gc: prune verdict/trace/tape cache entries by age and size",
    )
    cache.add_argument("--cache-dir", default="results/cache")
    cache.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="DAYS",
        help="remove entries whose mtime is older than DAYS",
    )
    cache.add_argument(
        "--max-size-mb",
        type=float,
        default=None,
        metavar="MB",
        help="after age pruning, remove oldest entries until the cache "
        "fits in MB",
    )
    cache.add_argument(
        "--dry-run",
        action="store_true",
        help="plan and report without deleting anything",
    )
    cache.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable report",
    )
    cache.set_defaults(func=_cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
