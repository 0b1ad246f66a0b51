"""The experiment runner behind every table and figure.

Reproduces the paper's protocol (Section 4):

* for each application, 10 runs, each with one *different* randomly
  injected dynamic race (the bug seed is the run index);
* detection is scored per run: did the detector report any race matching
  the injected bug's de-protected accesses (by address overlap or source
  site)?
* false alarms are counted on the *race-free* execution, at source-site
  level;
* all detectors score against the *identical* interleaved trace of each
  run.

The evaluation grid — (app, run, detector configuration) cells — is
embarrassingly parallel, and every stochastic choice flows through
:func:`~repro.common.rng.derive_seed`, so a cell's outcome is a pure
function of its coordinates.  :meth:`ExperimentRunner.run_detector`
evaluates one cell; :meth:`ExperimentRunner.prefetch` evaluates many, and
with ``jobs > 1`` fans them out across worker processes via
:mod:`repro.harness.parallel`.

Three caches keep the sweeps cheap:

* traces are memoised in memory per (app, run) as packed columns — when a
  cache directory is configured, persisted to and mmap-loaded from a
  process-safe on-disk :class:`~repro.harness.tracecache.TraceCache` so
  workers don't re-interleave the same run.  Beside each trace the runner
  keeps one :class:`RunRecord` (program digest and injected bug); the
  program itself and the interleaved event objects are released before
  the detectors walk the columns;
* detector verdicts are cached on disk (JSON, keyed by a configuration
  signature) with atomic write-then-rename, because the sensitivity sweeps
  of Section 5.2 revisit the same runs under many detector configurations;
* verdicts are additionally memoised in memory, which is how parallel
  prefetch results reach the serial table-assembly path byte-for-byte
  unchanged.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from repro.common.events import Trace
from repro.common.fsio import atomic_write_text
from repro.common.rng import derive_seed
from repro.engine import EngineSession
from repro.harness.detectors import DetectorConfig, config_signature
from repro.harness.tracecache import TapeCache, TraceCache
from repro.obs.metrics import MetricsRegistry
from repro.reporting import DetectionResult
from repro.threads.program import InjectedBug, ParallelProgram
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.injection import inject_bug
from repro.workloads.registry import build_workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.harness.parallel import GridCell, GridReport

#: Run index reserved for the race-free (no injection) execution.
CLEAN_RUN = -1

#: Scheduler burst bounds used for every experiment interleaving.  Short
#: bursts approximate the fine-grained concurrency of a real 4-core CMP,
#: where instructions of different threads interleave at cycle granularity.
SCHEDULE_MIN_BURST = 1
SCHEDULE_MAX_BURST = 8


@dataclass
class RunOutcome:
    """Scored verdict of one detector on one run."""

    detector: str
    app: str
    run: int
    detected: bool
    alarm_count: int
    dynamic_reports: int
    cycles: int = 0
    detector_extra_cycles: int = 0

    @property
    def overhead_fraction(self) -> float:
        """Execution-time overhead of the detector hardware (Figure 8)."""
        base = self.cycles - self.detector_extra_cycles
        return self.detector_extra_cycles / base if base > 0 else 0.0

    def to_dict(self) -> dict:
        """JSON-serialisable form (consumed by RunReport tooling)."""
        data = asdict(self)
        data["overhead_fraction"] = self.overhead_fraction
        return data


class RunRecord(NamedTuple):
    """What the runner keeps of one (app, run) program once its trace exists."""

    #: :func:`program_digest` of the program: keys the trace and verdict caches.
    digest: int
    #: The injected bug the run is scored against (``None`` for a clean run).
    bug: InjectedBug | None


def program_digest(program: ParallelProgram) -> int:
    """A stable digest of a program's content.

    Folding this into the cache keys makes cached traces and verdicts
    self-invalidate whenever a workload generator (or the injection
    protocol) changes.
    """
    parts: list[object] = [program.name]
    for thread in program.threads:
        parts.append(thread.thread_id)
        parts.append(len(thread.ops))
        # Sample ops densely enough to catch any generator change
        # without hashing hundreds of thousands of objects.
        parts.extend(
            (op.kind.value, op.addr, op.size, op.cycles) for op in thread.ops[::7]
        )
    return derive_seed(*parts)


def score_detection(result: DetectionResult, bug: InjectedBug | None) -> bool:
    """True iff any report corresponds to the injected bug."""
    if bug is None:
        return False
    for report in result.reports:
        if bug.matches_report(report.addr, report.size, report.site):
            return True
    return False


def schedule_seed_for(app: str, workload_seed: object, run: int) -> int:
    """The deterministic interleaving seed of one (app, run) execution.

    A pure function of the cell coordinates, so serial and parallel
    evaluation — and any worker process — derive the identical schedule.
    """
    return derive_seed("schedule", app, workload_seed, run)


class ExperimentRunner:
    """Builds traces on demand and scores detectors against them.

    Args:
        workload_seed: seed of the workload generators.
        cache_dir: directory for disk-cached verdicts (and, under its
            ``traces/`` subdirectory, interleaved traces).  ``None``
            disables both disk caches.
        runs: injected runs per application (the paper uses 10).
        jobs: worker processes for :meth:`prefetch`; ``1`` (the default)
            evaluates everything serially in this process.
        trace_memo_limit: maximum number of traces held in the in-memory
            memo at once (least-recently-used eviction via
            :meth:`drop_trace`).  A memoised trace is its packed columns
            (34 bytes per event, in memory or mmap-ed from the trace
            cache) plus what the walks memoise on them: the batch
            kernels' row tuples and machine tapes.  Event objects are
            decoded only if a caller reads ``trace.events``, and then stay
            with the trace until it is evicted.  ``None`` disables the
            bound.  The on-disk trace cache is unaffected: evicted traces
            reload from disk.
        metrics: an existing :class:`~repro.obs.metrics.MetricsRegistry` to
            book harness counters into (defaults to a private registry);
            pass an Observability bundle's registry to surface trace-memo
            and cache counters in its RunReport.
    """

    #: Default LRU capacity of the in-memory trace memo.  A full Table 2
    #: assembly revisits each (app, run) execution for several detector
    #: configurations back to back, so a small window captures nearly all
    #: reuse while bounding peak memory to a handful of traces.
    DEFAULT_TRACE_MEMO_LIMIT = 8

    def __init__(
        self,
        *,
        workload_seed: object = 0,
        cache_dir: str | Path | None = None,
        runs: int = 10,
        jobs: int = 1,
        trace_cache_dir: str | Path | None = None,
        trace_memo_limit: int | None = DEFAULT_TRACE_MEMO_LIMIT,
        metrics: MetricsRegistry | None = None,
        engine_path: str = "auto",
        engine_jobs: int = 1,
        tape_cache_dir: str | Path | None = None,
    ):
        self.workload_seed = workload_seed
        self.engine_path = engine_path
        #: Worker budget of each *engine session* (the sharded path); the
        #: grid-level ``jobs`` budget is separate — ``run_grid`` splits one
        #: process budget between the two layers.
        self.engine_jobs = max(1, int(engine_jobs))
        self.runs = runs
        self.jobs = max(1, int(jobs))
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        if trace_cache_dir is None and self.cache_dir is not None:
            trace_cache_dir = self.cache_dir / "traces"
        self.trace_cache = TraceCache(trace_cache_dir)
        if tape_cache_dir is None and self.cache_dir is not None:
            tape_cache_dir = self.cache_dir / "tapes"
        self.tape_cache = TapeCache(tape_cache_dir)
        # Callers may share a registry (e.g. an Observability bundle's) so
        # harness cache counters surface in their RunReport/metrics output.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if trace_memo_limit is not None and trace_memo_limit < 1:
            trace_memo_limit = 1
        self.trace_memo_limit = trace_memo_limit
        #: The program last built for a :class:`RunRecord`, as ((app, run),
        #: program), kept so a trace-cache miss can interleave it without a
        #: second build; released once a trace is loaded or built (or a
        #: scoring call returns).
        self._held_program: tuple[tuple[str, int], ParallelProgram] | None = None
        self._traces: OrderedDict[tuple[str, int], Trace] = OrderedDict()
        self._records: dict[tuple[str, int], RunRecord] = {}
        self._outcomes: dict[tuple[str, int, str], RunOutcome] = {}

    # ------------------------------------------------------------ traces

    def program_for(self, app: str, run: int) -> ParallelProgram:
        """The (possibly bug-injected) program of one run.

        Built on demand: the runner keeps a program only until the run's
        trace is loaded or built, so a later call builds it again.  For
        the injected bug alone, :meth:`injected_bug` answers from the
        run's record without a build.
        """
        held = self._held_program
        if held is not None and held[0] == (app, run):
            return held[1]
        program = build_workload(app, seed=self.workload_seed)
        if run != CLEAN_RUN:
            program = inject_bug(program, seed=(self.workload_seed, run))
        return program

    def injected_bug(self, app: str, run: int) -> InjectedBug | None:
        """The bug injected into one run (``None`` for :data:`CLEAN_RUN`)."""
        return self._record(app, run).bug

    def _record(self, app: str, run: int) -> RunRecord:
        """The run's digest and bug, building its program the first time."""
        key = (app, run)
        record = self._records.get(key)
        if record is None:
            program = self.program_for(app, run)
            record = RunRecord(program_digest(program), program.injected_bug)
            self._records[key] = record
            self._held_program = (key, program)
        return record

    def trace_for(self, app: str, run: int) -> Trace:
        """The interleaved trace of one run (memoised, disk-cached).

        The memo is an LRU bounded by :attr:`trace_memo_limit`; the least
        recently used trace is released (via :meth:`drop_trace`) when a new
        one would exceed the bound.
        """
        key = (app, run)
        trace = self._traces.get(key)
        if trace is None:
            self.metrics.add("harness.trace_memo_misses")
            trace = self._build_trace(app, run)
            self._traces[key] = trace
            limit = self.trace_memo_limit
            if limit is not None:
                while len(self._traces) > limit:
                    oldest_app, oldest_run = next(iter(self._traces))
                    self.drop_trace(oldest_app, oldest_run)
                    self.metrics.add("harness.trace_memo_evictions")
        else:
            self.metrics.add("harness.trace_memo_hits")
            self._traces.move_to_end(key)
        return trace

    def _build_trace(self, app: str, run: int) -> Trace:
        """Load one run's trace from the disk cache or interleave it.

        Either way the result is backed by packed columns only: the
        program and the interleaved event objects are released here.
        """
        cache_key = self._trace_cache_key(app, run)
        trace = self.trace_cache.load(app, run, *cache_key)
        if trace is not None:
            self._held_program = None
            self.metrics.add("harness.trace_cache_hits")
            return trace
        program = self.program_for(app, run)
        self._held_program = None
        seed = schedule_seed_for(app, self.workload_seed, run)
        scheduler = RandomScheduler(
            seed=seed, min_burst=SCHEDULE_MIN_BURST, max_burst=SCHEDULE_MAX_BURST
        )
        with self.metrics.time("harness.interleave"):
            trace = interleave(program, scheduler).trace
        self.metrics.add("harness.traces_built")
        self.trace_cache.store(trace, app, run, *cache_key)
        return trace.columns().to_trace()

    def _trace_cache_key(self, app: str, run: int) -> tuple[object, ...]:
        """Everything beyond (app, run) that determines the interleaving."""
        return (
            self.workload_seed,
            self._record(app, run).digest,
            SCHEDULE_MIN_BURST,
            SCHEDULE_MAX_BURST,
        )

    def drop_trace(self, app: str, run: int) -> None:
        """Release a memoised trace (the sweeps manage memory explicitly).

        The run's :class:`RunRecord` stays: it is two small values, and it
        spares a program build when the trace is reloaded.
        """
        self._traces.pop((app, run), None)
        self._held_program = None

    # ----------------------------------------------------------- scoring

    def run_detector(
        self, app: str, run: int, config: DetectorConfig | str, **overrides
    ) -> RunOutcome:
        """Run one detector configuration on one run (memoised, disk-cached).

        ``config`` is a :class:`~repro.harness.detectors.DetectorConfig`
        or a detector key with legacy keyword overrides.  A thin shim over
        :meth:`run_detectors` with a single-config batch.
        """
        cfg = DetectorConfig.coerce(config, **overrides)
        return self.run_detectors(app, run, [cfg])[0]

    def run_detectors(
        self, app: str, run: int, configs: Sequence[DetectorConfig | str]
    ) -> list[RunOutcome]:
        """Score many detector configurations against one run's trace.

        Every configuration not already memoised or disk-cached is evaluated
        in a single :class:`~repro.engine.EngineSession` pass over the trace:
        the trace is walked once and compatible configurations share one
        simulated machine replay (or, on the batch path, one prerecorded
        machine tape over the columnar encoding — :attr:`engine_path`
        selects the walk), while each outcome stays bit-for-bit what a
        standalone :meth:`run_detector` call would have produced.

        Returns one :class:`RunOutcome` per entry of ``configs``, in order.
        """
        cfgs = [DetectorConfig.coerce(config) for config in configs]
        signatures = [config_signature(cfg) for cfg in cfgs]
        outcomes: dict[int, RunOutcome] = {}
        pending: list[tuple[int, DetectorConfig, str]] = []
        pending_signatures: set[str] = set()
        for index, (cfg, signature) in enumerate(zip(cfgs, signatures)):
            memo_key = (app, run, signature)
            outcome = self._outcomes.get(memo_key)
            if outcome is None:
                outcome = self._cache_get(app, run, signature)
                if outcome is not None:
                    self._outcomes[memo_key] = outcome
            if outcome is not None:
                outcomes[index] = outcome
            elif signature not in pending_signatures:
                pending.append((index, cfg, signature))
                pending_signatures.add(signature)
        if pending:
            trace = self.trace_for(app, run)
            session = EngineSession(
                trace,
                path=self.engine_path,
                jobs=self.engine_jobs,
                tape_cache=self.tape_cache,
            )
            for _, cfg, _ in pending:
                session.add_config(cfg)
            with self.metrics.time("harness.detect"):
                results = session.run()
            bug = self.injected_bug(app, run)
            for (index, cfg, signature), result in zip(pending, results):
                self.metrics.add("harness.cells_evaluated")
                outcome = RunOutcome(
                    detector=signature,
                    app=app,
                    run=run,
                    detected=score_detection(result, bug),
                    alarm_count=result.reports.alarm_count,
                    dynamic_reports=result.reports.dynamic_count,
                    cycles=result.cycles,
                    detector_extra_cycles=result.detector_extra_cycles,
                )
                self._cache_put(outcome, signature)
                self._outcomes[(app, run, signature)] = outcome
                outcomes[index] = outcome
        # A program built only for the verdict-cache key goes now.
        self._held_program = None
        # Duplicate configurations in one batch resolve from the memo.
        return [
            outcomes[index]
            if index in outcomes
            else self._outcomes[(app, run, signatures[index])]
            for index in range(len(cfgs))
        ]

    def detection_count(
        self, app: str, config: DetectorConfig | str, **overrides
    ) -> int:
        """Bugs detected out of :attr:`runs` injected runs."""
        return sum(
            self.run_detector(app, run, config, **overrides).detected
            for run in range(self.runs)
        )

    def false_alarm_count(
        self, app: str, config: DetectorConfig | str, **overrides
    ) -> int:
        """Source-level alarms on the race-free run."""
        return self.run_detector(app, CLEAN_RUN, config, **overrides).alarm_count

    def overhead(
        self, app: str, config: DetectorConfig | str = "hard-default", **overrides
    ) -> RunOutcome:
        """The race-free run's outcome, for overhead accounting (Figure 8)."""
        return self.run_detector(app, CLEAN_RUN, config, **overrides)

    # ----------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release every mmap the runner's caches handed out (idempotent).

        Multi-thousand-cell sweeps would otherwise hold one file descriptor
        per visited trace/tape cache entry until garbage collection; the
        runner is also a context manager so call sites can scope this.
        Every per-run memo is cleared too.  A trace loaded from the cache
        can no longer decode its events afterwards (reading them raises
        :class:`~repro.common.errors.ReproError`), so read ``trace.events``
        before closing.
        """
        self._traces.clear()
        self._held_program = None
        self._records.clear()
        self._outcomes.clear()
        self.trace_cache.close()
        self.tape_cache.close()

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------- prefetch

    def prefetch(self, cells: Iterable["GridCell"]) -> "GridReport | None":
        """Evaluate many grid cells ahead of the serial assembly path.

        With ``jobs == 1`` this is a plain serial warm-up of the memo (the
        exact work the assembly path would do anyway, in the same order).
        With ``jobs > 1`` the cells fan out across worker processes; the
        merged outcomes seed the in-memory memo, so the subsequent serial
        reads reproduce bit-for-bit what a serial evaluation returns.
        """
        from repro.harness import parallel

        pending = []
        for cell in cells:
            signature = config_signature(cell.config)
            if (cell.app, cell.run, signature) not in self._outcomes:
                pending.append(cell)
        if not pending:
            return None
        if self.jobs <= 1:
            # Group the pending cells by execution so each (app, run) trace
            # is walked once for all of its configurations — the same
            # single-pass chunking the parallel workers use.
            for app, run, configs in parallel.plan_chunks(pending):
                self.run_detectors(app, run, configs)
            return None
        report = parallel.run_grid(
            pending,
            jobs=self.jobs,
            workload_seed=self.workload_seed,
            cache_dir=self.cache_dir,
            trace_cache_dir=self.trace_cache.directory,
            tape_cache_dir=self.tape_cache.directory,
            engine_path=self.engine_path,
        )
        for outcome in report.outcomes:
            self._outcomes[(outcome.app, outcome.run, outcome.detector)] = outcome
        self.metrics.merge_registry(report.metrics)
        return report

    # ------------------------------------------------------------- cache

    def _cache_path(self, app: str, run: int, signature: str) -> Path | None:
        if self.cache_dir is None:
            return None
        digest = self._record(app, run).digest
        stem = f"{app}_{run}_{derive_seed(signature, self.workload_seed, digest):016x}"
        return self.cache_dir / f"{stem}.json"

    def _cache_get(self, app: str, run: int, signature: str) -> RunOutcome | None:
        path = self._cache_path(app, run, signature)
        if path is None or not path.exists():
            return None
        data = json.loads(path.read_text())
        if data.get("signature") != signature:
            return None
        self.metrics.add("harness.verdict_cache_hits")
        return RunOutcome(
            detector=signature,
            app=app,
            run=run,
            detected=data["detected"],
            alarm_count=data["alarm_count"],
            dynamic_reports=data["dynamic_reports"],
            cycles=data["cycles"],
            detector_extra_cycles=data["detector_extra_cycles"],
        )

    def _cache_put(self, outcome: RunOutcome, signature: str) -> None:
        path = self._cache_path(outcome.app, outcome.run, signature)
        if path is None:
            return
        payload = json.dumps(
            {
                "signature": signature,
                "detected": outcome.detected,
                "alarm_count": outcome.alarm_count,
                "dynamic_reports": outcome.dynamic_reports,
                "cycles": outcome.cycles,
                "detector_extra_cycles": outcome.detector_extra_cycles,
            }
        )
        # Atomic write-then-rename so a crashed or parallel sweep never
        # leaves a truncated JSON file that poisons every later cache hit.
        atomic_write_text(path, payload)


@dataclass
class TableCell:
    """One "detected / alarms" cell of a paper-style table."""

    detected: int | None = None
    alarms: int | None = None
    extras: dict[str, float] = field(default_factory=dict)
