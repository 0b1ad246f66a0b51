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
evaluates one cell; :meth:`ExperimentRunner.outcomes` scores a whole grid —
every exhibit and sweep declares its cells once and reads its data from
the returned mapping — and with ``jobs > 1`` fans it out across worker
processes via :mod:`repro.harness.parallel`.

Three caches keep the sweeps cheap:

* traces are memoised in memory per (app, run) as packed columns — when a
  cache directory is configured, persisted to and mmap-loaded from a
  process-safe on-disk :class:`~repro.harness.tracecache.TraceCache` so
  workers don't re-interleave the same run.  A trace carries its run's
  injected bug, so a cached trace is scored without building the program:
  :meth:`ExperimentRunner.program_for` runs only on a trace-cache miss;
* detector verdicts are cached on disk (JSON, keyed by the trace key, a
  configuration signature and the source digest of the whole package)
  with atomic write-then-rename, because the sensitivity sweeps of Section
  5.2 revisit the same runs under many detector configurations.  A hit
  needs neither a program nor a trace; a truncated, non-object or
  incomplete entry is unlinked and recomputed;
* verdicts are additionally memoised in memory, so a cell scored once —
  in this process or by a worker — is never evaluated again by this
  runner.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.common.events import Trace
from repro.common.fsio import atomic_write_text
from repro.common.rng import derive_seed
from repro.engine import EngineSession
from repro.harness.detectors import DetectorConfig, config_signature
from repro.harness.tracecache import (
    VERDICT_SOURCES,
    TapeCache,
    TraceCache,
    ensure_cache_dir,
    source_digest,
)
from repro.obs.metrics import MetricsRegistry
from repro.reporting import DetectionResult
from repro.threads.program import InjectedBug, ParallelProgram
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.injection import inject_bug
from repro.workloads.registry import build_workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.harness.parallel import GridCell

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
        jobs: worker processes for :meth:`outcomes`; ``1`` (the default)
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
        self.cache_dir = ensure_cache_dir(cache_dir)
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
        self._traces: OrderedDict[tuple[str, int], Trace] = OrderedDict()
        self._outcomes: dict[tuple[str, int, str], RunOutcome] = {}

    # ------------------------------------------------------------ traces

    def program_for(self, app: str, run: int) -> ParallelProgram:
        """Build the (possibly bug-injected) program of one run.

        The one place the runner builds a program: it runs only when the
        run's trace is neither memoised nor in the trace cache, keeps
        nothing, and counts each build as ``harness.programs_built``.
        """
        self.metrics.add("harness.programs_built")
        program = build_workload(app, seed=self.workload_seed)
        bug_seed = self._bug_seed(run)
        if bug_seed is not None:
            program = inject_bug(program, seed=bug_seed)
        return program

    def injected_bug(self, app: str, run: int) -> InjectedBug | None:
        """The bug injected into one run (``None`` for :data:`CLEAN_RUN`).

        Read from the run's trace, which carries it through the trace cache.
        """
        return self.trace_for(app, run).injected_bug

    def _bug_seed(self, run: int) -> tuple[object, int] | None:
        return None if run == CLEAN_RUN else (self.workload_seed, run)

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
        key = self._trace_key(app, run)
        trace = self.trace_cache.load(app, run, *key)
        if trace is not None:
            self.metrics.add("harness.trace_cache_hits")
            return trace
        program = self.program_for(app, run)
        _, _, seed, min_burst, max_burst = key
        scheduler = RandomScheduler(seed=seed, min_burst=min_burst, max_burst=max_burst)
        with self.metrics.time("harness.interleave"):
            trace = interleave(program, scheduler).trace
        self.metrics.add("harness.traces_built")
        self.trace_cache.store(trace, app, run, *key)
        return trace.columns().to_trace()

    def _trace_key(self, app: str, run: int) -> tuple[object, ...]:
        """Every value beyond (app, run) that the interleaving depends on.

        The workload, bug-injection and schedule seeds and the burst
        bounds; the trace cache adds the digest of the producer sources.
        """
        return (
            self.workload_seed,
            self._bug_seed(run),
            schedule_seed_for(app, self.workload_seed, run),
            SCHEDULE_MIN_BURST,
            SCHEDULE_MAX_BURST,
        )

    def drop_trace(self, app: str, run: int) -> None:
        """Release a memoised trace (the sweeps manage memory explicitly)."""
        self._traces.pop((app, run), None)

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
        in a single :class:`~repro.engine.EngineSession` over the trace: on
        the batch path, configurations with equal machines share one
        prerecorded machine tape over the columnar encoding
        (:attr:`engine_path` selects the walk), while each outcome stays
        bit-for-bit what a standalone :meth:`run_detector` call would have
        produced.

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
            bug = trace.injected_bug
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
        # Duplicate configurations in one batch resolve from the memo.
        return [
            outcomes[index]
            if index in outcomes
            else self._outcomes[(app, run, signatures[index])]
            for index in range(len(cfgs))
        ]

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
        self._outcomes.clear()
        self.trace_cache.close()
        self.tape_cache.close()

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------------- grid

    def outcomes(self, cells: Iterable["GridCell"]) -> dict["GridCell", RunOutcome]:
        """Score a grid of cells; returns every requested cell's outcome.

        Memoised cells are not re-evaluated.  With ``jobs == 1`` the rest
        runs here, one :meth:`run_detectors` session per (app, run) chunk
        of :func:`~repro.harness.parallel.plan_chunks`; with ``jobs > 1``
        the chunks fan out across worker processes
        (:func:`~repro.harness.parallel.run_grid`) and the merged outcomes
        seed the memo.  Either way the outcomes are bit-for-bit what a
        serial evaluation returns.
        """
        from repro.harness import parallel

        keys = {cell: (cell.app, cell.run, cell.signature) for cell in cells}
        pending = [cell for cell, key in keys.items() if key not in self._outcomes]
        if pending and self.jobs <= 1:
            for app, run, configs in parallel.plan_chunks(pending):
                self.run_detectors(app, run, configs)
        elif pending:
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
        return {cell: self._outcomes[key] for cell, key in keys.items()}

    # ------------------------------------------------------------- cache

    def _cache_path(self, app: str, run: int, signature: str) -> Path | None:
        if self.cache_dir is None:
            return None
        digest = derive_seed(
            "verdict",
            signature,
            *self._trace_key(app, run),
            source_digest(*VERDICT_SOURCES),
        )
        return self.cache_dir / f"{app}_{run}_{digest:016x}.json"

    def _cache_get(self, app: str, run: int, signature: str) -> RunOutcome | None:
        path = self._cache_path(app, run, signature)
        if path is None:
            return None
        try:
            data = json.loads(path.read_text())
            if data.get("signature") != signature:
                return None
            outcome = RunOutcome(
                detector=signature,
                app=app,
                run=run,
                detected=data["detected"],
                alarm_count=data["alarm_count"],
                dynamic_reports=data["dynamic_reports"],
                cycles=data["cycles"],
                detector_extra_cycles=data["detector_extra_cycles"],
            )
        except FileNotFoundError:
            return None
        except (ValueError, AttributeError, KeyError):
            # Truncated, not an object or missing a field: the entry fails
            # closed — unlinked and recomputed like a miss.
            path.unlink(missing_ok=True)
            return None
        self.metrics.add("harness.verdict_cache_hits")
        return outcome

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

