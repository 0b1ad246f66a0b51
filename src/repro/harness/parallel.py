"""The parallel experiment engine: fan the evaluation grid out over processes.

The evaluation protocol (Section 4) is a grid of independent cells —
``(app, run, detector configuration) -> RunOutcome`` — and every
stochastic choice inside a cell derives from
:func:`~repro.common.rng.derive_seed` on the cell coordinates, so a cell's
outcome is a pure function of its coordinates.  That makes the grid
embarrassingly parallel: this module chunks it, ships the chunks to a
process pool, and merges the results.

Design:

* **Cells** (:class:`GridCell`) are frozen and picklable: an app name, a
  run index, and a :class:`~repro.harness.detectors.DetectorConfig`.
* **Chunking** groups cells by (app, run): one chunk = one interleaved
  execution plus every detector configuration that scores against it, so
  a worker builds (or disk-loads) each trace exactly once no matter how
  many configurations the sweep puts on it.
* **Workers** each hold their own
  :class:`~repro.harness.experiment.ExperimentRunner` over the *shared*
  on-disk verdict and trace caches, whose atomic
  write-then-:func:`os.replace` protocol makes concurrent writes safe.
* **Merging**: each chunk returns its outcomes plus a worker-local
  :class:`~repro.obs.metrics.MetricsRegistry` shard; :func:`run_grid`
  merges the shards and sorts the outcomes into canonical order, so the
  assembled :class:`GridReport` is identical regardless of worker
  scheduling.

Serial equivalence is structural, not incidental: workers run the very
same :meth:`ExperimentRunner.run_detectors` single-pass engine code path
a ``jobs=1`` run does, with the same derived seeds, so ``-j N`` is
bit-for-bit identical to ``-j 1``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from repro.common.errors import HarnessError
from repro.harness.detectors import DetectorConfig, config_signature
from repro.harness.experiment import RunOutcome
from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class GridCell:
    """One evaluation-grid coordinate: a run of one app under one config."""

    app: str
    run: int
    config: DetectorConfig

    @property
    def signature(self) -> str:
        """The cell's detector-configuration cache signature."""
        return config_signature(self.config)


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to rebuild its ExperimentRunner.

    Plain strings/ints only, so the spec pickles cheaply to every worker
    regardless of the multiprocessing start method.
    """

    workload_seed: object = 0
    cache_dir: str | None = None
    trace_cache_dir: str | None = None
    tape_cache_dir: str | None = None
    engine_path: str = "auto"
    engine_jobs: int = 1


#: One task for a worker: every configuration scoring one (app, run) trace.
Chunk = tuple[str, int, tuple[DetectorConfig, ...]]


@dataclass
class GridReport:
    """The merged result of one parallel (or serial) grid evaluation."""

    outcomes: list[RunOutcome]
    jobs: int
    chunks: int
    wall_s: float
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def cells(self) -> int:
        """Number of evaluated grid cells."""
        return len(self.outcomes)

    def outcome_index(self) -> dict[tuple[str, int, str], RunOutcome]:
        """Outcomes keyed by (app, run, configuration signature)."""
        return {(o.app, o.run, o.detector): o for o in self.outcomes}

    def to_dict(self) -> dict:
        """JSON-serialisable summary (outcomes + merged metrics)."""
        return {
            "jobs": self.jobs,
            "chunks": self.chunks,
            "cells": self.cells,
            "wall_s": self.wall_s,
            "outcomes": [o.to_dict() for o in self.outcomes],
            "metrics": self.metrics.snapshot_all(),
        }


def plan_chunks(cells: Iterable[GridCell]) -> list[Chunk]:
    """Group cells by (app, run) into deterministic, deduplicated chunks.

    Chunks are sorted by (app, run) and configurations by signature, so the
    task queue is identical regardless of the order cells were enumerated
    in — important for reproducible scheduling and cache-warm patterns.
    """
    grouped: dict[tuple[str, int], set[DetectorConfig]] = {}
    for cell in cells:
        grouped.setdefault((cell.app, cell.run), set()).add(cell.config)
    return [
        (app, run, tuple(sorted(configs, key=config_signature)))
        for (app, run), configs in sorted(grouped.items())
    ]


T = TypeVar("T")
R = TypeVar("R")


def fan_out(
    tasks: Sequence[T],
    worker: Callable[[T], R],
    *,
    jobs: int,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
    serial_cleanup: Callable[[], None] | None = None,
) -> list[R]:
    """Map ``worker`` over ``tasks``, serially or across worker processes.

    The shared fan-out engine behind the experiment grid and the fuzzing
    harness.  With ``jobs <= 1`` (or a single task) everything runs in this
    process through the identical code path a pool worker would take:
    ``initializer(*initargs)`` once, then ``worker`` per task, then
    ``serial_cleanup`` (pool workers are simply discarded instead).  With
    more jobs, tasks fan out over a
    :class:`~concurrent.futures.ProcessPoolExecutor`.

    Results are returned in **completion order** — callers that need
    determinism must sort by a key of the task itself, the same way
    :func:`run_grid` sorts outcomes into canonical grid order.

    Fails closed: a worker process that dies (killed, ``os._exit``, a
    crashing initializer) breaks the pool, and the fan-out raises
    :class:`~repro.common.errors.HarnessError` instead of waiting forever
    for the lost task.  A worker's own exception propagates unchanged.
    """
    jobs = max(1, int(jobs))
    workers = min(jobs, len(tasks)) if tasks else 0
    results: list[R] = []
    if workers <= 1:
        if initializer is not None:
            initializer(*initargs)
        try:
            for task in tasks:
                results.append(worker(task))
        finally:
            if serial_cleanup is not None:
                serial_cleanup()
        return results
    # Imported here: the serial branch (every single-process run) never
    # loads the executor's modules.
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(),
        initializer=initializer,
        initargs=initargs,
    ) as pool:
        futures = [pool.submit(worker, task) for task in tasks]
        try:
            for future in as_completed(futures):
                results.append(future.result())
        except BrokenProcessPool as exc:
            raise HarnessError(
                "a worker process died before finishing its task; rerun "
                "with -j 1 to see the worker's own error"
            ) from exc
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
    return results


# Worker-process state: one runner per process, created by the pool
# initializer and reused across chunks so program/digest memos survive.
_WORKER_RUNNER = None


def _worker_init(spec: WorkerSpec) -> None:
    """Pool initializer: build this worker's runner over the shared caches."""
    global _WORKER_RUNNER
    from repro.harness.experiment import ExperimentRunner

    _WORKER_RUNNER = ExperimentRunner(
        workload_seed=spec.workload_seed,
        cache_dir=spec.cache_dir,
        trace_cache_dir=spec.trace_cache_dir,
        tape_cache_dir=spec.tape_cache_dir,
        engine_path=spec.engine_path,
        engine_jobs=spec.engine_jobs,
        jobs=1,
    )


def _worker_chunk(chunk: Chunk) -> tuple[list[RunOutcome], MetricsRegistry]:
    """Evaluate one (app, run) chunk: all its configs against one trace."""
    runner = _WORKER_RUNNER
    assert runner is not None, "worker used before _worker_init"
    app, run, configs = chunk
    # A fresh registry per chunk makes the returned shard exactly this
    # chunk's activity, with no cross-chunk double counting.
    runner.metrics = MetricsRegistry()
    # One engine session per execution: the chunk's trace is walked once
    # for every configuration scoring against it.
    outcomes = runner.run_detectors(app, run, configs)
    # The trace of this (app, run) will not be needed again in this worker
    # (chunks partition the grid by execution), so release the memory and
    # close any cache mmaps the chunk opened — long grids would otherwise
    # accumulate one file descriptor per visited cache entry.
    runner.drop_trace(app, run)
    runner.trace_cache.close()
    runner.tape_cache.close()
    return outcomes, runner.metrics


def run_grid(
    cells: Sequence[GridCell],
    *,
    jobs: int,
    workload_seed: object = 0,
    cache_dir: str | Path | None = None,
    trace_cache_dir: str | Path | None = None,
    tape_cache_dir: str | Path | None = None,
    engine_path: str = "auto",
    engine_jobs: int | None = None,
) -> GridReport:
    """Evaluate a grid of cells, fanned out over ``jobs`` worker processes.

    With ``jobs <= 1`` (or a single chunk) the grid runs serially in this
    process through the identical code path, so callers can thread a user
    supplied ``--jobs`` straight through.

    ``jobs`` is the *total* process budget.  When the grid has fewer chunks
    than jobs, the surplus flows down as ``engine_jobs`` — each worker's
    engine sessions may shard large traces across the leftover processes —
    so nested parallelism never oversubscribes beyond ``jobs`` processes.
    An explicit ``engine_jobs`` overrides the split.
    """
    t0 = time.perf_counter()
    chunks = plan_chunks(cells)
    jobs = max(1, int(jobs))
    workers = min(jobs, len(chunks)) if chunks else 0
    if engine_jobs is None:
        engine_jobs = max(1, jobs // workers) if workers else 1
    spec = WorkerSpec(
        workload_seed=workload_seed,
        cache_dir=str(cache_dir) if cache_dir is not None else None,
        trace_cache_dir=str(trace_cache_dir) if trace_cache_dir is not None else None,
        tape_cache_dir=str(tape_cache_dir) if tape_cache_dir is not None else None,
        engine_path=engine_path,
        engine_jobs=max(1, int(engine_jobs)),
    )

    outcomes: list[RunOutcome] = []
    metrics = MetricsRegistry()
    for chunk_outcomes, shard in fan_out(
        chunks,
        _worker_chunk,
        jobs=jobs,
        initializer=_worker_init,
        initargs=(spec,),
        serial_cleanup=_reset_worker,
    ):
        outcomes.extend(chunk_outcomes)
        metrics.merge_registry(shard)

    # Canonical order: independent of worker scheduling.
    outcomes.sort(key=lambda o: (o.app, o.run, o.detector))
    metrics.add("grid.chunks", len(chunks))
    metrics.add("grid.cells", len(outcomes))
    return GridReport(
        outcomes=outcomes,
        jobs=jobs,
        chunks=len(chunks),
        wall_s=time.perf_counter() - t0,
        metrics=metrics,
    )


def _reset_worker() -> None:
    """Drop the in-process runner (used by the serial path and tests)."""
    global _WORKER_RUNNER
    _WORKER_RUNNER = None


def default_jobs() -> int:
    """A sensible ``--jobs`` auto value: the machine's CPU count."""
    return os.cpu_count() or 1
