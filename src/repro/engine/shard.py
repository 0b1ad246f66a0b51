"""The parallel walk: one detector configuration per worker task.

HARD's evaluation scores every detector configuration over one identical
execution (Section 5.1), and the batch walk already runs each
configuration's kernel alone over the whole trace
(:func:`~repro.engine.session.walk_batch_core`).  One configuration's
whole walk is therefore the unit of parallel work: ``path="sharded"``
hands each configuration to a worker process, which runs the unchanged
``walk_batch_core`` over the same columns and machine tapes the batch walk
replays.  A shard is one configuration.  Nothing is partitioned and
nothing is merged, so every result is the batch walk's, bit for bit.

Workers never receive pickled event data: the parent records (or
cache-loads) each machine tape once, spills the columnar encoding and the
tapes to disk (or reuses the trace/tape cache entries already there) and
ships only file paths; each worker ``mmap``-s them and decodes its views
straight from the shared pages.  Tasks go to the pool in add order and
the next free worker pulls the next configuration; the parent puts the
results back in add order and feeds each worker's exact step time to its
flight recorder.
"""

from __future__ import annotations

import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing.util import Finalize
from pathlib import Path

from repro.common.coltrace import ColumnarTrace
from repro.common.fsio import atomic_write_bytes, map_file
from repro.engine.session import EngineError, walk_batch_core
from repro.engine.tape import MachineTape
from repro.reporting import DetectionResult

#: ``path="auto"`` takes the parallel walk only with ``jobs > 1``, at
#: least :data:`SHARD_MIN_CONFIGS` configurations and at least
#: :data:`SHARD_THRESHOLD` trace events.  The fan-out costs a pool start,
#: a decode per worker and the results' pickles (about 0.1 s on a 2-vCPU
#: host), and a worker recomputes the derived columns (held locks, thread
#: rows) a batch session shares between its cores, so the walk pays only
#: when the work beyond the longest kernel walk is large.  Medians of
#: alternating rounds on a 2-vCPU host, ``jobs=2``, each round on a freshly
#: mapped trace-cache file and a warm tape cache, results bit-identical:
#:
#: * water-nsquared (172,404 events), the seven default keys: batch
#:   1.70 s, parallel 1.08 s (1.57x, 8 of 8 rounds won);
#: * hb-ideal, software and fasttrack: ocean (209,432 events) 0.571 s vs
#:   0.479 s (1.19x, 12 of 12); barnes (102,340) 0.265 s vs 0.230 s
#:   (1.15x, 9 of 12); raytrace (80,028) 0.172 s vs 0.179 s (0.96x, 5 of
#:   12: a loss, so raytrace stays below the threshold);
#: * two keys: cholesky (122,240) with hard-default and hb-ideal 0.444 s vs
#:   0.461 s (0.96x); ocean with hb-ideal and software 0.376 s vs 0.385 s
#:   (0.98x): one more walk does not cover the fan-out, hence three.
SHARD_THRESHOLD = 100_000
SHARD_MIN_CONFIGS = 3


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker maps — paths and plain values only.

    No event data crosses the process boundary: workers ``mmap`` the
    columnar file and the tape files and read the shared pages directly.
    """

    cols_path: str
    tape_paths: tuple  # ((MachineConfig, path), ...)


_SHARD_CTX = None

#: Process-lifetime spill directory for traces/tapes that have no cache
#: entry on disk; removed when the process that made it exits.
_SPILL_DIR = None


def _spill_dir() -> Path:
    global _SPILL_DIR
    if _SPILL_DIR is None:
        _SPILL_DIR = Path(tempfile.mkdtemp(prefix="repro-shard-"))
        # Not atexit: a pool worker (a grid or fuzz worker walking sharded
        # with jobs=1 spills too) exits without running atexit handlers,
        # but runs multiprocessing's finalizers; a finalizer also skips
        # the processes forked after it was made.
        Finalize(
            None,
            shutil.rmtree,
            args=(_SPILL_DIR,),
            kwargs={"ignore_errors": True},
            exitpriority=0,
        )
    return _SPILL_DIR


def _shard_init(spec: ShardSpec) -> None:
    """Pool initializer: map and decode the shared columns and tapes."""
    global _SHARD_CTX
    cols = ColumnarTrace.from_bytes(map_file(spec.cols_path))
    tapes = {
        machine_config: MachineTape.from_bytes(map_file(path), machine_config)
        for machine_config, path in spec.tape_paths
    }
    _SHARD_CTX = (cols, tapes)


def _shard_run(task: tuple) -> tuple[int, DetectionResult, str, float]:
    """Walk one configuration in this worker.

    Returns ``(index, result, core name, step seconds)``: the step time is
    the exact ``step_batch`` time ``walk_batch_core`` recorded.
    """
    from repro.harness.detectors import make_detector
    from repro.obs.telemetry import FlightRecorder

    ctx = _SHARD_CTX
    assert ctx is not None, "shard worker used before _shard_init"
    cols, tapes = ctx
    index, config = task
    recorder = FlightRecorder()
    result = walk_batch_core(
        make_detector(config).core(), cols, tapes.__getitem__, recorder
    )
    [(name, entry)] = recorder.cores.items()
    return index, result, name, entry["wall_s"]


def _reset_shard_worker() -> None:
    """Release the serial path's context (mmaps close with it)."""
    global _SHARD_CTX
    if _SHARD_CTX is not None:
        cols, tapes = _SHARD_CTX
        cols.close()
        for tape in tapes.values():
            tape.close()
    _SHARD_CTX = None


def _shared_paths(cols: ColumnarTrace, tapes: dict, tape_cache):
    """On-disk homes for the columns and tapes workers will mmap.

    Reuses the trace-cache file the columns were loaded from and the tape
    cache's entries when available; anything homeless spills to a
    process-lifetime temp directory (content-addressed, so repeated
    sessions over the same trace spill once).
    """
    from repro.harness.tracecache import TapeCache

    cols_path = cols._source_path
    if cols_path is None or not Path(cols_path).exists():
        cols_path = _spill_dir() / f"cols_{cols.content_digest()}.cols"
        if not cols_path.exists():
            atomic_write_bytes(cols_path, cols.to_bytes())
        cols._source_path = cols_path

    spill_cache = None
    tape_paths = []
    for machine_config, tape in tapes.items():
        path = None
        if tape_cache is not None and tape_cache.enabled:
            path = tape_cache.path_for(cols, machine_config)
            if path is not None and not path.exists():
                tape_cache.store(cols, tape)
        if path is None or not path.exists():
            if spill_cache is None:
                spill_cache = TapeCache(_spill_dir())
            path = spill_cache.path_for(cols, machine_config)
            if not path.exists():
                spill_cache.store(cols, tape)
        tape_paths.append((machine_config, str(path)))
    return str(cols_path), tuple(tape_paths)


# ---------------------------------------------------------------- entry point


def run_sharded(
    cols: ColumnarTrace,
    configs,
    *,
    jobs: int = 1,
    tape_cache=None,
    recorder=None,
) -> list[DetectionResult]:
    """Detect over ``cols`` with every config, one worker task per config.

    Results are bit-for-bit identical to the scalar reference path (pinned
    by ``tests/engine/test_sharded_path.py``), in ``configs`` order.
    ``jobs`` bounds worker processes; with ``jobs=1`` (or one config) the
    tasks run in this process through the same spill, map and decode a
    worker takes.  ``tape_cache`` persists the machine tapes so reruns —
    and the workers — skip the simulator entirely.  A flight ``recorder``
    gets the parent's tape fetches and ``spill`` as frames and each
    worker's exact step time as that core's walk.
    """
    from repro.harness.detectors import DetectorConfig, make_detector
    from repro.harness.parallel import fan_out

    configs = tuple(DetectorConfig.coerce(config) for config in configs)
    if not configs:
        raise EngineError("run_sharded needs at least one detector config")
    frame = recorder.frame if recorder is not None else nullcontext

    # Record (or cache-load) each machine's tape once, in the parent.
    tapes: dict = {}
    for config in configs:
        machine_config = getattr(make_detector(config).core(), "machine_config", None)
        if machine_config is not None and machine_config not in tapes:
            tapes[machine_config] = MachineTape.for_columns(
                cols, machine_config, cache=tape_cache, recorder=recorder
            )
    with frame("spill"):
        cols_path, tape_paths = _shared_paths(cols, tapes, tape_cache)

    # fan_out returns completion order; the task index restores add order.
    walks: list = [None] * len(configs)
    for index, *walk in fan_out(
        tuple(enumerate(configs)),
        _shard_run,
        jobs=jobs,
        initializer=_shard_init,
        initargs=(ShardSpec(cols_path=cols_path, tape_paths=tape_paths),),
        serial_cleanup=_reset_shard_worker,
    ):
        walks[index] = walk
    if recorder is not None:
        # The workers' walks overlap in wall time: each counts over them.
        workers = min(jobs, len(configs))
        for _, name, wall in walks:
            recorder.record_core_walk(name, cols.n, wall, workers)
    return [result for result, _, _ in walks]
