"""The single-pass engine: one trace walk feeding many detector cores.

The paper evaluates every detector configuration over the *identical*
execution (Section 5.1).  :class:`EngineSession` turns that methodology into
the execution strategy: the interleaved trace is walked **once** per core,
and every core sees the exact event sequence
:func:`~repro.reporting.run_core` would feed it.  A session takes exactly
one of three walks, reported as :attr:`EngineSession.path_taken`.

``"batch"`` (what ``"auto"`` takes) drives every core through its batch
protocol (``begin_batch``/``step_batch``/``finish_batch``), one kernel at a
time: each core runs its whole life over the columnar trace
(:meth:`~repro.common.events.Trace.columns`) — ``begin_batch``, **one**
``step_batch`` over every event, ``finish_batch`` — with the cyclic garbage
collector paused, and is freed before the next core begins
(:func:`walk_batch_core`).  The simulated machine's data-path is
prerecorded once per (columns, machine config) by
:class:`~repro.engine.tape.MachineTape`.  Metrics collection rides this
walk: each kernel books exactly the per-event metrics its scalar ``step``
books, counted where it already branches and flushed in ``finish_batch``.

``"sharded"`` is the parallel walk (:mod:`repro.engine.shard`): each
configuration's whole batch walk runs as one task in a worker process,
reading the columns and tapes out of shared ``mmap`` pages, and the
results come back in add order.  Under ``"auto"`` it is selected when the
session has worker budget (``jobs > 1``), at least
:data:`~repro.engine.shard.SHARD_MIN_CONFIGS` cores, every core
registered by config, a trace of at least
:data:`~repro.engine.shard.SHARD_THRESHOLD` events (short of either, the
fan-out does not pay for itself: the numbers are next to the constants),
and a run not observed per event (workers carry no observability bundle,
so a run with metrics collection or a trace emitter walks batch and
records the fallback).

Trace events ride the batch walk too.  The walk is one ``engine.walk``
span holding one ``engine.core.<name>`` span per core.  The ``hard-default``
kernel emits the paper's detector-internal events (LState transitions,
lockset refinements, Bloom collisions, barrier resets, piggybacks and
candidate-set updates) where it already counts them;
:func:`walk_batch_core` emits each core's ``alarm`` events from its report
log and, for a machine-backed core, the ``cache.evict`` and
``l2.displacement`` events of its tape (:meth:`MachineTape.emit_evictions
<repro.engine.tape.MachineTape.emit_evictions>`).

``"scalar"`` is the per-event reference oracle, reached only by
``path="scalar"``: each core runs its own loop over the whole trace with
its own :class:`~repro.sim.machine.Machine`, one core's state alive at a
time.  It emits no trace events, so it refuses an active emitter.  A
custom core without a batch kernel runs only on ``path="scalar"``: a
session never splits its cores between walks.  Results are bit-for-bit
identical on every walk.

A :class:`~repro.obs.telemetry.FlightRecorder` on the bundle
(``obs.telemetry``) never changes the path choice.  On the batch walk it
times each core's single ``step_batch`` call exactly (two ``perf_counter``
calls per core) and frames the columnar pack, each tape fetch,
``begin_batch``, ``finish_batch`` and the ``release`` of the core's state;
on the sharded path it frames the parent's tape fetches and ``spill`` and
gets each worker's exact step time; on the scalar walk it times each
core's loop as a whole.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from repro.common.errors import ReproError
from repro.common.events import Trace
from repro.common.gcpause import gc_paused
from repro.obs.trace import NULL_EMITTER, emit_alarm
from repro.reporting import DetectionResult, book_alarms


class EngineError(ReproError):
    """Misuse of an :class:`EngineSession` (reuse, post-run adds…)."""


class EngineSession:
    """One single-pass walk of one trace over any number of cores.

    Usage::

        session = EngineSession(trace)
        session.add(HardDetector(...))
        session.add_config(DetectorConfig("hb-default"))
        results = session.run()   # DetectionResults, in add order

    Sessions are single-use: ``run`` may be called once, and cores cannot
    be added afterwards.  ``add_core`` also accepts auxiliary cores whose
    ``finish`` returns something other than a
    :class:`~repro.reporting.DetectionResult` (e.g. a trace-statistics
    collector); their results appear at the same position in the returned
    list.
    """

    def __init__(
        self,
        trace,
        obs=None,
        path: str = "auto",
        *,
        jobs: int = 1,
        tape_cache=None,
    ):
        if path not in ("auto", "batch", "scalar", "sharded"):
            raise EngineError(
                f"unknown engine path {path!r} "
                "(expected auto, batch, scalar or sharded)"
            )
        if isinstance(trace, Trace):
            self._trace = trace
            self._cols = None
        else:  # a ColumnarTrace: materialise event objects only if needed
            self._trace = None
            self._cols = trace
        self.obs = obs
        self.path = path
        self.jobs = max(1, int(jobs))
        self.tape_cache = tape_cache
        self._cores: list = []
        #: Parallel to ``_cores``: the DetectorConfig a core was registered
        #: with (None for cores added directly) — the sharded path rebuilds
        #: cores from these in worker processes.
        self._configs: list = []
        self._ran = False
        #: Op-kind census estimates of the last telemetry-recorded run.
        self._census: dict | None = None
        #: The walk :meth:`run` took — ``"batch"``, ``"scalar"`` or
        #: ``"sharded"`` — set by :meth:`run`.
        self.path_taken: str | None = None
        #: Why ``path="auto"`` did not take the walk it would have taken
        #: without observability: ``"per-event observability active"``
        #: (batch, not sharded); None when nothing fell back.
        self.fallback: str | None = None

    @property
    def trace(self) -> Trace:
        """The event-object view of the input (materialised on demand)."""
        trace = self._trace
        if trace is None:
            trace = self._trace = self._cols.to_trace()
        return trace

    def columns(self):
        """The columnar view of the input (memoised either way)."""
        cols = self._cols
        if cols is None:
            cols = self._cols = self._trace.columns()
        return cols

    # ------------------------------------------------------------ registration

    def add(self, detector):
        """Register a detector (via its ``core()``); returns the core."""
        return self.add_core(detector.core())

    def add_config(self, config):
        """Register a harness :class:`DetectorConfig`; returns the core."""
        from repro.harness.detectors import DetectorConfig, make_detector

        config = DetectorConfig.coerce(config)
        core = self.add(make_detector(config))
        self._configs[-1] = config
        return core

    def add_core(self, core):
        """Register a prepared core (detector or auxiliary); returns it."""
        if self._ran:
            raise EngineError("cannot add cores to a session that already ran")
        self._cores.append(core)
        self._configs.append(None)
        return core

    def close(self) -> None:
        """Release the session's columnar resources (idempotent).

        Drops the memoised machine tapes and, when the columnar view is
        ``mmap``-backed (a trace-cache load), releases the mapping — after
        which the input columns must not be reused.  Long sweeps call this
        per cell so file descriptors don't pile up until GC.
        """
        cols = self._cols
        if cols is not None:
            cols.close()

    # --------------------------------------------------------------------- run

    def run(self) -> list:
        """Walk the trace once per replay context; results in add order.

        Batch cores share no state, so the vectorized walk runs them one
        at a time, in add order: each consumes the whole trace in one
        ``step_batch`` call and is released before the next begins, so at
        most one kernel's state is alive.  On the scalar walk each core
        runs its own tight loop over the whole trace, with its own machine.
        Either way every core sees the exact event sequence
        :func:`~repro.reporting.run_core` would feed it, so results are
        bit-for-bit identical.  Results are kept by position: a released
        core's ``id`` may be reused by the next one.
        """
        if self._ran:
            raise EngineError("EngineSession is single-use; build a new one")
        if not self._cores:
            raise EngineError("no cores registered")
        self._ran = True
        obs = self.obs
        recorder = obs.telemetry if obs is not None else None
        source = self._trace if self._trace is not None else self._cols
        if recorder is not None:
            self._census = recorder.observe_trace(source)

        # Metrics and trace events ride the batch kernels; the scalar walk
        # emits nothing, and shard workers carry no observability bundle,
        # so an observed run never shards.  A flight recorder rides every
        # walk.
        if self.path == "scalar":
            if obs is not None and obs.emitter.enabled:
                raise EngineError(
                    "engine path 'scalar' emits no trace events: trace "
                    "emission rides the batch walk; run with path 'auto' or "
                    "'batch'"
                )
            self.path_taken = "scalar"
            return self._walk_scalar(recorder)
        lacking = [c.name for c in self._cores if not hasattr(c, "begin_batch")]
        if lacking:
            raise EngineError(
                "the batch and sharded walks need begin_batch/step_batch/"
                f"finish_batch, which these cores lack: {', '.join(lacking)}; "
                'run them with path="scalar"'
            )
        observed = obs is not None and obs.active
        sharded_ok = all(config is not None for config in self._configs)
        if self.path == "sharded":
            if observed:
                raise EngineError(
                    "engine path 'sharded' is incompatible with metrics "
                    "collection and trace emission: shard workers carry no "
                    "observability bundle; run with path 'auto' or 'batch'"
                )
            if not sharded_ok:
                raise EngineError(
                    "engine path 'sharded' requires every core to be "
                    "registered via add_config, so worker processes can "
                    "rebuild the cores from their configs"
                )
            self.path_taken = "sharded"
            return self._run_sharded(recorder)
        from repro.engine import shard

        if (
            self.path == "auto"
            and sharded_ok
            and self.jobs > 1
            and len(self._cores) >= shard.SHARD_MIN_CONFIGS
            and len(source) >= shard.SHARD_THRESHOLD
        ):
            if not observed:
                self.path_taken = "sharded"
                return self._run_sharded(recorder)
            self.fallback = "per-event observability active"
        self.path_taken = "batch"
        return self._walk_batch(recorder)

    def _walk_scalar(self, recorder) -> list:
        # The scalar walk: each core runs alone, with its own machine, and
        # is released once finished, like a batch kernel.  Under a flight
        # recorder each core's loop is one timed walk.
        perf = time.perf_counter
        walk = recorder.walk if recorder is not None else nullcontext
        trace = self.trace
        results = []
        for index in range(len(self._cores)):
            core = self._take(index)
            core.begin(trace, obs=self.obs)
            step = core.step
            t0 = perf()
            with walk():
                for event in trace:
                    step(event)
            if recorder is not None:
                wall = perf() - t0
                recorder.record_core_walk(core.name, len(trace), wall)
            result = core.finish()
            book_alarms(self.obs, result)
            results.append(result)
            del core, step
        return results

    def _run_sharded(self, recorder) -> list:
        # The parallel walk: shard.run_sharded rebuilds each config's core
        # in a worker process and walks it there, one task per config.
        from repro.engine.shard import run_sharded

        walk = recorder.walk if recorder is not None else nullcontext
        frame = recorder.frame if recorder is not None else nullcontext
        with walk():
            with frame("pack"):
                cols = self.columns()
            return run_sharded(
                cols,
                self._configs,
                jobs=self.jobs,
                tape_cache=self.tape_cache,
                recorder=recorder,
            )

    def _walk_batch(self, recorder) -> list:
        # The kernel-major walk: every core runs alone, in add order,
        # through walk_batch_core.  The session hands over its only
        # reference (_take), so a finished kernel's state is freed before
        # the next core allocates.  Machine-backed cores get a MachineTape —
        # the recorded data-path of (columns, machine config), memoised on
        # the columns so later cores and sessions replay nothing (and
        # persisted via the tape cache so later *processes* replay nothing).
        from repro.engine.tape import MachineTape

        obs = self.obs
        walk = recorder.walk if recorder is not None else nullcontext
        frame = recorder.frame if recorder is not None else nullcontext
        span = obs.emitter.span if obs is not None else NULL_EMITTER.span
        with walk():
            with frame("pack"):
                cols = self.columns()

            def tape_for(machine_config):
                return MachineTape.for_columns(
                    cols, machine_config, self.tape_cache, recorder
                )

            with span("engine.walk", cores=len(self._cores)):
                return [
                    walk_batch_core(self._take(index), cols, tape_for, recorder, obs)
                    for index in range(len(self._cores))
                ]

    def _take(self, index: int):
        # Hand the session's reference to one core over to the caller.
        core = self._cores[index]
        self._cores[index] = None
        return core


def walk_batch_core(core, cols, tape_for, recorder=None, obs=None):
    """Run one batch core's whole life over ``cols``; returns its result.

    A machine-backed core first gets its tape from ``tape_for(machine
    config)`` (a callback, so a caller can build or take the core inside
    the call and keep no reference of its own).  Then ``begin_batch``, **one** ``step_batch`` over every
    event (the kernels handle BARRIER inline) and ``finish_batch`` run
    inside one :func:`~repro.common.gcpause.gc_paused` scope.  The kernels
    build no reference cycles (``tests/engine/test_gc_pause.py``), so the
    pause defers no garbage; it only spares the collector from traversing
    the kernel's live state again and again.  The core is dropped before
    the pause ends: a caller that passes its last reference gets the
    kernel's state freed right there, before collection is back on and
    before the next core allocates.

    A flight ``recorder`` gets the ``begin_batch``, ``finish_batch`` and
    ``release`` frames and the core's exact step time.  ``obs`` goes to
    ``begin_batch``: with metrics collection on, the kernel books its
    per-event metrics into ``obs.metrics`` in ``finish_batch``, and an
    enabled emitter gets the kernel's own events.  The walk then emits,
    inside one ``engine.core.<name>`` span, the ``cache.evict`` and
    ``l2.displacement`` events of the core's tape and the ``alarm`` events
    of its report log, in log order.
    """
    machine_config = getattr(core, "machine_config", None)
    tape = tape_for(machine_config) if machine_config is not None else None
    frame = recorder.frame if recorder is not None else nullcontext
    emitter = obs.emitter if obs is not None else NULL_EMITTER
    perf = time.perf_counter
    name = core.name
    with emitter.span(f"engine.core.{name}"):
        with gc_paused():
            with frame("begin_batch"):
                core.begin_batch(cols, tape, obs=obs)
            t0 = perf()
            core.step_batch(cols, 0, cols.n)
            wall = perf() - t0
            with frame("finish_batch"):
                result = core.finish_batch()
            with frame("release"):
                del core
        book_alarms(obs, result)
        if emitter.enabled:
            if tape is not None:
                tape.emit_evictions(emitter)
            if isinstance(result, DetectionResult):
                for report in result.reports:
                    emit_alarm(emitter, report)
    if recorder is not None:
        recorder.record_core_walk(name, cols.n, wall)
    return result

