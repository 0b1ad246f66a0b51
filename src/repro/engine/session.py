"""The single-pass engine: one trace walk feeding many detector cores.

The paper evaluates every detector configuration over the *identical*
execution (Section 5.1).  :class:`EngineSession` turns that methodology into
the execution strategy: the interleaved trace is walked **once**, each event
dispatched to every registered :class:`~repro.reporting.DetectorCore`.  On
the scalar walk every machine-backed core simulates its own
:class:`~repro.sim.machine.Machine`, exactly as
:func:`~repro.reporting.run_core` does.

When no emitter or metrics collection is active, every core is driven
through its batch protocol (``begin_batch``/``step_batch``/``finish_batch``)
on the *vectorized* walk instead, one kernel at a time: each core runs
its whole life over the columnar trace
(:meth:`~repro.common.events.Trace.columns`) — ``begin_batch``, **one**
``step_batch`` over every event, ``finish_batch`` — with the cyclic garbage
collector paused, and is freed before the next core begins
(:func:`walk_batch_core`).  The simulated machine's data-path is
prerecorded once per (columns, machine config) by
:class:`~repro.engine.tape.MachineTape`.  Results remain bit-for-bit
identical to the scalar walk; ``path="scalar"`` forces the per-event
reference oracle and ``path="batch"`` asserts the vectorized path is
actually taken.  A custom core without a batch kernel runs only on
``path="scalar"``: a session never splits its cores between walks.

A :class:`~repro.obs.telemetry.FlightRecorder` on the bundle
(``obs.telemetry``) never changes the path choice.  On the batch walk it
times each core's single ``step_batch`` call exactly (two ``perf_counter``
calls per core) and frames the columnar pack, each tape fetch,
``begin_batch``, ``finish_batch`` and the ``release`` of the core's state;
on the sharded path it frames the parent's side; on the scalar walk it
times each core's loop as a whole.

``path="sharded"`` goes one step further: the trace is partitioned by
address (:mod:`repro.engine.shard`) and each shard's batch walk runs in a
worker process reading the columns and tape out of shared ``mmap`` pages,
with per-shard results merged losslessly.  Under ``"auto"`` the sharded
path is selected when the session has worker budget (``jobs > 1``), every
core was registered by config, and the trace is large enough
(``shard_threshold`` events) for the fan-out to pay for itself.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from repro.common.errors import ReproError
from repro.common.events import Trace
from repro.common.gcpause import gc_paused


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
        shards: int | None = None,
        tape_cache=None,
        shard_threshold: int | None = None,
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
        self.shards = shards
        self.tape_cache = tape_cache
        if shard_threshold is None:
            from repro.engine.shard import DEFAULT_SHARD_THRESHOLD

            shard_threshold = DEFAULT_SHARD_THRESHOLD
        self.shard_threshold = shard_threshold
        self._cores: list = []
        #: Parallel to ``_cores``: the DetectorConfig a core was registered
        #: with (None for cores added directly) — the sharded path rebuilds
        #: cores from these in worker processes.
        self._configs: list = []
        self._ran = False
        #: Op-kind census estimates of the last telemetry-recorded run.
        self._census: dict | None = None
        #: The walk :meth:`run` took — ``"batch"``, ``"scalar"``,
        #: ``"sharded"`` or ``"traced"`` — set by :meth:`run`.
        self.path_taken: str | None = None
        #: Why ``path="auto"`` did not take the batch walk (e.g.
        #: ``"metrics collection active"``); None when nothing fell back.
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
        tracing = obs is not None and obs.emitter.enabled
        recorder = obs.telemetry if obs is not None else None
        source = self._trace if self._trace is not None else self._cols
        if recorder is not None:
            self._census = recorder.observe_trace(source)

        # Batch path: emitter and metrics hooks fire per event inside scalar
        # ``step`` implementations, so either forces the scalar walk —
        # recorded as the fallback under "auto", an error under "batch" and
        # "sharded".  A flight recorder rides every walk.
        if tracing:
            obs_blocker = "trace emitter active"
        elif obs is not None and obs.active:
            obs_blocker = "metrics collection active"
        else:
            obs_blocker = None
        if self.path == "auto":
            self.fallback = obs_blocker

        if tracing and self.path not in ("batch", "sharded"):
            self.path_taken = "traced"
            for core in self._cores:
                core.begin(self.trace, obs=obs)
            self._walk_traced(recorder)
            return [core.finish() for core in self._cores]

        batch_allowed = self.path != "scalar" and obs_blocker is None
        if self.path in ("batch", "sharded") and not batch_allowed:
            raise EngineError(
                f"engine path {self.path!r} is incompatible with an active "
                "trace emitter or metrics collection"
            )
        if batch_allowed:
            lacking = [c.name for c in self._cores if not hasattr(c, "begin_batch")]
            if lacking:
                raise EngineError(
                    "the batch and sharded walks need begin_batch/step_batch/"
                    f"finish_batch, which these cores lack: {', '.join(lacking)}; "
                    'run them with path="scalar"'
                )
        sharded_ok = batch_allowed and all(
            config is not None for config in self._configs
        )
        if self.path == "sharded":
            if not sharded_ok:
                raise EngineError(
                    "engine path 'sharded' requires every core to be "
                    "registered via add_config, so worker processes can "
                    "rebuild the cores from their configs"
                )
            self.path_taken = "sharded"
            return self._run_sharded(recorder)
        if (
            self.path == "auto"
            and sharded_ok
            and self.jobs > 1
            and len(source) >= self.shard_threshold
        ):
            self.path_taken = "sharded"
            return self._run_sharded(recorder)
        if batch_allowed:
            self.path_taken = "batch"
            return self._walk_batch(recorder)

        # The scalar walk: each core runs alone, with its own machine, and
        # is released once finished, like a batch kernel.  Under a flight
        # recorder each core's loop is one timed walk.
        self.path_taken = "scalar"
        perf = time.perf_counter
        walk = recorder.walk if recorder is not None else nullcontext
        results = []
        for index in range(len(self._cores)):
            core = self._take(index)
            core.begin(self.trace, obs=obs)
            step = core.step
            t0 = perf()
            with walk():
                for event in self.trace:
                    step(event)
            if recorder is not None:
                wall = perf() - t0
                recorder.record_core_walk(core.name, len(self.trace), wall)
            results.append(core.finish())
            del core, step
        return results

    def _run_sharded(self, recorder) -> list:
        # The sharded walk: shard.run_sharded rebuilds each config's core
        # per shard in worker processes and merges the results losslessly.
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
                shards=self.shards,
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

        walk = recorder.walk if recorder is not None else nullcontext
        frame = recorder.frame if recorder is not None else nullcontext
        with walk():
            with frame("pack"):
                cols = self.columns()

            def tape_for(machine_config):
                return MachineTape.for_columns(
                    cols, machine_config, self.tape_cache, recorder
                )

            return [
                walk_batch_core(self._take(index), cols, tape_for, recorder)
                for index in range(len(self._cores))
            ]

    def _take(self, index: int):
        # Hand the session's reference to one core over to the caller.
        core = self._cores[index]
        self._cores[index] = None
        return core

    def _walk_traced(self, recorder=None) -> None:
        # Emitter active: the walk emits one span per core with its
        # cumulative step time.  Per-core timing is exact here too, so a
        # flight recorder (if any) gets each core's summed step time.
        emitter = self.obs.emitter
        steps = [core.step for core in self._cores]
        spent = [0.0] * len(steps)
        perf = time.perf_counter
        walk = recorder.walk if recorder is not None else nullcontext
        with walk(), emitter.span("engine.walk", cores=len(steps)):
            for event in self.trace:
                for index, step in enumerate(steps):
                    t0 = perf()
                    step(event)
                    spent[index] += perf() - t0
        for core, wall in zip(self._cores, spent):
            emitter.emit(
                "span", name=f"engine.core.{core.name}", wall_s=round(wall, 6)
            )
        if recorder is not None:
            events = len(self.trace)
            for core, wall in zip(self._cores, spent):
                recorder.record_core_walk(core.name, events, wall)


def walk_batch_core(core, cols, tape_for, recorder=None):
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
    ``release`` frames and the core's exact step time.
    """
    machine_config = getattr(core, "machine_config", None)
    tape = tape_for(machine_config) if machine_config is not None else None
    frame = recorder.frame if recorder is not None else nullcontext
    perf = time.perf_counter
    with gc_paused():
        with frame("begin_batch"):
            core.begin_batch(cols, tape)
        t0 = perf()
        core.step_batch(cols, 0, cols.n)
        wall = perf() - t0
        with frame("finish_batch"):
            result = core.finish_batch()
        name = core.name
        with frame("release"):
            del core
    if recorder is not None:
        recorder.record_core_walk(name, cols.n, wall)
    return result


def detect_with_engine(
    trace, detectors, obs=None, path: str = "auto", *, jobs: int = 1
) -> list:
    """Run ``detectors`` (an iterable) over ``trace`` in one session.

    ``trace`` may be a :class:`~repro.common.events.Trace` or a
    :class:`~repro.common.coltrace.ColumnarTrace`; ``path`` selects the walk
    strategy (``"auto"``, ``"batch"``, ``"scalar"``, or ``"sharded"``), and
    ``jobs`` the sharded path's worker budget.
    """
    session = EngineSession(trace, obs=obs, path=path, jobs=jobs)
    for detector in detectors:
        session.add(detector)
    return session.run()
