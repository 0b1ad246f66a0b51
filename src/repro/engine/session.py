"""The single-pass engine: one trace walk feeding many detector cores.

The paper evaluates every detector configuration over the *identical*
execution (Section 5.1).  :class:`EngineSession` turns that methodology into
the execution strategy: the interleaved trace is walked **once**, each event
dispatched to every registered :class:`~repro.reporting.DetectorCore`, and
machine-backed cores with equal :class:`~repro.common.config.MachineConfig`s
share one cache/coherence replay via
:class:`~repro.engine.machineshare.MachineGroup`.  Results are bit-for-bit
identical to running each detector's legacy ``run(trace)`` alone — pinned by
``tests/engine/test_equivalence.py``.

Machine sharing is disabled while an obs *emitter* is enabled: the simulator
emits cache events (``l2.displacement``, ``cache.evict``…) through the
machine, and sharing would conflate which detector's replay produced them.
Metrics-only observability is share-safe — the machine's behaviour depends
on ``obs`` only through the emitter.

A :class:`~repro.obs.telemetry.FlightRecorder` on the bundle
(``obs.telemetry``) is also share-safe: the engine switches to sampled walk
variants that dispatch the *identical* event sequence and add only one
countdown per stepped event, timing every ``sample_period``-th step to
estimate per-core wall time, events/sec, and the lane dedup ratio.

When no observability is active, cores that advertise the batch protocol
(``begin_batch``/``step_batch``/``finish_batch``) are driven through the
*vectorized* walk instead: whole sync runs of the columnar trace
(:meth:`~repro.common.events.Trace.columns`) in one call each, with the
simulated machine's data-path prerecorded once per
(columns, machine config) by :class:`~repro.engine.tape.MachineTape`.
Results remain bit-for-bit identical to the scalar walk; ``path="scalar"``
forces the per-event reference oracle and ``path="batch"`` asserts the
vectorized path is actually taken.

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

from repro.common.errors import ReproError
from repro.common.events import OpKind, Trace
from repro.engine.machineshare import MachineGroup


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
        #: ``"batch+scalar"`` (cores without a batch kernel stepped
        #: scalar), ``"sharded"`` or ``"traced"`` — set by :meth:`run`.
        self.path_taken: str | None = None
        #: Why ``path="auto"`` did not take the batch walk for every core
        #: (e.g. ``"flight recorder active"``); None when nothing fell back.
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

        Cores that share a machine must consume events in lockstep with the
        shared replay, so each :class:`MachineGroup` is driven by one
        interleaved walk.  Independent cores — trace-only detectors and
        machine-backed cores with a unique machine configuration — have no
        cross-core state, so they run in their own tight loops instead,
        which avoids the per-event dispatch overhead entirely.  Either way
        every core sees the exact event sequence ``Detector.run`` would
        feed it, so results are bit-for-bit identical.
        """
        if self._ran:
            raise EngineError("EngineSession is single-use; build a new one")
        if not self._cores:
            raise EngineError("no cores registered")
        self._ran = True
        obs = self.obs
        tracing = obs is not None and obs.emitter.enabled
        recorder = obs.telemetry if obs is not None else None
        if recorder is not None:
            self._census = recorder.observe_trace(self.trace)

        # Batch path: observability hooks fire per event inside scalar
        # ``step`` implementations, so any active obs (emitter, metrics, or
        # a flight recorder) forces the scalar walk — recorded as the
        # fallback under "auto", an error under "batch" and "sharded".
        if tracing:
            obs_blocker = "trace emitter active"
        elif recorder is not None:
            obs_blocker = "flight recorder active"
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
        sharded_ok = batch_allowed and all(
            config is not None for config in self._configs
        )
        if self.path == "sharded":
            if not batch_allowed:
                raise EngineError(
                    "engine path 'sharded' is incompatible with active "
                    "observability (emitter, metrics, or flight recorder)"
                )
            if not sharded_ok:
                raise EngineError(
                    "engine path 'sharded' requires every core to be "
                    "registered via add_config, so worker processes can "
                    "rebuild the cores from their configs"
                )
            self.path_taken = "sharded"
            return self._run_sharded()
        if (
            self.path == "auto"
            and sharded_ok
            and self.jobs > 1
            and self.columns().n >= self.shard_threshold
        ):
            self.path_taken = "sharded"
            return self._run_sharded()
        if self.path == "batch":
            if not batch_allowed:
                raise EngineError(
                    "engine path 'batch' is incompatible with active "
                    "observability (emitter, metrics, or flight recorder)"
                )
            laggards = [
                core.name
                for core in self._cores
                if not hasattr(core, "begin_batch")
            ]
            if laggards:
                raise EngineError(
                    "engine path 'batch' requires step_batch support, "
                    f"which these cores lack: {', '.join(laggards)}"
                )
        batch_cores = (
            [core for core in self._cores if hasattr(core, "begin_batch")]
            if batch_allowed
            else []
        )
        batch_ids = {id(core) for core in batch_cores}
        scalar_cores = [c for c in self._cores if id(c) not in batch_ids]
        if not scalar_cores:
            self.path_taken = "batch"
        else:
            self.path_taken = "batch+scalar" if batch_cores else "scalar"
            if self.path == "auto" and batch_allowed:
                self.fallback = "no batch kernel: " + ", ".join(
                    core.name for core in scalar_cores
                )

        if batch_cores:
            self._walk_batch(batch_cores)

        groups: dict = {}
        for core in scalar_cores:
            machine_config = getattr(core, "machine_config", None)
            if machine_config is None:
                continue
            group = groups.get(machine_config)
            if group is None:
                groups[machine_config] = group = MachineGroup(machine_config)
            group.members.append(core)

        solo: list = []
        for core in scalar_cores:
            machine_config = getattr(core, "machine_config", None)
            group = groups.get(machine_config) if machine_config is not None else None
            if group is not None and len(group.members) > 1:
                core.begin(self.trace, obs=obs, machine=group.lane())
            else:
                solo.append(core)
        for group in groups.values():
            if len(group.members) > 1:
                if recorder is not None:
                    self._walk_group_sampled(group, recorder)
                else:
                    self._walk_group(group)
        for core in solo:
            core.begin(self.trace, obs=obs)
            if recorder is not None:
                self._walk_solo_sampled(core, recorder)
            else:
                step = core.step
                for event in self.trace:
                    step(event)
        return [
            core.finish_batch() if id(core) in batch_ids else core.finish()
            for core in self._cores
        ]

    def _run_sharded(self) -> list:
        # The sharded walk: shard.run_sharded rebuilds each config's core
        # per shard in worker processes and merges the results losslessly.
        from repro.engine.shard import run_sharded

        return run_sharded(
            self.columns(),
            self._configs,
            jobs=self.jobs,
            shards=self.shards,
            tape_cache=self.tape_cache,
        )

    def _walk_batch(self, cores: list) -> None:
        # The vectorized walk: cores consume whole sync runs of the columnar
        # trace in one ``step_batch`` call each.  Machine-backed cores get a
        # MachineTape — the recorded data-path of (columns, machine config),
        # memoised on the columns so repeated sessions replay nothing (and
        # persisted via the tape cache so later *processes* replay nothing).
        from repro.engine.tape import MachineTape

        cols = self.columns()
        for core in cores:
            machine_config = getattr(core, "machine_config", None)
            tape = (
                MachineTape.for_columns(
                    cols, machine_config, cache=self.tape_cache
                )
                if machine_config is not None
                else None
            )
            core.begin_batch(cols, tape)
        for run in cols.sync_runs():
            lo = run.lo
            hi = run.hi
            for core in cores:
                core.step_batch(cols, lo, hi)

    def _walk_group_sampled(self, group: MachineGroup, recorder) -> None:
        # The flight-recorder variant of _walk_group: identical event
        # dispatch (so results stay bit-for-bit), plus one countdown per
        # stepped event; every sample_period-th stepped event times each
        # member's step individually.  The sampled means scale to per-core
        # wall estimates, and the stepped count falls out of the countdown
        # arithmetic — no extra per-event accounting.
        feed = group.feed
        steps = [core.step for core in group.members]
        indices = range(len(steps))
        COMPUTE = OpKind.COMPUTE
        perf = time.perf_counter
        period = recorder.sample_period
        countdown = period
        samples = 0
        spent = [0.0] * len(steps)
        t_walk = perf()
        for event in self.trace:
            feed(event)
            if event.op.kind is not COMPUTE:
                countdown -= 1
                if countdown:
                    for step in steps:
                        step(event)
                else:
                    countdown = period
                    samples += 1
                    for index in indices:
                        t0 = perf()
                        steps[index](event)
                        spent[index] += perf() - t0
        wall = perf() - t_walk
        stepped = samples * period + (period - countdown)
        recorder.record_walk(wall)
        for core, sampled_s in zip(group.members, spent):
            recorder.record_core_walk(core.name, stepped, sampled_s, samples)
        recorder.record_group(len(steps), group.accesses)

    def _walk_solo_sampled(self, core, recorder) -> None:
        # Sampled walk of one independent core (own machine or trace-only).
        step = core.step
        perf = time.perf_counter
        period = recorder.sample_period
        countdown = period
        samples = 0
        spent = 0.0
        t_walk = perf()
        for event in self.trace:
            countdown -= 1
            if countdown:
                step(event)
            else:
                countdown = period
                samples += 1
                t0 = perf()
                step(event)
                spent += perf() - t0
        wall = perf() - t_walk
        stepped = samples * period + (period - countdown)
        recorder.record_walk(wall)
        recorder.record_core_walk(core.name, stepped, spent, samples)

    def _walk_group(self, group: MachineGroup) -> None:
        # COMPUTE events touch only the shared machine's cycle ledger (the
        # group charges it once; lane charges of "compute" are no-ops), and
        # BARRIER events touch no machine state at all — so the member
        # dispatch can skip nothing: members still need BARRIER (resets) but
        # not COMPUTE.
        feed = group.feed
        steps = [core.step for core in group.members]
        COMPUTE = OpKind.COMPUTE
        for event in self.trace:
            feed(event)
            if event.op.kind is not COMPUTE:
                for step in steps:
                    step(event)

    def _walk_traced(self, recorder=None) -> None:
        # Emitter active: every core replays its own machine (no sharing),
        # and the walk emits one span per core with its cumulative step time.
        # Per-core timing is exact here, so a flight recorder (if any) gets
        # samples == stepped rather than a sampled estimate.
        emitter = self.obs.emitter
        steps = [core.step for core in self._cores]
        spent = [0.0] * len(steps)
        perf = time.perf_counter
        t_walk = perf()
        with emitter.span("engine.walk", cores=len(steps)):
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
            recorder.record_walk(perf() - t_walk)
            for core, wall in zip(self._cores, spent):
                recorder.record_core_walk(core.name, events, wall, events)


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
