"""The engine flight recorder: cheap, exact telemetry of one engine pass.

A :class:`FlightRecorder` answers "where does engine time actually go" on
the walk that actually runs: it rides the batch and sharded walks without
changing the path choice.  It records:

* **per-core step time** — exact (each core makes one ``step_batch`` call
  over the whole trace, and that call is timed; on the sharded path the
  worker times it and sends it back), with events/sec and mean step
  latency derived from it;
* **walk frames** — ``engine;walk`` and one leaf per layer (columnar
  ``pack``, ``tape.record``/``tape.memo``/``tape.load``, ``begin_batch``,
  ``core.<name>``, ``finish_batch``, ``release`` of a finished core's
  state; ``spill`` and the workers' ``core.<name>`` on the sharded path),
  plus the share of the walk the leaves attribute (on the sharded path
  the workers' step times overlap in wall time, so they count as worker
  seconds over workers, which keeps the share in [0, 1]);
* **sync-point density** — locks/unlocks/barriers per 1k trace events,
  from a strided census of the trace (stride
  :attr:`~FlightRecorder.census_stride`, so the census touches ~1.5% of
  events);
* **per-phase wall time** — hierarchical :meth:`frame` regions that also
  power the collapsed-stack (flamegraph-compatible) dump;
* **garbage collection** — while a walk runs, a :data:`gc.callbacks` hook
  counts the collector's runs per generation and times each pause, and
  ``derived.gc_pause_frac`` gives the pauses' share of the walk.  The
  batch walk pauses the collector around each kernel
  (:func:`~repro.common.gcpause.gc_paused`), so there these counters see
  only the collections outside kernel walks: the pack, tape fetches, and
  the first allocations after a pause ends.

The recorder rides the :class:`~repro.obs.Observability` bundle as its
``telemetry`` attribute.  Recorders merge associatively (:meth:`merge`),
so parallel grid workers can each carry one and fan their telemetry back
in, exactly like :class:`~repro.obs.metrics.MetricsRegistry` shards.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager

from repro.common.events import OpKind
from repro.common.fsio import atomic_write_text
from repro.obs.metrics import MetricsRegistry

#: Bumped on any backwards-incompatible change to :meth:`FlightRecorder.snapshot`.
TELEMETRY_SCHEMA_VERSION = 3

#: The op-kind census reads one trace event in this many.
DEFAULT_CENSUS_STRIDE = 64

#: Op kinds that are synchronization points (the HARD hot-path events).
SYNC_KINDS = (OpKind.LOCK, OpKind.UNLOCK, OpKind.BARRIER)

#: The per-core aggregate fields (:attr:`FlightRecorder.cores` entries).
_CORE_FIELDS = ("stepped", "walks", "wall_s")

#: The frame every engine walk's leaf frames nest under.
_WALK_FRAME = ("engine", "walk")

#: Collections counted during walks, one counter per GC generation.
_GC_COUNTERS = tuple(f"telemetry.gc.gen{gen}" for gen in range(3))

#: Every collector pause during a walk, one interval per collection.
_GC_PAUSE_TIMER = "telemetry.gc.pause"


class FlightRecorder:
    """Counters, exact per-core walk times, and hierarchical frames.

    Args:
        census_stride: read one trace event in this many for the op-kind
            census (>= 1).
        registry: the metrics registry counters land in; a fresh private
            registry by default.
    """

    def __init__(
        self,
        census_stride: int = DEFAULT_CENSUS_STRIDE,
        registry: MetricsRegistry | None = None,
    ):
        if census_stride < 1:
            raise ValueError(f"census_stride must be >= 1: {census_stride}")
        self.census_stride = census_stride
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Per-core walk aggregates, keyed by core name.
        self.cores: dict[str, dict] = {}
        #: Cumulative wall seconds per frame path (flamegraph stacks).
        self.frames: dict[tuple[str, ...], float] = {}
        self._frame_stack: list[str] = []
        #: Seconds of ``core.<name>`` frames that ran at the same time as
        #: others (a sharded walk's workers), left out of the walk's
        #: attributed share.
        self._overlap_s = 0.0
        #: ``perf_counter`` at the start of the collection in progress.
        self._gc_t0 = 0.0
        self._gc_pause = self.registry.timer(_GC_PAUSE_TIMER)

    # ------------------------------------------------------------ frames

    @contextmanager
    def frame(self, name: str):
        """Time the body as one frame nested under the current frame path."""
        self._frame_stack.append(name)
        path = tuple(self._frame_stack)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._frame_stack.pop()
            self.record_frame(path, time.perf_counter() - t0)

    @contextmanager
    def walk(self):
        """Time one engine walk; frames opened inside nest under ``engine;walk``.

        The garbage collector's runs during the walk are counted per
        generation and each pause is timed (:meth:`_on_gc`); the hook is
        removed again when the walk ends.
        """
        outer = self._frame_stack
        self._frame_stack = list(_WALK_FRAME)
        on_gc = self._on_gc
        gc.callbacks.append(on_gc)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            gc.callbacks.remove(on_gc)
            self._frame_stack = outer
            self.record_walk(time.perf_counter() - t0)

    def _on_gc(self, phase: str, info: dict) -> None:
        # A gc.callbacks hook: "start" and "stop" bracket each collection.
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self._gc_pause.observe(time.perf_counter() - self._gc_t0)
            self.registry.add(_GC_COUNTERS[info["generation"]])

    def record_frame(self, path: tuple[str, ...], seconds: float) -> None:
        """Accumulate ``seconds`` of wall time on one frame path."""
        if seconds < 0:
            raise ValueError(f"frame durations must be non-negative: {seconds}")
        self.frames[path] = self.frames.get(path, 0.0) + seconds

    def record_tape(self, source: str, seconds: float) -> None:
        """One machine-tape fetch (``record``, ``memo`` or ``load``) as a frame."""
        self.record_frame((*self._frame_stack, f"tape.{source}"), seconds)

    def collapsed(self) -> str:
        """The frames as flamegraph collapsed-stack lines.

        One line per frame path — ``a;b;c <microseconds>`` — carrying the
        frame's *self* time (its total minus its direct children's totals),
        which is the semantics ``flamegraph.pl`` / speedscope expect.
        """
        children: dict[tuple[str, ...], float] = {}
        for path, seconds in self.frames.items():
            if len(path) > 1:
                parent = path[:-1]
                children[parent] = children.get(parent, 0.0) + seconds
        lines = []
        for path in sorted(self.frames):
            self_s = max(0.0, self.frames[path] - children.get(path, 0.0))
            lines.append(f"{';'.join(path)} {round(self_s * 1e6)}")
        return "\n".join(lines)

    def write_flame(self, path) -> None:
        """Write the collapsed stacks to ``path`` (atomic replace)."""
        atomic_write_text(path, self.collapsed() + "\n")

    # ------------------------------------------------------------- walks

    def observe_trace(self, trace) -> dict:
        """Strided op-kind census of one trace (sync density, access mix).

        Reads one event in :attr:`census_stride` and scales the counts, so
        the census cost is a fixed small fraction of one trace walk.  The
        estimates land in ``telemetry.trace.*`` counters — ``snapshot``
        derives the per-1k sync density from them — and come back as a
        dict (op-kind value → estimated count, plus ``"events"``) for the
        caller's own arithmetic.

        ``trace`` may be a :class:`~repro.common.events.Trace` or a
        :class:`~repro.common.coltrace.ColumnarTrace`; a trace carrying a
        memoized columnar encoding is censused straight off the packed
        ``kind`` column (same stride, same counts, no event objects).
        """
        from repro.common.coltrace import ColumnarTrace, kind_of_code

        events = len(trace)
        estimates: dict[str, int] = {"events": events}
        if not events:
            return estimates
        cols = (
            trace
            if isinstance(trace, ColumnarTrace)
            else getattr(trace, "_columnar", None)
        )
        counts: dict[OpKind, int] = {}
        if cols is not None:
            sampled = cols.kind[:: self.census_stride]
            for code in sampled:
                kind = kind_of_code(code)
                counts[kind] = counts.get(kind, 0) + 1
        else:
            sampled = trace.events[:: self.census_stride]
            for event in sampled:
                kind = event.op.kind
                counts[kind] = counts.get(kind, 0) + 1
        scale = events / len(sampled)
        registry = self.registry
        registry.add("telemetry.trace.events", events)
        registry.add("telemetry.trace.census_samples", len(sampled))
        sync = 0
        for kind, count in counts.items():
            estimate = round(count * scale)
            estimates[kind.value] = estimate
            registry.add(f"telemetry.trace.kind.{kind.value}", estimate)
            if kind in SYNC_KINDS:
                sync += estimate
        registry.add("telemetry.trace.sync_points", sync)
        return estimates

    def record_core_walk(
        self, name: str, stepped: int, wall_s: float, workers: int = 1
    ) -> None:
        """Fold one core's timed walk into the aggregates.

        ``stepped`` is how many events the core consumed, ``wall_s`` the
        exact time it spent consuming them.  ``workers`` is how many
        processes walked cores at once (the sharded walk): the frame keeps
        the whole ``wall_s``, and the walk's attributed share counts
        ``wall_s / workers`` of it.
        """
        entry = self.cores.setdefault(name, dict.fromkeys(_CORE_FIELDS, 0))
        entry["stepped"] += stepped
        entry["walks"] += 1
        entry["wall_s"] += wall_s
        if stepped:
            self.registry.observe("telemetry.step_us", wall_s / stepped * 1e6)
        self.record_frame((*_WALK_FRAME, f"core.{name}"), wall_s)
        self._overlap_s += wall_s - wall_s / max(1, workers)

    def record_walk(self, wall_s: float) -> None:
        """Record one whole engine walk (all cores, one trace pass)."""
        self.registry.add("telemetry.engine.walks")
        self.registry.timer("telemetry.engine.walk").observe(wall_s)
        self.record_frame(_WALK_FRAME, wall_s)

    # ------------------------------------------------------------- merge

    def merge(self, other: "FlightRecorder") -> None:
        """Fold another recorder in (associative and commutative)."""
        self.registry.merge_registry(other.registry)
        for name, entry in other.cores.items():
            mine = self.cores.setdefault(name, dict.fromkeys(_CORE_FIELDS, 0))
            for key, value in entry.items():
                mine[key] += value
        for path, seconds in other.frames.items():
            # Not record_frame: merged frames were already accounted once.
            self.frames[path] = self.frames.get(path, 0.0) + seconds
        self._overlap_s += other._overlap_s

    # ---------------------------------------------------------- snapshot

    def snapshot(self) -> dict:
        """The recorder's state as one JSON-serialisable dict.

        Raw counters plus the derived quantities: per-core events/sec and
        step time, sync-point density per 1k events, the share of walk
        time the walk's leaf frames attribute (a sharded walk's worker
        seconds count over its workers), the share the collector's pauses
        took, and the frame table.
        """
        counters = self.registry.snapshot()
        events = counters.get("telemetry.trace.events", 0)
        sync = counters.get("telemetry.trace.sync_points", 0)
        walk_s = self.frames.get(_WALK_FRAME, 0.0)
        attributed_s = (
            sum(
                seconds
                for path, seconds in self.frames.items()
                if len(path) == 3 and path[:2] == _WALK_FRAME
            )
            - self._overlap_s
        )
        gc_pause_s = self._gc_pause.total_s
        cores = {}
        for name, entry in sorted(self.cores.items()):
            stepped, wall_s = entry["stepped"], entry["wall_s"]
            cores[name] = {
                "stepped": stepped,
                "walks": entry["walks"],
                "wall_s": round(wall_s, 6),
                "step_us": round(wall_s / stepped * 1e6, 3) if stepped else 0.0,
                "events_per_s": round(stepped / wall_s, 1) if wall_s else 0.0,
            }
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "census_stride": self.census_stride,
            "counters": counters,
            "cores": cores,
            "derived": {
                "sync_density_per_1k": round(1000.0 * sync / events, 3)
                if events
                else 0.0,
                "walk_attributed_frac": round(attributed_s / walk_s, 4)
                if walk_s
                else 0.0,
                "gc_pause_frac": round(gc_pause_s / walk_s, 4) if walk_s else 0.0,
            },
            "frames": {
                ";".join(path): round(seconds, 6)
                for path, seconds in sorted(self.frames.items())
            },
            "histograms": {
                hist.name: hist.to_dict() for hist in self.registry.histograms()
            },
            "timers": {
                timer.name: timer.to_dict() for timer in self.registry.timers()
            },
        }

    def format(self) -> str:
        """A human-readable rendering of the snapshot."""
        snap = self.snapshot()
        lines = ["flight recorder"]
        derived = snap["derived"]
        lines.append(
            f"  sync density: {derived['sync_density_per_1k']}/1k events, "
            f"walk attributed: {derived['walk_attributed_frac']:.1%}, "
            f"gc pauses: {derived['gc_pause_frac']:.1%}"
        )
        for name, core in snap["cores"].items():
            lines.append(
                f"  core {name}: {core['events_per_s']:,.0f} events/s "
                f"({core['step_us']}us/step, {core['stepped']:,} stepped)"
            )
        for path, seconds in snap["frames"].items():
            lines.append(f"  frame {path}: {seconds:.4f}s")
        return "\n".join(lines)
