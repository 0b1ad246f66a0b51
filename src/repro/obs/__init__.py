"""``repro.obs`` — structured tracing, metrics, and per-phase profiling.

The observability layer threaded through the whole pipeline:

* :class:`~repro.obs.trace.TraceEmitter` and friends — typed JSONL events
  with a zero-cost null sink (:data:`~repro.obs.trace.NULL_EMITTER`);
* :class:`~repro.obs.metrics.MetricsRegistry` — counters + histograms +
  timers;
* :class:`~repro.obs.profile.PhaseProfiler` — per-phase wall-clock timing
  with counter-delta attribution;
* :class:`~repro.obs.runreport.RunReport` — the machine-readable artifact
  of one run;
* :class:`~repro.obs.telemetry.FlightRecorder` — engine telemetry that
  rides the batch walk (per-core step time, walk-layer frames, sync
  density, flamegraph frames);
* :class:`Observability` — the bundle detectors, the simulator and the
  runtime accept.  ``Observability()`` with no arguments is the *disabled*
  configuration: hot paths see ``active == False`` and skip all event and
  metric construction behind one precomputed boolean.
"""

from __future__ import annotations

from repro.obs.metrics import Histogram, MetricsRegistry, Timer
from repro.obs.profile import PhaseProfiler, PhaseRecord
from repro.obs.runreport import (
    RUNREPORT_SCHEMA_VERSION,
    RunReport,
    cycles_entry,
    overhead_entry,
)
from repro.obs.schema import (
    EVENT_SCHEMA_VERSION,
    EVENT_TYPES,
    ObsSchemaError,
    validate_event,
    validate_jsonl,
)
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    FlightRecorder,
)
from repro.obs.trace import (
    NULL_EMITTER,
    CountingEmitter,
    JsonlEmitter,
    NullEmitter,
    RecordingEmitter,
    TraceEmitter,
    emit_alarm,
)


class Observability:
    """The observability bundle one pipeline run threads everywhere.

    Attributes:
        emitter: where typed events go (defaults to the null sink).
        metrics: the run's metrics registry.
        collect_metrics: record per-event metrics even when tracing is off
            (``repro run --metrics``).
        telemetry: the optional engine flight recorder
            (:class:`~repro.obs.telemetry.FlightRecorder`).  Unlike the
            emitter, telemetry times whole batch calls and walks, not
            events, so it does not flip :attr:`active`: the engine keeps its
            batch and sharded walks and the detectors' per-event
            instrumentation stays off.
    """

    __slots__ = ("emitter", "metrics", "collect_metrics", "telemetry")

    def __init__(
        self,
        emitter: TraceEmitter | None = None,
        metrics: MetricsRegistry | None = None,
        collect_metrics: bool = False,
        telemetry: "FlightRecorder | None" = None,
    ):
        self.emitter = emitter if emitter is not None else NULL_EMITTER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.collect_metrics = collect_metrics
        self.telemetry = telemetry

    @property
    def active(self) -> bool:
        """True when per-event instrumentation should run at all."""
        return self.collect_metrics or self.emitter.enabled

    def close(self) -> None:
        """Close the underlying emitter (flushes a JSONL file)."""
        self.emitter.close()


__all__ = [
    "Observability",
    "TraceEmitter",
    "NullEmitter",
    "NULL_EMITTER",
    "CountingEmitter",
    "JsonlEmitter",
    "RecordingEmitter",
    "emit_alarm",
    "MetricsRegistry",
    "Histogram",
    "Timer",
    "FlightRecorder",
    "TELEMETRY_SCHEMA_VERSION",
    "PhaseProfiler",
    "PhaseRecord",
    "RunReport",
    "RUNREPORT_SCHEMA_VERSION",
    "cycles_entry",
    "overhead_entry",
    "EVENT_TYPES",
    "EVENT_SCHEMA_VERSION",
    "ObsSchemaError",
    "validate_event",
    "validate_jsonl",
]
