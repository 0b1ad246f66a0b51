"""The machine-readable run report: one JSON object per pipeline run.

A :class:`RunReport` is the single structured artifact of ``repro run``:
workload identity and signature, detection verdict, cycle/overhead
accounting, per-phase profile, metrics snapshot, and (when tracing was on)
per-type event counts.  ``repro run --json`` prints it; the benchmarks and
``harness.tables`` consume its entries instead of ad-hoc dicts, so every
consumer sees the same field names.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.common.fsio import atomic_write_text

#: Bumped on any backwards-incompatible field change.
RUNREPORT_SCHEMA_VERSION = 1


@dataclass
class RunReport:
    """Everything one observed pipeline run produced."""

    app: str
    detector: str
    workload_seed: int = 0
    schedule_seed: int = 0
    bug_seed: int | None = None
    #: Injected-bug ground truth: None on a clean run, else a small dict.
    bug: dict | None = None
    trace_events: int = 0
    #: ``detected`` is None on a clean run (nothing to detect).
    verdict: dict = field(default_factory=dict)
    cycles: dict = field(default_factory=dict)
    #: Workload signature from :mod:`repro.harness.tracestats`.
    workload: dict = field(default_factory=dict)
    phases: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    timers: dict = field(default_factory=dict)
    #: Per-type trace-event counts (empty when tracing was disabled).
    event_counts: dict = field(default_factory=dict)
    #: Wall-clock throughput of the detect phase.
    throughput: dict = field(default_factory=dict)
    #: Harness cache counters (``harness.*``): trace-memo LRU hits, misses
    #: and evictions, on-disk trace/verdict cache hits, traces built.
    cache: dict = field(default_factory=dict)
    #: Flight-recorder snapshot (empty when telemetry was off).
    telemetry: dict = field(default_factory=dict)
    #: The detect phase's engine walk: ``requested`` path, the ``path``
    #: that ran (batch / scalar / sharded / traced) and the ``fallback``
    #: reason when ``auto`` did not take the batch walk.
    engine: dict = field(default_factory=dict)
    schema_version: int = RUNREPORT_SCHEMA_VERSION

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-serialisable)."""
        return asdict(self)

    def to_json(self, indent: int | None = None) -> str:
        """Serialise to a single JSON object."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def write(self, path: str | Path) -> Path:
        """Write the report atomically (the TraceCache write protocol)."""
        return atomic_write_text(path, self.to_json(indent=2) + "\n")

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output."""
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in data.items() if k in known})

    @property
    def overhead_fraction(self) -> float:
        """Detector overhead over the baseline machine (Figure 8 quantity)."""
        return float(self.cycles.get("overhead_fraction", 0.0))


def cycles_entry(total: int, detector_extra: int) -> dict:
    """The report's ``cycles`` block from the two ledger totals."""
    baseline = total - detector_extra
    fraction = detector_extra / baseline if baseline > 0 else 0.0
    return {
        "total": total,
        "detector_extra": detector_extra,
        "baseline": baseline,
        "overhead_fraction": fraction,
    }


def overhead_entry(total: int, detector_extra: int) -> dict:
    """A Figure 8 data row (shared by tables, benchmarks and reports)."""
    entry = cycles_entry(total, detector_extra)
    return {
        "overhead_pct": 100.0 * entry["overhead_fraction"],
        "cycles": total,
        "extra_cycles": detector_extra,
    }
