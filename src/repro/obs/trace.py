"""Structured trace emitters: typed JSONL events with a zero-cost null sink.

A :class:`TraceEmitter` receives *typed* events — spans for pipeline phases,
point events for detector internals (lockset refinements, LState
transitions, Bloom-collision detections, candidate-set broadcasts, barrier
resets, L2 displacements, alarms).  Three implementations:

* :data:`NULL_EMITTER` — ``enabled`` is False and every hook is a no-op; hot
  paths check one precomputed boolean and skip all event construction, so a
  disabled emitter costs nothing measurable (the overhead benchmark in
  ``benchmarks/test_obs_overhead.py`` enforces <5%);
* :class:`CountingEmitter` — counts events per type, discarding payloads
  (drives ``repro profile``'s top-N event table);
* :class:`JsonlEmitter` — writes one compact JSON object per line, stamped
  with seconds-since-start; the schema lives in :mod:`repro.obs.schema`.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import IO


class TraceEmitter:
    """Base emitter: disabled, event-free, but span-capable.

    Enabled emitters stamp every ``span`` event with a hierarchical id:
    top-level spans are numbered ``"1"``, ``"2"``, … in open order, and a
    span opened inside another gets its parent's id plus a child ordinal
    (``"2.1"``, ``"2.1.3"``).  The ``parent`` field repeats the enclosing
    span's id (``None`` at top level), so consumers can rebuild the span
    tree — and a collapsed flamegraph — from a flat JSONL stream even
    though spans are emitted on *exit* (children before parents).
    """

    #: Hot paths gate all event construction on this flag.
    enabled: bool = False

    def emit(self, etype: str, **fields) -> None:
        """Record one typed event (no-op unless overridden)."""

    def _open_span(self) -> str:
        """Push a new span frame; returns its hierarchical id."""
        # Lazily initialised so the stateless shared NULL_EMITTER (which
        # never calls this) stays attribute-free and subclasses need no
        # cooperative __init__.
        stack = getattr(self, "_span_stack", None)
        if stack is None:
            stack = self._span_stack = [["", 0]]
        parent = stack[-1]
        parent[1] += 1
        span_id = f"{parent[0]}.{parent[1]}" if parent[0] else str(parent[1])
        stack.append([span_id, 0])
        return span_id

    def _close_span(self) -> str | None:
        """Pop the current span frame; returns the parent id (or None)."""
        stack = self._span_stack
        stack.pop()
        return stack[-1][0] or None

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the body and emit a ``span`` event on exit (if enabled)."""
        if not self.enabled:
            yield
            return
        span_id = self._open_span()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            parent = self._close_span()
            self.emit(
                "span",
                name=name,
                wall_s=round(time.perf_counter() - t0, 6),
                id=span_id,
                parent=parent,
                **attrs,
            )

    def close(self) -> None:
        """Release any underlying resource (no-op by default)."""


class NullEmitter(TraceEmitter):
    """The zero-cost disabled sink."""


#: Module-wide shared null sink; safe because it is stateless.
NULL_EMITTER = NullEmitter()


class CountingEmitter(TraceEmitter):
    """Counts events per type without storing payloads."""

    enabled = True

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def emit(self, etype: str, **fields) -> None:
        self.counts[etype] += 1

    @property
    def total(self) -> int:
        """Total events seen across all types."""
        return sum(self.counts.values())


class RecordingEmitter(TraceEmitter):
    """Keeps selected events in memory for programmatic inspection.

    Tests use this to read a run's evidence stream back (e.g. that a
    missed detection coincides with an ``l2.displacement`` of the victim
    line).  Pass ``types`` to keep only the event types you need — detector
    runs emit one event per metadata mutation, so recording everything on
    a long trace is memory-hungry.
    """

    enabled = True

    def __init__(self, types: frozenset[str] | set[str] | None = None):
        self._types = frozenset(types) if types is not None else None
        self.events: list[tuple[str, dict]] = []

    def emit(self, etype: str, **fields) -> None:
        if self._types is None or etype in self._types:
            self.events.append((etype, fields))

    def by_type(self, etype: str) -> list[dict]:
        """The payloads of every recorded event of one type, in order."""
        return [fields for kind, fields in self.events if kind == etype]


def emit_alarm(emitter: TraceEmitter, report) -> None:
    """Emit the canonical ``alarm`` event for one RaceReport-shaped record."""
    emitter.emit(
        "alarm",
        detector=report.detector,
        seq=report.seq,
        thread=report.thread_id,
        addr=report.addr,
        size=report.size,
        site=str(report.site),
        is_write=report.is_write,
        detail=report.detail,
    )


class JsonlEmitter(TraceEmitter):
    """Writes events as JSON Lines to a text stream."""

    enabled = True

    def __init__(self, stream: IO[str]):
        self._stream = stream
        self._owns_stream = False
        self._t0 = time.perf_counter()
        self.counts: Counter[str] = Counter()

    @classmethod
    def to_path(cls, path: str | Path) -> "JsonlEmitter":
        """An emitter writing to ``path`` (file closed by :meth:`close`)."""
        emitter = cls(open(path, "w", encoding="utf-8"))
        emitter._owns_stream = True
        return emitter

    def emit(self, etype: str, **fields) -> None:
        record = {"type": etype, "t": round(time.perf_counter() - self._t0, 6)}
        record.update(fields)
        self._stream.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.counts[etype] += 1

    @property
    def total(self) -> int:
        """Total events written."""
        return sum(self.counts.values())

    def close(self) -> None:
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()
