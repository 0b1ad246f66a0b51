"""In-memory span recording around layer calls, installed from outside.

A :class:`Tracer` wraps named callables (module functions, methods,
classmethods) with timing wrappers and restores the originals on
:meth:`Tracer.uninstall`.  Each wrapped call becomes a :class:`Span`
with its name, start, end, parent span and the id of the benchmark cell
that was running.  Nothing under ``src/`` is edited: the wrappers are
patched onto the attributes the program looks up at call time.

Calls that happen once per sync run (``step_batch``: tens of thousands per
cell) are recorded as one *aggregate* span per (parent, name): ``busy`` is
the summed duration of the calls and ``calls`` their number, so tracing
them costs two clock reads and a dict lookup per call, not an object.

A target that cannot be resolved is recorded in :attr:`Tracer.missing`,
never skipped silently.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

perf = time.perf_counter


@dataclass
class Span:
    """One traced interval.  ``busy`` equals ``end - start`` unless the span
    aggregates several disjoint calls, in which case it is their sum."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    cell: str | None = None
    busy: float = 0.0
    calls: int = 1
    aggregate: bool = False
    attrs: dict = field(default_factory=dict)

    def to_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "cell": self.cell,
            "busy": self.busy,
            "calls": self.calls,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Tracer:
    """Records spans for the calls it wraps, and for explicit :meth:`span` blocks."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cell: str | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._aggregates: dict[tuple[int, str], Span] = {}
        self._undo: list[Callable[[], None]] = []

    # ------------------------------------------------------------- recording

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf(), parent=parent, cell=self.cell))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = perf()
        span.busy = span.end - span.start
        self._stack.pop()
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        """Record the enclosed block as one span."""
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index).attrs.update(attrs)

    def _add_aggregate(self, name: str, t0: float, t1: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        key = (parent, name)
        span = self._aggregates.get(key)
        if span is None:
            span = Span(
                name, t0, t1, parent=parent, cell=self.cell, calls=0, aggregate=True
            )
            self._aggregates[key] = span
            self.spans.append(span)
        span.end = t1
        span.busy += t1 - t0
        span.calls += 1

    # ------------------------------------------------------------- wrapping

    def _wrapper(self, fn, name, attrs_fn, aggregate):
        tracer = self
        if aggregate:

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._add_aggregate(
                        name(args) if callable(name) else name, t0, perf()
                    )

        else:

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                index = tracer._open(name(args) if callable(name) else name)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    span = tracer._close(index)
                    if attrs_fn is not None:
                        span.attrs.update(attrs_fn(args, result))

        return timed

    def wrap(
        self,
        target: str,
        name: str | Callable[[tuple], str],
        *,
        attrs_fn: Callable[[tuple, object], dict] | None = None,
        aggregate: bool = False,
    ) -> None:
        """Wrap ``target`` (``"pkg.module:attr"`` or ``"pkg.module:Class.attr"``).

        ``name`` is the span name, or a function of the call's positional
        arguments (e.g. to name a span after ``self``).  ``attrs_fn(args,
        result)`` adds attributes when the call returns.
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            own = isinstance(owner, type) and attr in owner.__dict__
            # A class's own __dict__ entry keeps a classmethod unbound.
            original = owner.__dict__[attr] if own else getattr(owner, attr)
        except (ImportError, AttributeError, ValueError):
            self.missing.append(target)
            return
        if isinstance(original, classmethod):
            patched = classmethod(
                self._wrapper(original.__func__, name, attrs_fn, aggregate)
            )
        else:
            patched = self._wrapper(original, name, attrs_fn, aggregate)
        setattr(owner, attr, patched)
        if isinstance(owner, type) and not own:
            # Inherited method: the patch shadows the base class's; drop it.
            self._undo.append(lambda: delattr(owner, attr))
        else:
            self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (idempotent)."""
        undo, self._undo = self._undo, []
        for restore in reversed(undo):
            restore()

    # -------------------------------------------------------------- output

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps(span.to_dict(index), default=str) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's self time: its busy time minus what its children cover.

    Plain children cover the union of their intervals, clipped to the
    parent's; an aggregate child covers its ``busy`` sum (its calls are
    disjoint from one another and from plain siblings, which run before
    or after them in the same thread).
    """
    intervals: dict[int, list[tuple[float, float]]] = {}
    aggregate_busy: dict[int, float] = {}
    for span in spans:
        if span.parent < 0:
            continue
        if span.aggregate:
            aggregate_busy[span.parent] = aggregate_busy.get(span.parent, 0.0) + span.busy
        else:
            intervals.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = aggregate_busy.get(index, 0.0)
        cursor = span.start
        for lo, hi in sorted(intervals.get(index, ())):
            lo = max(lo, cursor)
            hi = min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.busy - covered)
    return out
