"""The metrics registry: counters, value histograms, and wall-clock timers.

:class:`MetricsRegistry` extends :class:`~repro.common.stats.StatCounters`
(so every existing counter idiom — ``add``, ``snapshot``, ``delta``,
``merge`` — keeps working) with two richer instruments:

* :class:`Histogram` — a distribution of observed values (candidate-set
  population counts, per-access simulated cycles, scheduler burst lengths).
  Values are stored as exact value→count pairs, which is both faithful and
  cheap for the small discrete domains the detectors produce.
* :class:`Timer` — accumulated wall-clock time of a named operation, driven
  through the :meth:`MetricsRegistry.time` context manager.

Everything snapshots to plain JSON-serialisable dicts so a
:class:`~repro.obs.runreport.RunReport` can embed a full metrics state.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from typing import Iterator

from repro.common.stats import StatCounters


class Histogram:
    """A distribution of observed numeric values (exact value counts)."""

    __slots__ = ("name", "count", "total", "min", "max", "_values")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._values: Counter = Counter()

    def record(self, value: float, count: int = 1) -> None:
        """Add ``count`` observations of ``value``."""
        self.count += count
        self.total += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._values[value] += count

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one."""
        if not other.count:
            return
        self.count += other.count
        self.total += other.total
        if self.min is None or (other.min is not None and other.min < self.min):
            self.min = other.min
        if self.max is None or (other.max is not None and other.max > self.max):
            self.max = other.max
        self._values.update(other._values)

    def percentile(self, p: float) -> float | None:
        """The smallest observed value covering fraction ``p`` of the mass."""
        if not self.count:
            return None
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"percentile fraction out of range: {p}")
        threshold = p * self.count
        running = 0
        for value in sorted(self._values):
            running += self._values[value]
            if running >= threshold:
                return value
        return self.max  # pragma: no cover - guarded by the loop above

    def values(self) -> dict:
        """The raw value→count mapping, sorted by value."""
        return dict(sorted(self._values.items()))

    def to_dict(self) -> dict:
        """A JSON-serialisable summary (counts keyed by stringified value)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "values": {str(k): v for k, v in sorted(self._values.items())},
        }

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.2f}, "
            f"min={self.min}, max={self.max})"
        )


class Timer:
    """Accumulated wall-clock time of one named operation."""

    __slots__ = ("name", "count", "total_s", "min_s", "max_s")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.min_s: float | None = None
        self.max_s: float | None = None

    def observe(self, seconds: float) -> None:
        """Record one timed interval."""
        if seconds < 0:
            raise ValueError(f"timer intervals must be non-negative: {seconds}")
        self.count += 1
        self.total_s += seconds
        if self.min_s is None or seconds < self.min_s:
            self.min_s = seconds
        if self.max_s is None or seconds > self.max_s:
            self.max_s = seconds

    @property
    def mean_s(self) -> float:
        """Mean interval length in seconds (0.0 when empty)."""
        return self.total_s / self.count if self.count else 0.0

    def merge(self, other: "Timer") -> None:
        """Fold another timer's accumulated intervals into this one."""
        if not other.count:
            return
        self.count += other.count
        self.total_s += other.total_s
        if self.min_s is None or (other.min_s is not None and other.min_s < self.min_s):
            self.min_s = other.min_s
        if self.max_s is None or (other.max_s is not None and other.max_s > self.max_s):
            self.max_s = other.max_s

    def to_dict(self) -> dict:
        """A JSON-serialisable summary."""
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
        }

    def __repr__(self) -> str:
        return f"Timer({self.name!r}, n={self.count}, total={self.total_s:.4f}s)"


class MetricsRegistry(StatCounters):
    """Counters (inherited) plus named histograms and timers."""

    def __init__(self) -> None:
        super().__init__()
        self._histograms: dict[str, Histogram] = {}
        self._timers: dict[str, Timer] = {}

    # ------------------------------------------------------------ histograms

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram(name)
            self._histograms[name] = hist
        return hist

    def observe(self, name: str, value: float) -> None:
        """Shorthand: record ``value`` into histogram ``name``."""
        self.histogram(name).record(value)

    def observe_counts(self, name: str, counts: dict) -> None:
        """Record a value→count mapping into histogram ``name``.

        The batch kernels count their per-event observations by value and
        book them once here; the histogram ends up exactly as per-event
        :meth:`observe` calls would leave it.  An empty mapping (or one of
        zero counts) creates no histogram, as no :meth:`observe` call would.
        """
        for value, count in counts.items():
            if count:
                self.histogram(name).record(value, count)

    def histograms(self) -> Iterator[Histogram]:
        """All histograms, sorted by name."""
        return iter(h for _, h in sorted(self._histograms.items()))

    # ---------------------------------------------------------------- timers

    def timer(self, name: str) -> Timer:
        """The timer called ``name`` (created on first use)."""
        timer = self._timers.get(name)
        if timer is None:
            timer = Timer(name)
            self._timers[name] = timer
        return timer

    @contextmanager
    def time(self, name: str):
        """Context manager timing its body into timer ``name``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timer(name).observe(time.perf_counter() - t0)

    def timers(self) -> Iterator[Timer]:
        """All timers, sorted by name."""
        return iter(t for _, t in sorted(self._timers.items()))

    # ----------------------------------------------------------------- merge

    def merge_registry(self, other: "MetricsRegistry") -> None:
        """Fold another registry — counters, histograms, timers — into this one.

        The parallel grid engine collects one registry shard per worker
        chunk and merges them all here; merging is associative and
        commutative, so the merged totals are independent of worker
        scheduling order.
        """
        self.merge(other)
        for name, hist in other._histograms.items():
            self.histogram(name).merge(hist)
        for name, timer in other._timers.items():
            self.timer(name).merge(timer)

    # -------------------------------------------------------------- snapshot

    def snapshot_all(self) -> dict:
        """Counters + histograms + timers as one JSON-serialisable dict."""
        return {
            "counters": self.snapshot(),
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self._histograms.items())
            },
            "timers": {
                name: timer.to_dict()
                for name, timer in sorted(self._timers.items())
            },
        }

    def format(self, title: str = "metrics") -> str:
        """Human-readable rendering of counters, histograms and timers."""
        lines = [super().format(title)]
        if self._histograms:
            lines.append("histograms")
            for name, hist in sorted(self._histograms.items()):
                lines.append(
                    f"  {name}  n={hist.count:,} mean={hist.mean:.2f} "
                    f"min={hist.min} p50={hist.percentile(0.5)} "
                    f"p90={hist.percentile(0.9)} max={hist.max}"
                )
        if self._timers:
            lines.append("timers")
            for name, timer in sorted(self._timers.items()):
                lines.append(
                    f"  {name}  n={timer.count:,} total={timer.total_s:.4f}s "
                    f"mean={timer.mean_s:.6f}s"
                )
        return "\n".join(lines)
