"""Host speed, sampled while the benchmark runs, and times scaled by it.

The shared reference host runs this process up to about twice as slow in
episodes that last from seconds to minutes, longer than a whole run.  No
statistic over one run's passes can reject an episode that covers the run,
so the run measures the host's speed while it works:

* a :class:`SpeedMeter` times :func:`probe`, a fixed loop of dict lookups
  that uses no repository code, from a ``SIGALRM`` handler every
  ``PERIOD_S``.  The handler runs in the benchmark's own thread, on
  whatever core it is on at that moment, between two bytecodes of the
  program, so it samples the speed the program itself is getting;
* :meth:`SpeedMeter.scaled` turns the wall time of an interval (a cell, a
  set-up) into reference-host seconds.  It takes the handler's own time
  out of the interval, and multiplies the rest by ``(REFERENCE_S / m) **
  ELASTICITY``, where ``m`` is the median probe time sampled in the
  interval (or the ``MIN_SAMPLES`` samples nearest its middle, for a short
  interval).

The probe allocates no container, so it never starts a garbage
collection inside the program.  The program slows less than the probe
does in a slow episode; ``ELASTICITY`` is the measured ratio of the two
slowdowns (on a log scale), from runs of every workload on the reference
host (README.md).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

perf = time.perf_counter

#: Seconds between two samples.  One probe takes about 0.3 ms, so the
#: handler costs under 1% of the run, and that share is taken out again.
PERIOD_S = 0.05

#: Samples that an interval's speed is the median of, at the least.
MIN_SAMPLES = 20

#: The probe's median time on the reference host (2-vCPU Xeon under KVM,
#: Python 3.11) when it is not slowed: scaled times are in its seconds.
REFERENCE_S = 2.3e-4

#: d log(program time) / d log(probe time), measured on the reference host.
ELASTICITY = 0.85

_TABLE = {(i * 2654435761) & 0xFFFFF: i for i in range(4096)}
_KEYS = tuple(_TABLE)


def probe() -> int:
    """4096 lookups in a 4096-entry dict."""
    acc = 0
    for key in _KEYS:
        acc += _TABLE[key] & 7
    return acc


class SpeedMeter:
    """Samples :func:`probe` every ``PERIOD_S`` while it is entered."""

    def __init__(self):
        #: Start time and duration of every sample, in time order.
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        t0 = perf()
        probe()
        self.starts.append(t0)
        self.durations.append(perf() - t0)

    def scaled(self, start: float, end: float) -> float:
        """The work time of ``[start, end]`` in reference-host seconds."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        own = end - start - sum(self.durations[lo:hi])
        if hi - lo < MIN_SAMPLES:
            if len(self.starts) < MIN_SAMPLES:
                raise ValueError(f"{len(self.starts)} speed samples, need {MIN_SAMPLES}")
            middle = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = min(max(0, middle - MIN_SAMPLES // 2), len(self.starts) - MIN_SAMPLES)
            hi = lo + MIN_SAMPLES
        speed = REFERENCE_S / statistics.median(self.durations[lo:hi])
        return own * speed**ELASTICITY
