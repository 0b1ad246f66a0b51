"""Interleaving schedulers.

A scheduler repeatedly answers one question: *of the currently runnable
threads, who runs next, and for how many operations?*  The answer sequence —
together with the program — fully determines the interleaved trace, so a
seeded :class:`RandomScheduler` gives reproducible "random" executions, the
analogue of the paper's monitored runs "without selecting inputs and
interleavings" (Section 1.1).

The burst length models the reality that a thread executes many instructions
between involuntary switches; fine-grained alternation (burst 1) maximises
observed interleaving, long bursts make executions look almost sequential —
which is exactly the knob that makes happens-before miss more or fewer bugs.
"""

from __future__ import annotations

import random
from typing import Protocol, Sequence

from repro.common.errors import SchedulerError
from repro.common.rng import make_rng


class Scheduler(Protocol):
    """Strategy interface for picking the next thread to run."""

    def pick(self, runnable: Sequence[int]) -> tuple[int, int]:
        """Return (thread_id, burst_length) for the next slice.

        ``runnable`` is non-empty and sorted.  ``burst_length`` is the
        maximum number of operations the thread may execute before control
        returns to the scheduler (it may stop earlier by blocking or
        finishing).
        """
        ...


class RoundRobinScheduler:
    """Deterministic rotation through runnable threads with a fixed quantum."""

    def __init__(self, quantum: int = 8):
        if quantum <= 0:
            raise SchedulerError("quantum must be positive")
        self.quantum = quantum
        self._last: int | None = None

    def pick(self, runnable: Sequence[int]) -> tuple[int, int]:
        """Pick the next runnable thread after the previously run one."""
        if not runnable:
            raise SchedulerError("pick() called with no runnable threads")
        if self._last is None:
            choice = runnable[0]
        else:
            later = [t for t in runnable if t > self._last]
            choice = later[0] if later else runnable[0]
        self._last = choice
        return choice, self.quantum


class RandomScheduler:
    """Seeded random thread choice with random burst lengths.

    ``bias`` optionally skews selection toward lower thread ids, modelling
    asymmetric progress (e.g. the main thread getting more cycles); 0.0 is
    uniform.
    """

    def __init__(
        self,
        seed: object = 0,
        min_burst: int = 1,
        max_burst: int = 24,
        bias: float = 0.0,
    ):
        if not 1 <= min_burst <= max_burst:
            raise SchedulerError(
                f"need 1 <= min_burst <= max_burst, got {min_burst}, {max_burst}"
            )
        if not 0.0 <= bias < 1.0:
            raise SchedulerError(f"bias must be in [0, 1), got {bias}")
        self._rng: random.Random = make_rng("scheduler", seed)
        self._randbelow = self._rng._randbelow
        self.min_burst = min_burst
        self.max_burst = max_burst
        self.bias = bias

    def pick(self, runnable: Sequence[int]) -> tuple[int, int]:
        """Pick a random runnable thread and a random burst length.

        Draws exactly what ``choice(list(runnable))`` and
        ``randint(min_burst, max_burst)`` draw, through the
        ``_randbelow`` both of them call, without their copy and argument
        checks (``tests/threads/test_scheduler_stream.py`` pins the
        equality, and the golden traces pin the stream).
        """
        n = len(runnable)
        if not n:
            raise SchedulerError("pick() called with no runnable threads")
        below = self._randbelow
        if self.bias and n > 1 and self._rng.random() < self.bias:
            choice = runnable[0]
        else:
            choice = runnable[below(n)]
        return choice, self.min_burst + below(self.max_burst - self.min_burst + 1)


class FixedOrderScheduler:
    """Replay a scripted sequence of (thread, burst) slices.

    Used by tests that need one exact interleaving (e.g. the Figure 1
    scenario where happens-before is blinded by a lucky ordering).  When the
    script runs out, falls back to round-robin with quantum 1 so stragglers
    can finish.
    """

    def __init__(self, slices: Sequence[tuple[int, int]]):
        self._slices = list(slices)
        self._cursor = 0
        self._fallback = RoundRobinScheduler(quantum=1)

    def pick(self, runnable: Sequence[int]) -> tuple[int, int]:
        """Follow the script, skipping slices whose thread is not runnable."""
        while self._cursor < len(self._slices):
            thread_id, burst = self._slices[self._cursor]
            self._cursor += 1
            if thread_id in runnable:
                return thread_id, burst
        return self._fallback.pick(runnable)
