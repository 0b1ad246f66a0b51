"""Thread programs, synchronization semantics, schedulers, interleaving."""

from repro.threads.program import InjectedBug, ParallelProgram, ThreadProgram
from repro.threads.runtime import InterleaveResult, interleave
from repro.threads.scheduler import (
    FixedOrderScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
)
from repro.threads.synch import BarrierTable, LockTable

__all__ = [
    "InjectedBug",
    "ParallelProgram",
    "ThreadProgram",
    "InterleaveResult",
    "interleave",
    "FixedOrderScheduler",
    "RandomScheduler",
    "RoundRobinScheduler",
    "Scheduler",
    "BarrierTable",
    "LockTable",
]
