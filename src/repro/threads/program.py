"""Thread programs: the dynamic instruction streams the simulator executes.

A :class:`ThreadProgram` is the list of operations one thread will perform —
the race-detection-relevant reduction of a real thread's execution (shared
reads/writes, lock acquire/release, barrier waits, compute delays).  A
:class:`ParallelProgram` bundles one program per thread plus bookkeeping the
harness needs: the lock words in use, the address regions, and (after bug
injection) ground truth about which accesses lost their protection.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.addresses import AddressSpace
from repro.common.errors import ProgramError
from repro.common.events import InjectedBug, Op, OpKind, Site


@dataclass
class ThreadProgram:
    """The operation stream of a single thread."""

    thread_id: int
    ops: list[Op] = field(default_factory=list)
    name: str = ""

    def __post_init__(self) -> None:
        if self.thread_id < 0:
            raise ProgramError("thread ids must be non-negative")

    def __len__(self) -> int:
        return len(self.ops)

    def append(self, op: Op) -> None:
        """Append one operation to the stream."""
        self.ops.append(op)

    def extend(self, ops: list[Op]) -> None:
        """Append several operations to the stream."""
        self.ops.extend(ops)

    def lock_balance_errors(self) -> list[str]:
        """Static well-formedness check on lock usage.

        Returns a list of problems: releasing a lock the thread does not
        hold, or finishing while still holding locks.  Used by workload
        tests; bug *injection* deliberately removes a matched acquire/release
        pair, which keeps the stream balanced.
        """
        held: dict[int, int] = {}
        problems = []
        for index, op in enumerate(self.ops):
            if op.kind is OpKind.LOCK:
                held[op.addr] = held.get(op.addr, 0) + 1
                if held[op.addr] > 1:
                    problems.append(
                        f"op {index}: re-acquire of held lock 0x{op.addr:x}"
                    )
            elif op.kind is OpKind.UNLOCK:
                if held.get(op.addr, 0) <= 0:
                    problems.append(
                        f"op {index}: release of un-held lock 0x{op.addr:x}"
                    )
                else:
                    held[op.addr] -= 1
        for lock_addr, count in held.items():
            if count > 0:
                problems.append(f"finishes holding lock 0x{lock_addr:x}")
        return problems

    def dynamic_critical_sections(self) -> list[tuple[int, int, int]]:
        """All matched (lock_index, unlock_index, lock_addr) triples.

        These are the *dynamic lock instances* the paper's bug injection
        samples from (Section 4): each triple is one acquire and the release
        that matches it.
        """
        open_stacks: dict[int, list[int]] = {}
        sections = []
        for index, op in enumerate(self.ops):
            if op.kind is OpKind.LOCK:
                open_stacks.setdefault(op.addr, []).append(index)
            elif op.kind is OpKind.UNLOCK:
                stack = open_stacks.get(op.addr)
                if stack:
                    sections.append((stack.pop(), index, op.addr))
        sections.sort()
        return sections


@dataclass
class ParallelProgram:
    """A complete multithreaded workload instance.

    Attributes:
        name: workload label (e.g. ``"barnes"``).
        threads: one :class:`ThreadProgram` per thread, indexed by thread id.
        lock_addresses: every lock word the program may acquire.
        regions: named data regions, for address→object auditing.
        injected_bug: ground truth for an injected race, if any.
        benign_racy_sites: sites the generator *knows* race benignly
            (intentional unsynchronised accesses); used in analyses, never
            shown to detectors.
    """

    name: str
    threads: list[ThreadProgram]
    lock_addresses: tuple[int, ...] = ()
    regions: tuple[AddressSpace, ...] = ()
    injected_bug: InjectedBug | None = None
    benign_racy_sites: frozenset[Site] = frozenset()

    def __post_init__(self) -> None:
        for expect, thread in enumerate(self.threads):
            if thread.thread_id != expect:
                raise ProgramError(
                    f"thread programs must be dense: slot {expect} holds "
                    f"thread id {thread.thread_id}"
                )

    @property
    def num_threads(self) -> int:
        """Number of threads in the workload."""
        return len(self.threads)

    def total_ops(self) -> int:
        """Total operations across all threads."""
        return sum(len(t) for t in self.threads)

    def all_sites(self) -> set[Site]:
        """Every distinct memory-access site in the program."""
        return {
            op.site
            for thread in self.threads
            for op in thread.ops
            if op.is_memory_access and op.site is not None
        }

    def with_injected_bug(
        self, threads: list[ThreadProgram], bug: InjectedBug
    ) -> "ParallelProgram":
        """A copy of this program with mutated threads and bug ground truth."""
        return replace(self, threads=threads, injected_bug=bug)
