"""Workload construction kit: builder + reusable sharing patterns.

The paper evaluates six lock-based SPLASH-2 applications.  We cannot run the
SPLASH-2 binaries, but the lockset/happens-before outcome of a run depends
only on the *access and synchronization trace*, not on the arithmetic
between accesses.  Each application module therefore composes, from the
pattern library below, a synthetic trace generator that reproduces that
application's synchronization signature: its lock density, barrier phasing,
task-queue structure, data-sharing style, footprint and false-sharing
layout.  DESIGN.md records this substitution.

False alarms are counted at *source-site* level (Section 5.1), so each
pattern spreads its instances over a configurable number of distinct sites
(``site_groups``) — the knob that calibrates an application's alarm counts
to the paper's order of magnitude.

Pattern catalogue (and the paper behaviour each one drives):

* :func:`migratory_locked` — objects with their own lock visited by all
  threads with *long reuse distances*; the canonical injection target.
  Long reuse + a large footprint makes the object's line leave the L2
  between visits, which is exactly how the default HARD loses candidate
  sets (Section 3.6, Tables 4/5).
* :func:`locked_counters` — hot, properly locked shared counters; also
  injectable, never evicted (bugs here are caught by every lockset variant).
* :func:`producer_consumer` — task hand-off through a locked queue whose
  *payload* is protected by ordering, not locks (the Figure 1 shape): pure
  lockset reports it even when ideal; happens-before stays silent as long
  as the trace orders the hand-off.
* :func:`false_sharing_private` — per-thread slots packed into shared
  lines: line-granularity false positives for *both* default detectors
  (Table 3's growth with granularity).
* :func:`false_sharing_locked` — neighbouring variables protected by
  *different* locks, with accesses chained through a hot lock: false
  positives for default HARD but not for happens-before (the cholesky-like
  gap in Table 2).
* :func:`flag_handoff` — hand-crafted flag synchronization: false
  positives for every detector, ideal ones included (Section 5.1's
  "hand-crafted synchronizations").
* :func:`benign_counters` — intentional unprotected statistics updates:
  benign races, reported by all detectors.
* :func:`grid_phases` — ocean-style red/black barrier phases over a 2-D
  grid with per-thread row bands; race-free thanks to barriers, but
  boundary lines straddle thread bands, so default detectors see
  line-granularity alarms while ideal ones see none.
* :func:`read_shared_table` — write-once read-many data (the Shared
  LState path: no alarms despite lock-free reads).
* :func:`streaming_private` — large private arrays streamed to create L2
  pressure without any sharing.
"""

from __future__ import annotations

import random

from repro.common.addresses import AddressSpace, RegionAllocator
from repro.common.errors import ProgramError
from repro.common.events import Op, Site, barrier, compute, lock, read, unlock, write
from repro.common.rng import make_rng, split_rng
from repro.threads.program import ParallelProgram, ThreadProgram

#: Site-label prefix marking a critical section as a valid injection target.
INJECTABLE_PREFIX = "inj:"

#: Conventional stages within a phase (see :meth:`WorkloadBuilder.block`).
#: MAIN holds the bulk of the mixed locked work; QUIET is kept free of
#: common-lock synchronization so conflicts in it are *guaranteed* to be
#: unordered (visible to happens-before); MIX2 holds more mixed locked work
#: whose lock traffic orders QUIET before LATE; LATE holds revisits that are
#: therefore ordered — alarms raised there are lockset-only.
STAGE_MAIN = 0
STAGE_QUIET = 2
STAGE_MIX2 = 4
STAGE_LATE = 6
#: A final synchronization-free stage used by the grid sweeps: all threads
#: sweep concurrently with no lock traffic, so boundary-line conflicts are
#: unordered for happens-before (as they are in a real stencil phase).
STAGE_GRID = 8


class WorkloadBuilder:
    """Accumulates per-thread operation blocks and composes phases.

    Patterns append *blocks* (short op sequences destined for one thread).
    :meth:`end_phase` shuffles each thread's pending blocks (so different
    patterns interleave within the phase, as statements from different
    program regions would) and optionally closes the phase with a global
    barrier.  Block-internal order is always preserved.
    """

    def __init__(self, name: str, num_threads: int = 4, seed: object = 0):
        if num_threads <= 0:
            raise ProgramError("need at least one thread")
        self.name = name
        self.num_threads = num_threads
        self.rng = make_rng("workload", name, seed)
        self.alloc = RegionAllocator()
        self.threads = [ThreadProgram(tid, [], name) for tid in range(num_threads)]
        self.benign_sites: set[Site] = set()
        self._locks: list[int] = []
        self._lock_region = self.alloc.allocate("locks", 64 * 1024)
        self._lock_cursor = 0
        self._site_line = 0
        self._barrier_next = 0
        # Per thread: (stage, pinned, order_group, ops).  Stages execute in
        # ascending order within the phase; blocks are shuffled within their
        # stage.  Pinned blocks keep insertion order at the front of their
        # stage; blocks sharing an order_group keep their relative order
        # within the random slots the group lands in.
        self._pending: list[list[tuple[int, bool, str | None, list[Op]]]] = [
            [] for _ in range(num_threads)
        ]

    # ------------------------------------------------------------- resources

    def site(self, label: str) -> Site:
        """A fresh static source location in this app's synthetic source."""
        self._site_line += 1
        return Site(file=f"{self.name}.c", line=self._site_line, label=label)

    def sites(self, label: str, count: int) -> list[Site]:
        """``count`` distinct sites sharing a label prefix (site groups)."""
        return [self.site(f"{label}#{i}") for i in range(max(count, 1))]

    def new_lock(self, label: str) -> int:
        """Allocate a fresh 4-byte lock word."""
        addr = self._lock_region.at(self._lock_cursor)
        self._lock_cursor += 4
        self._locks.append(addr)
        return addr

    def region(self, label: str, size: int, align: int | None = None) -> AddressSpace:
        """Allocate a named data region (line-aligned unless told otherwise)."""
        return self.alloc.allocate(label, size, align)

    def rng_for(self, label: str) -> random.Random:
        """An independent RNG stream for one pattern instance."""
        return split_rng(self.rng, label)

    # ----------------------------------------------------------- composition

    def block(
        self,
        thread_id: int,
        ops: list[Op],
        *,
        stage: int = 0,
        pin_first: bool = False,
        order_group: str | None = None,
    ) -> None:
        """Queue an op block for ``thread_id`` in the current phase.

        ``stage`` partitions the phase into ordered sub-intervals (stage 0
        runs first); blocks only mix with blocks of their own stage.  The
        patterns use three conventional stages: STAGE_MAIN (mixed locked
        work), STAGE_QUIET (synchronization-free, where unordered conflicts
        are guaranteed) and STAGE_LATE (revisits that are ordered after the
        quiet stage through the mixed work in between).

        ``pin_first`` keeps the block (in insertion order) ahead of the
        shuffled blocks of its stage — used for warm-up sweeps that must
        precede a pattern's main body in the thread's own stream.

        ``order_group`` scatters the block into a random stage position but
        preserves its order *relative to other blocks of the same group* —
        used by hand-off patterns whose production and consumption must stay
        temporally coupled (a queue is consumed roughly in fill order).
        """
        if ops:
            self._pending[thread_id].append((stage, pin_first, order_group, ops))

    def end_phase(
        self,
        *,
        shuffle: bool = True,
        with_barrier: bool = True,
        align_stages: bool = True,
    ) -> None:
        """Flush pending blocks; optionally close with a global barrier.

        With ``align_stages`` (the default), every thread's operation count
        is padded (with local-compute filler) to the per-stage maximum, so
        that under a fair scheduler all threads traverse the same stage in
        the same time window.  Stage semantics — in particular the QUIET
        stage's guarantee that its conflicts are unordered — depend on the
        stages actually overlapping in time across threads.
        """
        order_rng = split_rng(self.rng, f"phase-order-{self._barrier_next}")
        all_stages = sorted(
            {stage for blocks in self._pending for stage, _, _, _ in blocks}
        )
        stage_targets: dict[int, int] = {}
        if align_stages:
            for stage in all_stages:
                stage_targets[stage] = max(
                    sum(
                        len(ops)
                        for s, _, _, ops in blocks
                        if s == stage
                    )
                    for blocks in self._pending
                )
        for thread_id, blocks in enumerate(self._pending):
            stages = all_stages if align_stages else sorted(
                {stage for stage, _, _, _ in blocks}
            )
            for stage in stages:
                if align_stages:
                    have = sum(len(ops) for s, _, _, ops in blocks if s == stage)
                    deficit = stage_targets[stage] - have
                    if deficit > 0:
                        # Spread the filler over a few blocks so it mixes
                        # into the stage instead of bunching at one end.
                        pieces = min(8, deficit)
                        base_size = deficit // pieces
                        for piece in range(pieces):
                            size = base_size + (1 if piece < deficit % pieces else 0)
                            if size:
                                blocks.append(
                                    (stage, False, None, [compute(1)] * size)
                                )
                stage_blocks = [b for b in blocks if b[0] == stage]
                pinned = [ops for _, is_pinned, _, ops in stage_blocks if is_pinned]
                rest = [
                    (group, ops)
                    for _, is_pinned, group, ops in stage_blocks
                    if not is_pinned
                ]
                if shuffle:
                    order_rng.shuffle(rest)
                    # Restore in-group relative order: the blocks of each
                    # group keep the random *slots* the shuffle gave them,
                    # but fill those slots in insertion order.
                    slots_by_group: dict[str, list[int]] = {}
                    for index, (group, _) in enumerate(rest):
                        if group is not None:
                            slots_by_group.setdefault(group, []).append(index)
                    original: dict[str, list[list[Op]]] = {}
                    for _, is_pinned, group, ops in stage_blocks:
                        if not is_pinned and group is not None:
                            original.setdefault(group, []).append(ops)
                    for group, slots in slots_by_group.items():
                        for slot, ops in zip(slots, original[group]):
                            rest[slot] = (group, ops)
                for ops in pinned + [ops for _, ops in rest]:
                    self.threads[thread_id].extend(ops)
            blocks.clear()
        if with_barrier:
            barrier_id = self._barrier_next
            self._barrier_next += 1
            for thread in self.threads:
                thread.append(barrier(barrier_id, self.num_threads))

    def build(self) -> ParallelProgram:
        """Finish the program (flushing any un-ended phase without a barrier)."""
        if any(self._pending):
            self.end_phase(with_barrier=False)
        return ParallelProgram(
            name=self.name,
            threads=self.threads,
            lock_addresses=tuple(self._locks),
            regions=self.alloc.regions,
            benign_racy_sites=frozenset(self.benign_sites),
        )


# --------------------------------------------------------------------------
# Critical-section helper
# --------------------------------------------------------------------------


def critical_section(
    builder: WorkloadBuilder,
    lock_addr: int,
    body: list[Op],
    acquire_site: Site,
    release_site: Site,
) -> list[Op]:
    """Wrap ``body`` in a lock/unlock pair at the given sites.

    A critical section is an injection target iff its acquire site's label
    carries :data:`INJECTABLE_PREFIX` (the paper omits "a randomly selected
    dynamic instance of a lock primitive and the corresponding unlock",
    Section 4).
    """
    return [lock(lock_addr, acquire_site), *body, unlock(lock_addr, release_site)]


def cs_sites(
    builder: WorkloadBuilder, label: str, *, injectable: bool = False
) -> tuple[Site, Site]:
    """Acquire/release site pair for a (possibly injectable) section."""
    prefix = INJECTABLE_PREFIX if injectable else ""
    return (
        builder.site(f"{prefix}{label}.lock"),
        builder.site(f"{label}.unlock"),
    )


# --------------------------------------------------------------------------
# Patterns
# --------------------------------------------------------------------------


class MigratoryObjects:
    """Objects, each with its own lock, visited by every thread.

    Each visit optionally brackets itself with a hot-lock touch (modelling a
    task-queue or global list the thread consults between object visits),
    which chains visits in happens-before order — the masking that blinds
    happens-before in water-nsquared.  With many objects, the reuse distance
    between two visits to the same object is large, so its line is
    frequently displaced from the L2 — making these critical sections the
    realistic injection targets whose bugs the default HARD can miss while
    the ideal lockset cannot.

    The object set is created once and can emit visit batches into several
    phases (ocean revisits its reduction variables every phase).  Because a
    barrier discards all pre-barrier access history (Section 3.5), each
    phase's visits should be preceded by :meth:`emit_warm` — a pinned,
    non-injectable sweep in which two threads write every object under its
    lock, guaranteeing the Shared-Modified state is re-established before
    any injectable visit.
    """

    def __init__(
        self,
        builder: WorkloadBuilder,
        *,
        label: str,
        num_objects: int,
        object_bytes: int = 32,
        hot_lock: int | None = None,
        rw_words: int = 2,
        injectable: bool = True,
    ):
        if object_bytes % 32:
            raise ProgramError(
                "object size must be a whole number of lines so objects "
                "never share a line (keeps the pattern free of accidental "
                "false sharing)"
            )
        self.builder = builder
        self.label = label
        self.num_objects = num_objects
        self.object_bytes = object_bytes
        self.rw_words = rw_words
        self.hot_lock = hot_lock
        self.region = builder.region(label, num_objects * object_bytes)
        self.locks = [
            builder.new_lock(f"{label}.lock{i}") for i in range(num_objects)
        ]
        self._read_site = builder.site(f"{label}.read")
        self._write_site = builder.site(f"{label}.write")
        self._hot_site = builder.site(f"{label}.hot")
        self._hot_data = (
            builder.region(f"{label}.hotdata", 32) if hot_lock is not None else None
        )
        self._acq, self._rel = cs_sites(builder, f"{label}.obj", injectable=injectable)
        self._warm_acq, self._warm_rel = cs_sites(builder, f"{label}.warm")
        self._hot_acq, self._hot_rel = cs_sites(builder, f"{label}.hotcs")

    def _body(self, index: int) -> list[Op]:
        base = self.region.at(index * self.object_bytes)
        body: list[Op] = []
        for word in range(self.rw_words):
            addr = base + 4 * (word % (self.object_bytes // 4))
            body.append(read(addr, self._read_site))
            body.append(write(addr, self._write_site))
        return body

    def emit_warm(self, warm_threads: int = 4) -> None:
        """Pinned non-injectable sweep: ``warm_threads`` write every object.

        Re-establishes every object's Shared-Modified LState at the start
        of the phase so that any later unprotected access to it is a
        *detectable* lockset violation.  All four threads sweep by default:
        the sweeps are pinned ahead of each thread's shuffled visits, so
        every thread's first (potentially injectable) visit starts only
        after its own full sweep — by which time the other threads' sweeps
        have covered (almost) every object too, under fair scheduling.
        """
        for offset in range(min(warm_threads, self.builder.num_threads)):
            thread_id = offset
            for index in range(self.num_objects):
                ops = critical_section(
                    self.builder,
                    self.locks[index],
                    [write(self.region.at(index * self.object_bytes), self._write_site)],
                    self._warm_acq,
                    self._warm_rel,
                )
                self.builder.block(thread_id, ops, pin_first=True)

    def emit_visits(
        self,
        visits_per_thread: int,
        *,
        phase_tag: str = "",
        injectable_after: float = 0.2,
        stage: int = STAGE_MAIN,
    ) -> None:
        """Random locked visits by every thread.

        The first ``injectable_after`` fraction of each thread's visits is
        not injectable, keeping injected bugs away from the racy start of a
        phase where the warm sweep may not have completed globally.
        """
        for thread_id in range(self.builder.num_threads):
            rng = self.builder.rng_for(f"{self.label}.visits{phase_tag}.t{thread_id}")
            cutoff = int(visits_per_thread * injectable_after)
            for visit in range(visits_per_thread):
                index = rng.randrange(self.num_objects)
                ops: list[Op] = []
                if self.hot_lock is not None and self._hot_data is not None:
                    ops.extend(
                        critical_section(
                            self.builder,
                            self.hot_lock,
                            [
                                read(self._hot_data.base, self._hot_site),
                                write(self._hot_data.base, self._hot_site),
                            ],
                            self._hot_acq,
                            self._hot_rel,
                        )
                    )
                acq = self._acq if visit >= cutoff else self._warm_acq
                rel = self._rel if visit >= cutoff else self._warm_rel
                ops.extend(
                    critical_section(
                        self.builder, self.locks[index], self._body(index), acq, rel
                    )
                )
                self.builder.block(thread_id, ops, stage=stage)


def migratory_locked(
    builder: WorkloadBuilder,
    *,
    label: str,
    num_objects: int,
    object_bytes: int,
    visits_per_thread: int,
    hot_lock: int | None = None,
    rw_words: int = 2,
    warm: bool = True,
) -> AddressSpace:
    """One-phase convenience wrapper around :class:`MigratoryObjects`."""
    objects = MigratoryObjects(
        builder,
        label=label,
        num_objects=num_objects,
        object_bytes=object_bytes,
        hot_lock=hot_lock,
        rw_words=rw_words,
    )
    if warm:
        objects.emit_warm()
    objects.emit_visits(visits_per_thread)
    return objects.region


def locked_counters(
    builder: WorkloadBuilder,
    *,
    label: str,
    num_counters: int,
    updates_per_thread: int,
    injectable: bool = True,
    stage: int = STAGE_MAIN,
    body_words: int = 1,
    hot_lock: int | None = None,
) -> AddressSpace:
    """Hot, contended shared records, each protected by its own lock.

    High access frequency keeps the lines cached, so injected bugs here are
    caught by every lockset variant.  Happens-before detection depends on
    the *race window*: while a thread is inside a de-protected section it
    has released nothing, so any concurrent access by another thread to the
    same record is unordered.  ``body_words`` sets the section length
    (longer critical sections ⇒ wider windows ⇒ more happens-before
    detections); few counters ⇒ fierce contention ⇒ another thread lands in
    the window.  An optional ``hot_lock`` bracket before each update
    tightens the happens-before chains and *lowers* its detection rate —
    the knob that differentiates barnes-like (fully detected) from
    raytrace-like (partially detected) behaviour.

    One line per counter keeps the pattern free of false-sharing side
    effects.
    """
    region = builder.region(label, num_counters * 32)
    locks = [builder.new_lock(f"{label}.lock{i}") for i in range(num_counters)]
    read_site = builder.site(f"{label}.read")
    write_site = builder.site(f"{label}.write")
    acq, rel = cs_sites(builder, f"{label}.update", injectable=injectable)
    hot_site = builder.site(f"{label}.hot")
    hot_data = builder.region(f"{label}.hotdata", 32) if hot_lock is not None else None
    hot_acq, hot_rel = cs_sites(builder, f"{label}.hotcs")

    for thread_id in range(builder.num_threads):
        rng = builder.rng_for(f"{label}.t{thread_id}")
        for _ in range(updates_per_thread):
            index = rng.randrange(num_counters)
            addr = region.at(index * 32)
            body: list[Op] = []
            for word in range(body_words):
                word_addr = addr + 4 * (word % 8)
                body.append(read(word_addr, read_site))
                body.append(write(word_addr, write_site))
            ops: list[Op] = []
            if hot_lock is not None and hot_data is not None:
                ops.extend(
                    critical_section(
                        builder,
                        hot_lock,
                        [read(hot_data.base, hot_site), write(hot_data.base, hot_site)],
                        hot_acq,
                        hot_rel,
                    )
                )
            ops.extend(critical_section(builder, locks[index], body, acq, rel))
            builder.block(thread_id, ops, stage=stage)
    return region


def producer_consumer(
    builder: WorkloadBuilder,
    *,
    label: str,
    num_tasks: int,
    payload_words: int,
    site_groups: int = 2,
    queue_lock: int | None = None,
    consume_lag_blocks: int = 10,
) -> AddressSpace:
    """Task hand-off through a locked queue; payloads protected by ordering.

    The producer writes a task payload, then updates the queue under the
    queue lock; a consumer takes the queue lock and then reads the payload.
    The payload accesses themselves are deliberately lock-free — correct by
    ownership transfer, which pure lockset cannot see (a Figure 1 shape
    acting as a *false-positive* source: even the ideal lockset reports the
    payload sites, while happens-before stays silent whenever the trace
    orders producer before consumer through the queue lock).

    ``site_groups`` controls how many distinct produce/consume source sites
    the tasks are spread over — i.e. how many source-level alarms the
    pattern can contribute.
    """
    qlock = queue_lock if queue_lock is not None else builder.new_lock(f"{label}.qlock")
    slots = builder.region(f"{label}.queue", max(num_tasks, 1) * 4, align=4)
    payload = builder.region(f"{label}.payload", num_tasks * payload_words * 4)
    produce_sites = builder.sites(f"{label}.produce", site_groups)
    consume_sites = builder.sites(f"{label}.consume", site_groups)
    slot_site = builder.site(f"{label}.slot")
    enq_acq, enq_rel = cs_sites(builder, f"{label}.enqueue")
    deq_acq, deq_rel = cs_sites(builder, f"{label}.dequeue")

    consumers = list(range(1, builder.num_threads)) or [0]
    rng = builder.rng_for(label)
    # Lag blocks delay each consumer's first dequeues so that, despite
    # scheduler jitter, a task is (almost) always produced before it is
    # consumed — like a real queue, where a consumer blocks on an empty
    # queue rather than reading unproduced data.
    scratch = builder.region(f"{label}.scratch", builder.num_threads * 32)
    lag_site = builder.site(f"{label}.lag")
    for consumer in consumers:
        for _ in range(consume_lag_blocks):
            builder.block(
                consumer,
                [read(scratch.at(consumer * 32), lag_site)],
                order_group=f"{label}.cons",
            )
    for task in range(num_tasks):
        group = task % site_groups
        consumer = consumers[rng.randrange(len(consumers))]
        base = payload.at(task * payload_words * 4)
        produce_ops = [
            write(base + 4 * w, produce_sites[group]) for w in range(payload_words)
        ]
        produce_ops += critical_section(
            builder, qlock, [write(slots.at(task * 4), slot_site)], enq_acq, enq_rel
        )
        consume_ops = critical_section(
            builder, qlock, [read(slots.at(task * 4), slot_site)], deq_acq, deq_rel
        )
        # The consumer both reads the task and writes its result into the
        # payload record, so even a perfectly ordered hand-off violates the
        # locking discipline (Shared-Modified with an empty lock set) —
        # the Figure 1 shape as seen by the detectors.
        consume_ops += [
            read(base + 4 * w, consume_sites[group]) for w in range(payload_words)
        ]
        consume_ops.append(write(base, consume_sites[group]))
        # Order groups keep production and consumption temporally coupled
        # (a real queue is consumed roughly in fill order); rare scheduler
        # inversions remain and surface as happens-before alarms too.
        builder.block(0, produce_ops, order_group=f"{label}.prod")
        builder.block(consumer, consume_ops, order_group=f"{label}.cons")
    return payload


def false_sharing_private(
    builder: WorkloadBuilder,
    *,
    label: str,
    num_lines: int,
    rounds: int,
    site_groups: int | None = None,
    threads_per_line: int = 2,
    stage: int = STAGE_QUIET,
) -> AddressSpace:
    """Per-thread private slots packed into shared cache lines.

    Each 32 B line holds one 4 B slot per participating thread; every thread
    updates only its own slot, lock-free — correct, but at line granularity
    the metadata sees multiple writers with no common lock, so *both*
    default detectors raise alarms that vanish at 4 B granularity.

    The accesses are emitted into the phase's synchronization-free QUIET
    stage: with no release/acquire edges between them, the conflicting slot
    updates are *guaranteed* unordered, so happens-before alarms too (real
    programs hit this because conflicting false-shared updates recur densely
    enough that some pair always falls between two synchronisations).

    By default every line gets its own site pair, so the pattern
    contributes up to ``num_lines * threads_per_line`` source-level alarms.
    """
    region = builder.region(label, num_lines * 32)
    groups = num_lines if site_groups is None else site_groups
    slot_sites = [
        builder.sites(f"{label}.line{g}", threads_per_line) for g in range(groups)
    ]
    for line_index in range(num_lines):
        group_sites = slot_sites[line_index % groups]
        for offset in range(threads_per_line):
            thread_id = (line_index + offset) % builder.num_threads
            addr = region.at(line_index * 32 + offset * 4)
            for _ in range(rounds):
                builder.block(
                    thread_id,
                    [read(addr, group_sites[offset]), write(addr, group_sites[offset])],
                    stage=stage,
                )
    return region


def false_sharing_locked(
    builder: WorkloadBuilder,
    *,
    label: str,
    num_lines: int,
    rounds: int,
    hot_lock: int,
    site_groups: int | None = None,
) -> AddressSpace:
    """Differently-locked variables sharing a line, accesses ordered.

    Line ``i`` holds variable A protected by lock ``a`` (updated by one
    thread) and variable B protected by lock ``b`` (updated by another).
    The schedule of accesses is staged so that every conflicting pair is
    happens-before ordered through the surrounding mixed locked work:

    * A is updated in STAGE_MAIN (amid hot-lock traffic),
    * B is updated in STAGE_QUIET (under ``b`` only),
    * A is *revisited* in STAGE_LATE, after the STAGE_MIX2 lock traffic has
      ordered the quiet stage before it.

    Happens-before therefore stays silent.  The lockset candidate set of
    the shared line, however, intersects ``{a}`` with ``{b}`` and is empty
    by the STAGE_LATE revisit — a line-granularity false alarm unique to
    the default HARD (cholesky's 91-vs-37 gap in Table 2).  Contributes up
    to ``num_lines`` source-level alarms (the A sites).
    """
    region = builder.region(label, num_lines * 32)
    groups = num_lines if site_groups is None else site_groups
    var_sites = [builder.sites(f"{label}.line{g}", 2) for g in range(groups)]
    hot_site = builder.site(f"{label}.hot")
    hot_data = builder.region(f"{label}.hotdata", 32)
    hot_acq, hot_rel = cs_sites(builder, f"{label}.chain")
    var_acq, var_rel = cs_sites(builder, f"{label}.var")

    def hot_touch() -> list[Op]:
        return critical_section(
            builder,
            hot_lock,
            [read(hot_data.base, hot_site), write(hot_data.base, hot_site)],
            hot_acq,
            hot_rel,
        )

    for line_index in range(num_lines):
        lock_a = builder.new_lock(f"{label}.{line_index}.a")
        lock_b = builder.new_lock(f"{label}.{line_index}.b")
        sites = var_sites[line_index % groups]
        thread_a = line_index % builder.num_threads
        thread_b = (line_index + 1) % builder.num_threads
        addr_a = region.at(line_index * 32)
        addr_b = region.at(line_index * 32 + 4)

        def var_touch(lk: int, addr: int, site: Site) -> list[Op]:
            return critical_section(
                builder, lk, [read(addr, site), write(addr, site)], var_acq, var_rel
            )

        for _ in range(rounds):
            builder.block(
                thread_a,
                hot_touch() + var_touch(lock_a, addr_a, sites[0]),
                stage=STAGE_MAIN,
            )
            builder.block(
                thread_b, var_touch(lock_b, addr_b, sites[1]), stage=STAGE_QUIET
            )
            builder.block(
                thread_a,
                hot_touch() + var_touch(lock_a, addr_a, sites[0]),
                stage=STAGE_LATE,
            )
    return region


def flag_handoff(
    builder: WorkloadBuilder,
    *,
    label: str,
    num_instances: int,
    data_words: int = 2,
    site_groups: int | None = None,
    stage: int = STAGE_QUIET,
) -> AddressSpace:
    """Hand-crafted flag synchronization (no locks, no barrier).

    The writer fills a record and raises a flag; the reader polls the flag
    and then reads the record.  There is no vector-clock-visible edge, so
    *every* detector — ideal ones included — reports the record sites.
    These model Section 5.1's "hand-crafted synchronizations", the false
    alarms that survive in the ideal columns of Table 2.
    """
    region = builder.region(label, num_instances * 32)
    groups = num_instances if site_groups is None else site_groups
    fill_sites = builder.sites(f"{label}.fill", groups)
    flag_sites = builder.sites(f"{label}.flag", groups)
    drain_sites = builder.sites(f"{label}.drain", groups)
    for instance in range(num_instances):
        group = instance % groups
        writer = instance % builder.num_threads
        reader = (instance + 1) % builder.num_threads
        base = region.at(instance * 32)
        flag_addr = base + data_words * 4
        fill = [write(base + 4 * w, fill_sites[group]) for w in range(data_words)]
        fill.append(write(flag_addr, flag_sites[group]))
        drain = [read(flag_addr, flag_sites[group]) for _ in range(2)]
        drain += [read(base + 4 * w, drain_sites[group]) for w in range(data_words)]
        builder.block(writer, fill, stage=stage)
        builder.block(reader, drain, stage=stage)
    return region


def benign_counters(
    builder: WorkloadBuilder,
    *,
    label: str,
    num_counters: int,
    updates_per_thread: int,
    stage: int = STAGE_QUIET,
) -> AddressSpace:
    """Deliberately unsynchronised statistics counters (benign races).

    Each counter occupies its own line so the alarms these raise are
    genuine (algorithm-level) races, not false-sharing artifacts; they show
    up in every detector, default and ideal (Section 5.1's "benign races").
    """
    region = builder.region(label, num_counters * 32)
    site_list = [builder.site(f"{label}.ctr{i}") for i in range(num_counters)]
    for counter in range(num_counters):
        addr = region.at(counter * 32)
        for thread_id in range(builder.num_threads):
            ops: list[Op] = []
            for _ in range(updates_per_thread):
                ops.append(read(addr, site_list[counter]))
                ops.append(write(addr, site_list[counter]))
            builder.block(thread_id, ops, stage=stage)
        builder.benign_sites.add(site_list[counter])
    return region


class GridSweeps:
    """Ocean-style red/black grid sweeps separated by barriers.

    The grid is split into per-thread bands of whole lines, plus *boundary*
    lines straddling two bands: each boundary line holds slots written by
    two neighbouring threads in the same phase.  Barriers order the phases,
    so the program is race-free — but at line granularity the boundary
    lines produce alarms in both default detectors, while at 4 B they are
    silent.  This is ocean's 62-vs-1 false-alarm profile.

    Each boundary line gets its own source site (shared across phases, as
    one source loop would be), so the pattern contributes up to
    ``boundary_lines * num_threads`` source-level alarms regardless of how
    many phases run.

    :meth:`emit_phase` flushes *all* pending blocks of the builder into the
    phase and ends it with the barrier, so queue any co-phased patterns
    (reductions, streaming) before calling it.
    """

    def __init__(
        self,
        builder: WorkloadBuilder,
        *,
        label: str,
        lines_per_band: int,
        boundary_lines: int = 1,
        reads_per_line: int = 1,
    ):
        self.builder = builder
        self.label = label
        self.lines_per_band = lines_per_band
        self.boundary_lines = boundary_lines
        self.reads_per_line = reads_per_line
        num_threads = builder.num_threads
        self._band_bytes = lines_per_band * 32
        self.interior = builder.region(
            f"{label}.interior", num_threads * self._band_bytes
        )
        self.boundary = builder.region(
            f"{label}.boundary", boundary_lines * num_threads * 32
        )
        self._sweep_site = builder.site(f"{label}.sweep")
        self._edge_sites = builder.sites(
            f"{label}.edge", boundary_lines * num_threads
        )
        self._phase = 0

    def _boundary_ops(self, thread_id: int) -> list[Op]:
        """One round of boundary writes: own slots + neighbour slots."""
        num_threads = self.builder.num_threads
        ops: list[Op] = []
        for edge in range(self.boundary_lines):
            own_line = thread_id * self.boundary_lines + edge
            neighbour_line = (
                (thread_id + 1) % num_threads
            ) * self.boundary_lines + edge
            ops.append(
                write(self.boundary.at(own_line * 32), self._edge_sites[own_line])
            )
            ops.append(
                write(
                    self.boundary.at(neighbour_line * 32 + 4),
                    self._edge_sites[neighbour_line],
                )
            )
        return ops

    def emit_phase(self) -> None:
        """Emit one sweep for every thread and close the phase with a barrier."""
        builder = self.builder
        num_threads = builder.num_threads
        for thread_id in range(num_threads):
            ops: list[Op] = []
            base = thread_id * self._band_bytes
            # Boundary exchanges are sprinkled through the sweep (real
            # stencils touch their halo rows repeatedly per iteration), so
            # neighbouring threads' conflicting boundary writes overlap in
            # time during the concurrently executing sweeps.
            sprinkle_at = {
                (self.lines_per_band * k) // 4 for k in range(4)
            }
            for line_index in range(self.lines_per_band):
                if line_index in sprinkle_at:
                    ops.extend(self._boundary_ops(thread_id))
                addr = self.interior.at(
                    base + line_index * 32 + (self._phase % 8) * 4
                )
                for _ in range(self.reads_per_line):
                    ops.append(read(addr, self._sweep_site))
                ops.append(write(addr, self._sweep_site))
            builder.block(thread_id, ops, stage=STAGE_GRID)
        builder.end_phase()
        self._phase += 1


def grid_phases(
    builder: WorkloadBuilder,
    *,
    label: str,
    lines_per_band: int,
    phases: int,
    boundary_lines: int = 1,
    reads_per_line: int = 1,
) -> AddressSpace:
    """Convenience wrapper: run ``phases`` sweeps of a :class:`GridSweeps`."""
    grid = GridSweeps(
        builder,
        label=label,
        lines_per_band=lines_per_band,
        boundary_lines=boundary_lines,
        reads_per_line=reads_per_line,
    )
    for _ in range(phases):
        grid.emit_phase()
    return grid.interior


class PhaseHandoff:
    """Figure 7's pattern: data owned by a different thread each phase.

    A block of lines is read and written by exactly one thread per phase,
    with ownership rotating across barrier phases.  The code is race-free —
    the barrier orders the phases — but without the Section 3.5 BFVector
    reset the lockset algorithm reports every line (the accesses from
    different phases have no common lock).  With the reset the pattern is
    silent, and happens-before is silent either way.  One source site per
    line, so the barrier-reset ablation signal is ``num_lines`` alarms.
    """

    def __init__(self, builder: WorkloadBuilder, *, label: str, num_lines: int):
        self.builder = builder
        self.label = label
        self.num_lines = num_lines
        self.region = builder.region(label, num_lines * 32)
        self._sites = builder.sites(f"{label}.cell", num_lines)
        self._phase = 0

    def emit_phase_work(self, rounds: int = 2) -> None:
        """Queue this phase's owner accesses (call once per phase)."""
        owner = self._phase % self.builder.num_threads
        ops: list[Op] = []
        for _ in range(rounds):
            for index in range(self.num_lines):
                addr = self.region.at(index * 32)
                ops.append(read(addr, self._sites[index]))
                ops.append(write(addr, self._sites[index]))
        self.builder.block(owner, ops)
        self._phase += 1


def read_shared_table(
    builder: WorkloadBuilder,
    *,
    label: str,
    num_lines: int,
    reads_per_thread: int,
) -> AddressSpace:
    """Write-once, read-many data (the Shared LState path).

    Thread 0 initializes the table lock-free in one phase; after a barrier
    everyone reads it lock-free.  The LState machine keeps this silent:
    Exclusive during initialization, Shared afterwards.

    Generates two phases (initialization, readers) with a barrier between —
    call it on its own, not mixed into an open phase.
    """
    region = builder.region(label, num_lines * 32)
    init_site = builder.site(f"{label}.init")
    read_site = builder.site(f"{label}.lookup")
    init_ops = [write(region.at(i * 32), init_site) for i in range(num_lines)]
    builder.block(0, init_ops)
    builder.end_phase()
    for thread_id in range(builder.num_threads):
        rng = builder.rng_for(f"{label}.reader{thread_id}")
        ops = [
            read(region.at(rng.randrange(num_lines) * 32), read_site)
            for _ in range(reads_per_thread)
        ]
        builder.block(thread_id, ops)
    builder.end_phase()
    return region


def streaming_private(
    builder: WorkloadBuilder,
    *,
    label: str,
    lines_per_thread: int,
    passes: int = 1,
    interleave_blocks: int = 8,
    region: AddressSpace | None = None,
    stage: int = STAGE_MAIN,
) -> AddressSpace:
    """Large private per-thread arrays streamed once per pass.

    Pure cache pressure: no sharing, no locks, no alarms — but enough
    distinct lines to push shared data out of the L2 between uses, which is
    what makes the default detectors lose metadata (Tables 4/5).  The
    stream is chopped into ``interleave_blocks`` blocks so phase shuffling
    spreads the pressure across the whole phase.  Pass ``region`` to stream
    over the same arrays again in a later phase instead of allocating new
    ones.
    """
    if region is None:
        region = builder.region(label, builder.num_threads * lines_per_thread * 32)
    site = builder.site(f"{label}.stream")
    for thread_id in range(builder.num_threads):
        base = thread_id * lines_per_thread * 32
        for _ in range(passes):
            per_block = max(1, lines_per_thread // interleave_blocks)
            for block_start in range(0, lines_per_thread, per_block):
                ops = []
                for line_index in range(
                    block_start, min(block_start + per_block, lines_per_thread)
                ):
                    ops.append(write(region.at(base + line_index * 32), site))
                builder.block(thread_id, ops, stage=stage)
    return region

