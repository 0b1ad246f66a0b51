"""Hand-built divergence exemplars shared by the oracle tests and corpus.

Each builder returns a tiny :class:`ParallelProgram` engineered to trigger
exactly one class of the expected-divergence taxonomy (plus, at most,
other *expected* classes as side effects).  :func:`find_schedule_seed`
searches for a schedule under which the oracle's verdict matches, so every
exemplar is pinned to a concrete, replayable (program, schedule) pair.

``tests/fuzz/regen_corpus.py`` serialises these into the regression corpus;
``tests/fuzz/test_oracle.py`` asserts the classifications directly.
"""

from __future__ import annotations

from repro.common.events import lock, read, unlock, write
from repro.fuzz.generator import BLOOM_ALIAS_STRIDE
from repro.fuzz.oracle import (
    DEFAULT_ORACLE,
    CaseVerdict,
    DivergenceKind,
    OracleConfig,
    evaluate_program,
)
from repro.threads.program import ParallelProgram
from repro.workloads.base import (
    WorkloadBuilder,
    critical_section,
    cs_sites,
    streaming_private,
)


def false_sharing_case() -> ParallelProgram:
    """Two threads update private words packed into one cache line.

    The exact 4 B lockset never sees a conflict; HARD's line granularity
    merges the two words, so the line reaches Shared-Modified with no locks
    held on either side — a pure FALSE_SHARING hard-extra alarm.
    """
    builder = WorkloadBuilder("case:false-sharing", num_threads=2, seed=0)
    line = builder.region("fs.line", 32)
    slot0 = builder.site("fs.slot0")
    slot1 = builder.site("fs.slot1")
    for _ in range(4):
        builder.block(0, [write(line.at(0), slot0), read(line.at(0), slot0)])
        builder.block(1, [write(line.at(4), slot1), read(line.at(4), slot1)])
    builder.end_phase(shuffle=False, with_barrier=False)
    return builder.build()


def bloom_alias_case() -> ParallelProgram:
    """The wrong-lock bug under two Bloom-aliased locks.

    Locks A and B sit exactly :data:`BLOOM_ALIAS_STRIDE` bytes apart, so
    their 16-bit BFVector signatures are identical: HARD's candidate AND
    never empties while the exact lockset intersects {A} ∩ {B} = ∅ and
    reports — a guaranteed BLOOM_COLLISION miss.
    """
    builder = WorkloadBuilder("case:bloom-alias", num_threads=2, seed=0)
    lock_a = builder.new_lock("alias.a")
    lock_b = builder.new_lock("alias.pad")
    while lock_b != lock_a + BLOOM_ALIAS_STRIDE:
        lock_b = builder.new_lock("alias.pad")
    victim = builder.region("alias.victim", 32)
    site = builder.site("alias.victim")
    a_acq, a_rel = cs_sites(builder, "alias.a")
    b_acq, b_rel = cs_sites(builder, "alias.b")
    for _ in range(4):
        builder.block(
            0,
            critical_section(
                builder,
                lock_a,
                [read(victim.base, site), write(victim.base, site)],
                a_acq,
                a_rel,
            ),
        )
        builder.block(
            1,
            critical_section(
                builder,
                lock_b,
                [read(victim.base, site), write(victim.base, site)],
                b_acq,
                b_rel,
            ),
        )
    builder.end_phase(shuffle=False, with_barrier=False)
    return builder.build()


def l2_displacement_case() -> ParallelProgram:
    """A race HARD misses because streaming displaced the victim's metadata.

    Stage 0 warms the victim line's candidate set under its lock; stage 1
    streams enough private lines to overflow the oracle's 16 KiB L2
    (displacing the victim's line-state); stage 2 writes the victim without
    the lock.  The exact lockset alarms; hard-default sees a fresh Exclusive
    line and stays silent; a big-L2 re-run recovers the report.
    """
    builder = WorkloadBuilder("case:l2-displacement", num_threads=2, seed=0)
    guard = builder.new_lock("victim.lock")
    victim = builder.region("victim", 32)
    warm_site = builder.site("victim.warm")
    acq, rel = cs_sites(builder, "victim")
    for thread_id in range(2):
        builder.block(
            thread_id,
            critical_section(
                builder,
                guard,
                [read(victim.base, warm_site), write(victim.base, warm_site)],
                acq,
                rel,
            ),
            stage=0,
        )
    streaming_private(builder, label="stream", lines_per_thread=400, stage=1)
    race_site = builder.site("victim.race")
    builder.block(1, [write(victim.base, race_site)], stage=2)
    builder.end_phase(shuffle=False, with_barrier=False)
    return builder.build()


def ordered_by_sync_case() -> ParallelProgram:
    """Lock discipline violated, but the interleaving orders the accesses.

    Thread 0 writes X bare, then passes through lock H; thread 1 passes
    through H, then writes X bare.  Under a schedule where thread 0's H
    section precedes thread 1's, the release→acquire edge orders the two
    writes — happens-before is silent while the exact lockset (empty
    candidate at a Shared-Modified write) reports: the Figure 1 scenario.
    """
    builder = WorkloadBuilder("case:ordered-by-sync", num_threads=2, seed=0)
    hand = builder.new_lock("order.h")
    shared = builder.region("order.x", 32)
    first = builder.site("order.first")
    second = builder.site("order.second")
    h_acq, h_rel = cs_sites(builder, "order.h")
    builder.block(0, [write(shared.base, first), lock(hand, h_acq), unlock(hand, h_rel)])
    builder.block(1, [lock(hand, h_acq), unlock(hand, h_rel), write(shared.base, second)])
    builder.end_phase(shuffle=False, with_barrier=False)
    return builder.build()


def lstate_forgiven_case() -> ParallelProgram:
    """An unordered write/read pair Eraser's LState machine forgives.

    Thread 0 writes X once; thread 1 reads it.  With the write first the
    chunk only ever reaches Exclusive then Shared — the race check never
    runs, so the exact lockset is silent while happens-before reports the
    unordered conflicting pair.
    """
    builder = WorkloadBuilder("case:lstate-forgiven", num_threads=2, seed=0)
    shared = builder.region("init.x", 32)
    writer = builder.site("init.writer")
    reader = builder.site("init.reader")
    builder.block(0, [write(shared.base, writer)])
    builder.block(1, [read(shared.base, reader), read(shared.base, reader)])
    builder.end_phase(shuffle=False, with_barrier=False)
    return builder.build()


def pairwise_lockset_case() -> ParallelProgram:
    """Eraser's accumulated intersection empties; no pair is lock-disjoint.

    Three threads write X, each under two of the three locks {A, B, C}:
    thread 0 holds {A, B}, thread 1 holds {B, C}, thread 2 holds {A, C}.
    Every pair of critical sections shares a lock — so they are mutually
    exclusive, happens-before orders every conflicting pair, and every
    pairwise lockset scheme (multilock-hb, and its no-weak-HB ablation) is
    silent.  But the *accumulated* candidate set {A,B} ∩ {B,C} ∩ {A,C} is
    empty, so the exact lockset reports: the PAIRWISE_LOCKSET hybrid-missed
    class, verified by the oracle's no-weak-HB re-run staying silent.
    """
    builder = WorkloadBuilder("case:pairwise-lockset", num_threads=3, seed=0)
    lock_a = builder.new_lock("pair.a")
    lock_b = builder.new_lock("pair.b")
    lock_c = builder.new_lock("pair.c")
    shared = builder.region("pair.x", 32)
    # Each thread acquires its two locks in ascending order, so there is a
    # consistent global lock order and no schedule can deadlock.
    pairs = ((lock_a, lock_b), (lock_b, lock_c), (lock_a, lock_c))
    for thread_id, (outer, inner) in enumerate(pairs):
        site = builder.site(f"pair.t{thread_id}")
        acq, rel = cs_sites(builder, f"pair.t{thread_id}")
        for _ in range(2):
            builder.block(
                thread_id,
                [
                    lock(outer, acq),
                    lock(inner, acq),
                    write(shared.base, site),
                    unlock(inner, rel),
                    unlock(outer, rel),
                ],
            )
    builder.end_phase(shuffle=False, with_barrier=False)
    return builder.build()


def absorbed_locks_case() -> ParallelProgram:
    """A real wrong-lock race absorbed in the Virgin/Exclusive window.

    Thread 0 writes X under lock A; thread 1 writes X under lock B.  When
    every A-protected access precedes every B-protected one, thread 0's
    accesses all run Exclusive (candidate never updated), so the exact
    lockset's intersection is seeded at {B} and never empties — a strict
    no-forgiveness lockset would alarm, which is exactly what the oracle's
    LState replay verifies before calling this LSTATE_FORGIVEN.
    """
    builder = WorkloadBuilder("case:absorbed-locks", num_threads=2, seed=0)
    lock_a = builder.new_lock("absorb.a")
    lock_b = builder.new_lock("absorb.b")
    shared = builder.region("absorb.x", 32)
    site_a = builder.site("absorb.under-a")
    site_b = builder.site("absorb.under-b")
    a_acq, a_rel = cs_sites(builder, "absorb.a")
    b_acq, b_rel = cs_sites(builder, "absorb.b")
    for _ in range(2):
        builder.block(
            0,
            critical_section(
                builder, lock_a, [write(shared.base, site_a)], a_acq, a_rel
            ),
        )
    for _ in range(2):
        builder.block(
            1,
            critical_section(
                builder, lock_b, [write(shared.base, site_b)], b_acq, b_rel
            ),
        )
    builder.end_phase(shuffle=False, with_barrier=False)
    return builder.build()


#: name -> (builder, required kinds, allowed kinds) for corpus generation.
EXEMPLARS: dict[str, tuple] = {
    "false-sharing": (
        false_sharing_case,
        {DivergenceKind.FALSE_SHARING},
        {DivergenceKind.FALSE_SHARING},
    ),
    "bloom-collision": (
        bloom_alias_case,
        {DivergenceKind.BLOOM_COLLISION},
        {
            DivergenceKind.BLOOM_COLLISION,
            DivergenceKind.LSTATE_FORGIVEN,
            DivergenceKind.HB_SCHEDULE_MISS,
        },
    ),
    "l2-displacement": (
        l2_displacement_case,
        {DivergenceKind.L2_DISPLACEMENT},
        {
            DivergenceKind.L2_DISPLACEMENT,
            DivergenceKind.ORDERED_BY_SYNC,
            DivergenceKind.LSTATE_FORGIVEN,
            DivergenceKind.HB_SCHEDULE_MISS,
        },
    ),
    "ordered-by-sync": (
        ordered_by_sync_case,
        # The hybrid makes the Figure 1 scenario two-sided: exact lockset
        # reports where HB is silent (ORDERED_BY_SYNC), and multilock-hb —
        # schedule-insensitive — reports it too (HB_SCHEDULE_MISS).
        {DivergenceKind.ORDERED_BY_SYNC, DivergenceKind.HB_SCHEDULE_MISS},
        {DivergenceKind.ORDERED_BY_SYNC, DivergenceKind.HB_SCHEDULE_MISS},
    ),
    "pairwise-lockset": (
        pairwise_lockset_case,
        # The exact lockset must report too (ORDERED_BY_SYNC): otherwise
        # PAIRWISE_LOCKSET comes from the strict envelope alone and the
        # exemplar no longer shows Eraser's accumulated intersection.
        {DivergenceKind.PAIRWISE_LOCKSET, DivergenceKind.ORDERED_BY_SYNC},
        {DivergenceKind.PAIRWISE_LOCKSET, DivergenceKind.ORDERED_BY_SYNC},
    ),
    "lstate-forgiven": (
        lstate_forgiven_case,
        {DivergenceKind.LSTATE_FORGIVEN},
        {DivergenceKind.LSTATE_FORGIVEN},
    ),
    "absorbed-locks": (
        absorbed_locks_case,
        {DivergenceKind.LSTATE_FORGIVEN},
        {DivergenceKind.LSTATE_FORGIVEN},
    ),
}


def find_schedule_seed(
    program: ParallelProgram,
    required: set[DivergenceKind],
    *,
    allowed: set[DivergenceKind] | None = None,
    tries: int = 100,
    config: OracleConfig = DEFAULT_ORACLE,
) -> tuple[int, CaseVerdict]:
    """The first schedule seed whose verdict shows the divergence class.

    The verdict must contain every ``required`` kind, nothing outside
    ``allowed`` (when given), and no unexplained divergence.  Deterministic:
    seeds are tried in ascending order.
    """
    for seed in range(tries):
        verdict = evaluate_program(program, seed, config=config)
        if verdict.unexplained:
            continue
        kinds = {d.kind for d in verdict.divergences}
        if not required <= kinds:
            continue
        if allowed is not None and not kinds <= allowed:
            continue
        return seed, verdict
    raise AssertionError(
        f"no schedule in {tries} seeds shows {sorted(k.value for k in required)} "
        f"for {program.name!r}"
    )
