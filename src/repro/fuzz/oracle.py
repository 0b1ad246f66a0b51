"""The differential oracle: run detectors on one trace, explain divergences.

One fuzz case = one interleaved trace evaluated by seven detectors in one
:class:`~repro.engine.EngineSession`:

* ``hard-default`` on a deliberately small L2 (so displacement happens at
  fuzz-program scale);
* ``hard-ideal`` at 4 B granularity — the exact-lockset reference;
* ``hard-ideal`` at line (32 B) granularity — the granularity oracle;
* ``hb-ideal`` at 4 B granularity — the happens-before reference;
* ``fasttrack``, ``acculock`` and ``multilock-hb`` at 4 B granularity —
  the hybrid lockset×happens-before family.

Divergences are computed at the paper's alarm unit — distinct source sites
(Section 5.1) — and every one must be *explained* by a known approximation
before the case passes.  The explanation is never taken on faith: each
class is verified against independent evidence —

========================  ==================================================
kind (direction)          verification
========================  ==================================================
FALSE_SHARING             the site also alarms in the exact lockset run at
(hard-extra)              *line* granularity (granularity is sufficient)
BLOOM_COLLISION           a re-run with a 256-bit BFVector (same small L2)
(hard-missed)             recovers the report — the collision was the cause
L2_DISPLACEMENT           a re-run with a 4 MB L2 recovers the report (the
(hard-missed)             evidence notes an L2 displacement of a line the
                          site accessed)
COMPOUND_LOSS             only the re-run with *both* relaxations recovers
(hard-missed)             the report (each approximation alone hides it)
METADATA_EVICTION         no re-run recovers it, but an L1 evicted a line
(hard-missed)             the site accessed without a writeback (HARD's
                          stale sole-holder metadata approximation)
ORDERED_BY_SYNC           exact lockset reports, happens-before does not:
(lockset-only)            the Figure 1 algorithmic difference (lock
                          discipline violated, accesses ordered anyway)
LSTATE_FORGIVEN           happens-before reports, exact lockset does not: a
(hb-only)                 4 B-granularity LState replay shows the reported
                          chunks never reached Shared-Modified during this
                          site's accesses, or the strict lockset warned at
                          them (Eraser's initialization/read-share
                          forgiveness, Figure 2)
the judge's kinds         the hybrid family's gaps, labelled by
(a family pair)           :func:`~repro.hybrids.conformance.judge_family`
UNEXPLAINED               a family containment broke
(lattice-break)
UNEXPLAINED (any)         anything else — a genuine bug in one detector
========================  ==================================================

The hybrid family is judged by the one classifier the conformance harness
uses (:func:`~repro.hybrids.conformance.judge_family`, fed this session's
five family results), so the two harnesses cannot disagree about a gap.
The eviction evidence comes from the machine tape of ``hard-default``'s
machine, which the batch walk already recorded: ``HOOK_L2_EVICT`` lines
are displacements, ``HOOK_L1_EVICT`` lines with a clear dirty flag are
clean L1 evictions.  The ablation re-runs are lazy: they only execute when
the case actually has missed-race divergences to explain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.addresses import spanned_chunks
from repro.common.events import OpKind, Site, Trace
from repro.common.rng import derive_seed
from repro.core.lstate import NO_OWNER, LState, transition
from repro.engine import EngineSession
from repro.engine.tape import HOOK_L1_EVICT, HOOK_L2_EVICT, MachineTape
from repro.harness.detectors import DetectorConfig
from repro.hybrids.conformance import (
    Divergence,
    DivergenceKind,
    judge_family,
    site_key,
    strict_lockset_sites,
)
from repro.reporting import DetectionResult
from repro.threads.program import ParallelProgram
from repro.threads.scheduler import RandomScheduler
from repro.threads.runtime import interleave

#: The machine's line size (MachineConfig default; the granularity oracle).
LINE_SIZE = 32

#: Divergence directions (which detector pair, which side reported).  The
#: hybrid family's gaps carry the judge's pair names
#: (:data:`repro.hybrids.conformance.FAMILY_PAIRS`).
HARD_EXTRA = "hard-extra"  # hard-default reports, exact lockset silent
HARD_MISSED = "hard-missed"  # exact lockset reports, hard-default silent
HB_ONLY = "hb-only"  # happens-before reports, exact lockset silent
LOCKSET_ONLY = "lockset-only"  # exact lockset reports, happens-before silent
LATTICE_BREAK = "lattice-break"  # a family containment broke (always a bug)


@dataclass(frozen=True)
class OracleConfig:
    """Knobs of the differential oracle (frozen: picklable, hashable).

    ``l2_size`` is intentionally tiny — 16 KiB is 512 lines, which fuzz
    sized footprints actually overflow, so the displacement approximation
    gets exercised.  ``big_l2_size`` is the displacement-free ablation;
    ``wide_vector_bits`` the collision-free one (256 bits consume enough
    lock-address entropy that the 1 KiB-stride aliases separate).

    ``engine_path`` selects the engine walk for the detector sessions:
    ``"auto"``/``"batch"``/``"scalar"``/``"sharded"`` as in
    :class:`~repro.engine.EngineSession`, or ``"random"`` (the default) to
    choose batch, scalar, or sharded deterministically per schedule seed —
    so a nightly fuzz run doubles as a cross-path check: the walks must
    produce bit-for-bit identical verdicts, and any kernel (or worker
    round-trip) disagreement surfaces as an ``UNEXPLAINED`` divergence on
    exactly the seeds that took one path.
    """

    granularity: int = 4
    l2_size: int = 16 * 1024
    big_l2_size: int = 4 * 1024 * 1024
    wide_vector_bits: int = 256
    schedule_min_burst: int = 1
    schedule_max_burst: int = 8
    engine_path: str = "random"


DEFAULT_ORACLE = OracleConfig()


@dataclass
class CaseVerdict:
    """The oracle's judgement of one (program, schedule) case."""

    program: str
    case: str
    trace_events: int
    alarm_counts: dict[str, int] = field(default_factory=dict)
    divergences: tuple[Divergence, ...] = ()

    @property
    def unexplained(self) -> tuple[Divergence, ...]:
        """The divergences no approximation accounts for."""
        return tuple(d for d in self.divergences if not d.is_expected)

    @property
    def expected_count(self) -> int:
        return len(self.divergences) - len(self.unexplained)

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "case": self.case,
            "trace_events": self.trace_events,
            "alarm_counts": dict(sorted(self.alarm_counts.items())),
            "divergences": [d.to_dict() for d in self.divergences],
            "unexplained": len(self.unexplained),
        }


def _site_sort_key(site: Site) -> tuple:
    return (site.file, site.line, site.label)


def _site_lines(trace: Trace) -> dict[Site, set[int]]:
    """Map each source site to the cache-line addresses it accessed."""
    lines: dict[Site, set[int]] = {}
    for event in trace.memory_accesses():
        op = event.op
        if op.site is None:
            continue
        per_site = lines.setdefault(op.site, set())
        first = op.addr & ~(LINE_SIZE - 1)
        last = (op.addr + op.size - 1) & ~(LINE_SIZE - 1)
        for line in range(first, last + LINE_SIZE, LINE_SIZE):
            per_site.add(line)
    return lines


def eviction_lines(tape: MachineTape) -> tuple[set[int], set[int]]:
    """``(displaced, clean_evicted)`` line sets of one machine tape.

    ``displaced`` holds every line the L2 displaced; ``clean_evicted``
    every line an L1 evicted without a writeback — the two events HARD's
    cache-resident metadata is lost with.
    """
    displaced: set[int] = set()
    clean_evicted: set[int] = set()
    for code, line, aux in zip(tape.hook_code, tape.hook_line, tape.hook_aux):
        if code == HOOK_L2_EVICT:
            displaced.add(line)
        elif code == HOOK_L1_EVICT and not aux:
            clean_evicted.add(line)
    return displaced, clean_evicted


def _lstate_checked(trace: Trace, granularity: int) -> dict[Site, set[int]]:
    """The chunks at which each site's accesses ran the race check.

    Replays the LState machine over the trace and records, per site, every
    chunk at which an access *from that site* reached the Shared-Modified
    race check — mirroring
    :class:`~repro.lockset.exact.IdealLocksetDetector`, barrier reset to
    Virgin included.  An HB report at chunks outside this set was never
    judged by the lockset at all.
    """
    lstates: dict[int, tuple[LState, int]] = {}
    arrivals: dict[int, int] = {}
    checked: dict[Site, set[int]] = {}
    for event in trace:
        op = event.op
        if op.kind is OpKind.BARRIER:
            count = arrivals.get(op.addr, 0) + 1
            if count < op.participants:
                arrivals[op.addr] = count
                continue
            arrivals[op.addr] = 0
            lstates.clear()
            continue
        if not op.is_memory_access:
            continue
        for chunk_addr in spanned_chunks(op.addr, op.size, granularity):
            state, owner = lstates.get(chunk_addr, (LState.VIRGIN, NO_OWNER))
            outcome = transition(state, owner, event.thread_id, op.is_write)
            lstates[chunk_addr] = (outcome.state, outcome.owner)
            if outcome.check_race and op.site is not None:
                checked.setdefault(op.site, set()).add(chunk_addr)
    return checked


def _hb_chunks_by_site(
    hb_result: DetectionResult, granularity: int
) -> dict[Site, set[int]]:
    """The chunks each happens-before alarm site was reported at."""
    chunks: dict[Site, set[int]] = {}
    for report in hb_result.reports:
        per_site = chunks.setdefault(report.site, set())
        per_site.update(spanned_chunks(report.addr, report.size, granularity))
    return chunks


def resolve_engine_path(config: OracleConfig, schedule_seed: int) -> str:
    """The concrete engine path of one case under ``config``.

    ``"random"`` picks batch, scalar, or sharded deterministically from
    the schedule seed (so ``-j 8`` and ``-j 1`` runs agree on which seeds
    take which walk); anything else passes through unchanged.  Sharded
    draws run in-process (``jobs=1``), so the parallel walk's spill, map
    and decode round trip is exercised without per-seed pool overhead.
    """
    if config.engine_path != "random":
        return config.engine_path
    return ("batch", "scalar", "sharded")[
        derive_seed("fuzz-engine-path", schedule_seed) % 3
    ]


def evaluate_trace(
    trace: Trace,
    *,
    program: str = "",
    case: str = "clean",
    config: OracleConfig = DEFAULT_ORACLE,
    engine_path: str | None = None,
) -> CaseVerdict:
    """Run the detector suite over ``trace`` and classify every divergence.

    The seven-detector suite is one :class:`~repro.engine.EngineSession`
    pass; the lazy ablation re-runs, when a case has misses to explain,
    are a second session whose big-L2 and both-relaxations variants share
    one machine tape; the hybrid family's five results go to
    :func:`~repro.hybrids.conformance.judge_family`, whose only run is its
    lazy no-weak-HB ablation.  Every result is bit-for-bit what a
    standalone run of the same configuration returns.

    ``engine_path`` overrides ``config.engine_path`` (``"random"`` here
    falls back to ``"auto"`` — the per-seed coin is flipped by
    :func:`evaluate_program`, which knows the schedule seed).  The eviction
    evidence a missed-race case needs is read from the machine tape of
    ``hard-default``'s machine (:func:`eviction_lines`): memoised on the
    trace's columns, it is the tape the batch and sharded walks already
    recorded, and the scalar walk records it once here.
    """
    path = engine_path if engine_path is not None else config.engine_path
    if path == "random":
        path = "auto"
    granularity = config.granularity
    hard_cfg = DetectorConfig(key="hard-default", l2_size=config.l2_size)
    session = EngineSession(trace, path=path)
    hard_machine = session.add_config(hard_cfg).machine_config
    session.add_config(DetectorConfig(key="hard-ideal", granularity=granularity))
    session.add_config(DetectorConfig(key="hard-ideal", granularity=LINE_SIZE))
    session.add_config(DetectorConfig(key="hb-ideal", granularity=granularity))
    session.add_config(DetectorConfig(key="fasttrack", granularity=granularity))
    session.add_config(DetectorConfig(key="acculock", granularity=granularity))
    session.add_config(DetectorConfig(key="multilock-hb", granularity=granularity))
    hard, exact, exact_line, hb, ft, al, ml = session.run()

    hard_sites = hard.alarm_sites()
    exact_sites = exact.alarm_sites()
    line_sites = exact_line.alarm_sites()
    hb_sites = hb.alarm_sites()

    divergences: list[Divergence] = []

    # --- hard-default false positives (vs the exact lockset) --------------
    for site in sorted(hard_sites - exact_sites, key=_site_sort_key):
        if site in line_sites:
            divergences.append(
                Divergence(
                    HARD_EXTRA,
                    site,
                    DivergenceKind.FALSE_SHARING,
                    "exact lockset at line granularity also reports this site",
                )
            )
        else:
            divergences.append(
                Divergence(
                    HARD_EXTRA,
                    site,
                    DivergenceKind.UNEXPLAINED,
                    "hard-default alarm absent even from the line-granularity "
                    "exact lockset",
                )
            )

    # --- hard-default missed races (lazy ablation re-runs) ----------------
    missed = sorted(exact_sites - hard_sites, key=_site_sort_key)
    if missed:
        tape = MachineTape.for_columns(trace.columns(), hard_machine)
        displaced, clean_evicted = eviction_lines(tape)
        site_lines = _site_lines(trace)
        # One ablation session for all three re-runs; on the batch walk the
        # big-L2 and both-relaxations variants (identical machine
        # configurations) share one machine tape.
        ablations = EngineSession(trace, path=path)
        ablations.add_config(
            hard_cfg.with_overrides(vector_bits=config.wide_vector_bits)
        )
        ablations.add_config(hard_cfg.with_overrides(l2_size=config.big_l2_size))
        ablations.add_config(
            hard_cfg.with_overrides(
                l2_size=config.big_l2_size, vector_bits=config.wide_vector_bits
            )
        )
        wide, big, both = (r.alarm_sites() for r in ablations.run())
        for site in missed:
            lines = site_lines.get(site, set())
            if site in wide:
                divergences.append(
                    Divergence(
                        HARD_MISSED,
                        site,
                        DivergenceKind.BLOOM_COLLISION,
                        f"a {config.wide_vector_bits}-bit BFVector re-run "
                        "recovers the report",
                    )
                )
            elif site in big:
                extra = (
                    "; displacement of an accessed line was recorded"
                    if lines & displaced
                    else ""
                )
                divergences.append(
                    Divergence(
                        HARD_MISSED,
                        site,
                        DivergenceKind.L2_DISPLACEMENT,
                        f"a {config.big_l2_size // 1024} KiB-L2 re-run recovers "
                        f"the report{extra}",
                    )
                )
            elif site in both:
                divergences.append(
                    Divergence(
                        HARD_MISSED,
                        site,
                        DivergenceKind.COMPOUND_LOSS,
                        "only the wide-vector + big-L2 re-run recovers the "
                        "report (each approximation alone hides it)",
                    )
                )
            elif lines & clean_evicted:
                divergences.append(
                    Divergence(
                        HARD_MISSED,
                        site,
                        DivergenceKind.METADATA_EVICTION,
                        "clean L1 eviction of an accessed line was recorded "
                        "(stale sole-holder metadata approximation)",
                    )
                )
            else:
                divergences.append(
                    Divergence(
                        HARD_MISSED,
                        site,
                        DivergenceKind.UNEXPLAINED,
                        "no ablation re-run or recorded event explains the miss",
                    )
                )

    # --- lockset vs happens-before (the algorithmic axis) -----------------
    for site in sorted(exact_sites - hb_sites, key=_site_sort_key):
        divergences.append(
            Divergence(
                LOCKSET_ONLY,
                site,
                DivergenceKind.ORDERED_BY_SYNC,
                "lock discipline violated but the interleaving ordered the "
                "accesses (Figure 1)",
            )
        )
    strict = strict_lockset_sites(trace, granularity)
    hb_extra = sorted(hb_sites - exact_sites, key=_site_sort_key)
    if hb_extra:
        checked = _lstate_checked(trace, granularity)
        hb_chunks = _hb_chunks_by_site(hb, granularity)
        for site in hb_extra:
            reported = hb_chunks.get(site, set())
            if not reported & checked.get(site, set()):
                divergences.append(
                    Divergence(
                        HB_ONLY,
                        site,
                        DivergenceKind.LSTATE_FORGIVEN,
                        "LState replay: the reported chunks never reached "
                        "Shared-Modified during this site's accesses",
                    )
                )
            elif reported & strict.chunks.get(site_key(site), set()):
                divergences.append(
                    Divergence(
                        HB_ONLY,
                        site,
                        DivergenceKind.LSTATE_FORGIVEN,
                        "LState replay: a strict (no-forgiveness) lockset "
                        "alarms here — the racing side's locks were absorbed "
                        "in the Virgin/Exclusive window",
                    )
                )
            else:
                divergences.append(
                    Divergence(
                        HB_ONLY,
                        site,
                        DivergenceKind.UNEXPLAINED,
                        "the lockset judged the reported chunks with a "
                        "non-empty candidate even without LState forgiveness",
                    )
                )

    # --- the hybrid family (the conformance judge) ------------------------
    lattice, family = judge_family(
        trace,
        ft,
        hb,
        al,
        ml,
        exact,
        strict,
        granularity=granularity,
        engine_path=path,
    )
    divergences.extend(family)
    divergences.extend(
        Divergence(LATTICE_BREAK, None, DivergenceKind.UNEXPLAINED, violation)
        for violation in lattice
    )

    divergences.sort(key=Divergence.sort_key)
    return CaseVerdict(
        program=program,
        case=case,
        trace_events=len(trace),
        alarm_counts={
            "hard-default": len(hard_sites),
            "hard-ideal": len(exact_sites),
            "hard-ideal@line": len(line_sites),
            "hb-ideal": len(hb_sites),
            "fasttrack": len(ft.alarm_sites()),
            "acculock": len(al.alarm_sites()),
            "multilock-hb": len(ml.alarm_sites()),
        },
        divergences=tuple(divergences),
    )


def evaluate_program(
    program: ParallelProgram,
    schedule_seed: int,
    *,
    case: str = "clean",
    config: OracleConfig = DEFAULT_ORACLE,
) -> CaseVerdict:
    """Interleave ``program`` under a seeded schedule and judge the trace."""
    scheduler = RandomScheduler(
        seed=schedule_seed,
        min_burst=config.schedule_min_burst,
        max_burst=config.schedule_max_burst,
    )
    result = interleave(program, scheduler)
    return evaluate_trace(
        result.trace,
        program=program.name,
        case=case,
        config=config,
        engine_path=resolve_engine_path(config, schedule_seed),
    )
