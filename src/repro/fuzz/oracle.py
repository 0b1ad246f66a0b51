"""The differential oracle: run detectors on one trace, explain divergences.

One fuzz case = one interleaved trace evaluated by seven detectors:

* ``hard-default`` on a deliberately small L2 (so displacement happens at
  fuzz-program scale), with the observability stream recorded;
* ``hard-ideal`` at 4 B granularity — the exact-lockset reference;
* ``hard-ideal`` at line (32 B) granularity — the granularity oracle;
* ``hb-ideal`` at 4 B granularity — the happens-before reference;
* ``fasttrack``, ``acculock`` and ``multilock-hb`` at 4 B granularity —
  the hybrid lockset×happens-before family, whose warning lattice
  (fasttrack ≡ hb-ideal ⊆ acculock ⊆ multilock-hb) is asserted on every
  case; a lattice break is an ``UNEXPLAINED`` divergence.

Divergences are computed at the paper's alarm unit — distinct source sites
(Section 5.1) — and every one must be *explained* by a known approximation
before the case passes.  The explanation is never taken on faith: each
class is verified against independent evidence —

========================  ==================================================
Kind                      Verification
========================  ==================================================
FALSE_SHARING             the site also alarms in the exact lockset run at
                          *line* granularity (granularity is sufficient)
BLOOM_COLLISION           a re-run with a 256-bit BFVector (same small L2)
                          recovers the report — the collision was the cause
L2_DISPLACEMENT           a re-run with a 4 MB L2 recovers the report, and
                          the recorded ``l2.displacement`` events include a
                          line the site accessed
COMPOUND_LOSS             only the re-run with *both* relaxations recovers
                          the report (each approximation alone hides it)
METADATA_EVICTION         no re-run recovers it, but a clean L1 eviction of
                          a line the site accessed was recorded (HARD's
                          stale-metadata modelling approximation)
ORDERED_BY_SYNC           exact lockset reports, happens-before does not:
                          the Figure 1 algorithmic difference (lock
                          discipline violated, accesses ordered anyway)
LSTATE_FORGIVEN           happens-before reports, exact lockset does not: a
                          4 B-granularity LState replay confirms the
                          reported chunks never reached Shared-Modified
                          during this site's accesses (Eraser's
                          initialization/read-share forgiveness, Figure 2)
HB_SCHEDULE_MISS          the hybrid (multilock-hb) reports, exact HB does
                          not: the strict (no-forgiveness) lockset replay
                          alarms at the site, so the lock discipline is
                          violated but this schedule ordered the accesses —
                          the hybrid's schedule-insensitivity at work
LOCKSET_FALSE_POSITIVE    exact lockset reports, the hybrid does not, and a
                          no-weak-HB re-run of multilock-hb recovers the
                          report: a barrier episode orders the pair — the
                          hybrid pruned a lockset false alarm
PAIRWISE_LOCKSET          exact lockset reports, the hybrid does not, and
                          even the no-weak-HB re-run is silent: the
                          *accumulated* candidate set empties although no
                          conflicting access pair is pairwise lock-disjoint
UNEXPLAINED               anything else — a genuine bug in one detector
========================  ==================================================

The expensive ablation re-runs are lazy: they only execute when the case
actually has missed-race divergences to explain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.addresses import spanned_chunks
from repro.common.events import OpKind, Site, Trace
from repro.common.rng import derive_seed
from repro.core.lstate import NO_OWNER, LState, transition
from repro.engine import EngineSession
from repro.harness.detectors import DetectorConfig
from repro.hybrids.multilock import MultiLockHBDetector
from repro.obs import Observability, RecordingEmitter
from repro.reporting import DetectionResult
from repro.threads.program import ParallelProgram
from repro.threads.scheduler import RandomScheduler
from repro.threads.runtime import interleave

#: The machine's line size (MachineConfig default; the granularity oracle).
LINE_SIZE = 32


class DivergenceKind(enum.Enum):
    """Why two detectors disagreed about one source site."""

    FALSE_SHARING = "false-sharing"
    BLOOM_COLLISION = "bloom-collision"
    L2_DISPLACEMENT = "l2-displacement"
    COMPOUND_LOSS = "compound-loss"
    METADATA_EVICTION = "metadata-eviction"
    ORDERED_BY_SYNC = "ordered-by-sync"
    LSTATE_FORGIVEN = "lstate-forgiven"
    HB_SCHEDULE_MISS = "hb-schedule-miss"
    LOCKSET_FALSE_POSITIVE = "lockset-false-positive"
    PAIRWISE_LOCKSET = "pairwise-lockset"
    UNEXPLAINED = "unexplained"


#: Divergence directions (which detector pair, which side reported).
HARD_EXTRA = "hard-extra"  # hard-default reports, exact lockset silent
HARD_MISSED = "hard-missed"  # exact lockset reports, hard-default silent
HB_ONLY = "hb-only"  # happens-before reports, exact lockset silent
LOCKSET_ONLY = "lockset-only"  # exact lockset reports, happens-before silent
HYBRID_EXTRA = "hybrid-extra"  # multilock-hb reports, exact HB silent
HYBRID_MISSED = "hybrid-missed"  # exact lockset reports, multilock-hb silent
HYBRID_CHAIN = "hybrid-chain"  # a lattice containment broke (always a bug)


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
    produce bit-for-bit identical verdicts, and any kernel (or shard
    merge) disagreement surfaces as an ``UNEXPLAINED`` divergence on
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


@dataclass(frozen=True)
class Divergence:
    """One explained (or unexplained) detector disagreement."""

    direction: str
    site: Site
    kind: DivergenceKind
    evidence: str = ""

    @property
    def is_expected(self) -> bool:
        """True unless this divergence indicates a genuine bug."""
        return self.kind is not DivergenceKind.UNEXPLAINED

    def to_dict(self) -> dict:
        return {
            "direction": self.direction,
            "site": [self.site.file, self.site.line, self.site.label],
            "kind": self.kind.value,
            "evidence": self.evidence,
        }

    def sort_key(self) -> tuple:
        return (self.direction, self.site.file, self.site.line, self.site.label)


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


def _lstate_replay(
    trace: Trace, granularity: int
) -> tuple[dict[Site, set[int]], dict[Site, set[int]]]:
    """Replay the lockset over the trace, with and without LState mercy.

    Returns two ``site -> chunks`` maps:

    * ``checked`` — chunks at which an access *from that site* ran the real
      algorithm's Shared-Modified race check (mirroring
      :class:`~repro.lockset.exact.IdealLocksetDetector`, barrier reset to
      Virgin included);
    * ``strict_empty`` — chunks at which a *strict* lockset — one that
      intersects the candidate set from the very first access and never
      forgives initialization or read-sharing — would have alarmed at that
      site (empty candidate on a chunk touched by more than one thread).

    Together they separate the two faces of LState forgiveness: accesses
    the algorithm never judged (not in ``checked``), and races it judged
    but could not see because one side's locks were absorbed during the
    Virgin/Exclusive window (in ``strict_empty`` yet never reported).
    """
    lstates: dict[int, tuple[LState, int]] = {}
    strict: dict[int, tuple[set[int] | None, set[int]]] = {}
    held: dict[int, dict[int, int]] = {}
    arrivals: dict[int, int] = {}
    checked: dict[Site, set[int]] = {}
    strict_empty: dict[Site, set[int]] = {}
    for event in trace:
        op = event.op
        thread_id = event.thread_id
        if op.kind is OpKind.LOCK:
            locks = held.setdefault(thread_id, {})
            locks[op.addr] = locks.get(op.addr, 0) + 1
            continue
        if op.kind is OpKind.UNLOCK:
            locks = held.setdefault(thread_id, {})
            if locks.get(op.addr, 0) > 0:
                locks[op.addr] -= 1
                if not locks[op.addr]:
                    del locks[op.addr]
            continue
        if op.kind is OpKind.BARRIER:
            count = arrivals.get(op.addr, 0) + 1
            if count < op.participants:
                arrivals[op.addr] = count
                continue
            arrivals[op.addr] = 0
            lstates.clear()
            strict.clear()
            continue
        if not op.is_memory_access:
            continue
        locks = held.setdefault(thread_id, {})
        for chunk_addr in spanned_chunks(op.addr, op.size, granularity):
            state, owner = lstates.get(chunk_addr, (LState.VIRGIN, NO_OWNER))
            outcome = transition(state, owner, thread_id, op.is_write)
            lstates[chunk_addr] = (outcome.state, outcome.owner)
            if outcome.check_race and op.site is not None:
                checked.setdefault(op.site, set()).add(chunk_addr)
            candidate, threads = strict.get(chunk_addr, (None, set()))
            candidate = (
                set(locks) if candidate is None else candidate & locks.keys()
            )
            threads = threads | {thread_id}
            strict[chunk_addr] = (candidate, threads)
            if not candidate and len(threads) > 1 and op.site is not None:
                strict_empty.setdefault(op.site, set()).add(chunk_addr)
    return checked, strict_empty


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
    draws run serially (two shards in-process), so the shard/merge
    machinery is exercised without per-seed pool overhead.
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

    The four-detector differential suite is one
    :class:`~repro.engine.EngineSession` pass (the three reference
    detectors are trace-only cores riding the same walk that replays
    ``hard-default``'s machine); the lazy ablation re-runs, when a case has
    misses to explain, are a second session sharing one big-L2 machine
    replay between the ``big`` and ``both`` variants.  Every result is
    bit-for-bit what a standalone run of the same configuration returns.

    ``engine_path`` overrides ``config.engine_path`` (``"random"`` here
    falls back to ``"auto"`` — the per-seed coin is flipped by
    :func:`evaluate_program`, which knows the schedule seed).  On the batch
    path the suite runs without the event recorder (the vectorized kernels
    replay a prerecorded tape and emit no event stream); the eviction
    evidence a missed-race case needs is then gathered lazily by one
    scalar ``hard-default`` re-run, so verdicts stay bit-for-bit identical
    across paths.
    """
    path = engine_path if engine_path is not None else config.engine_path
    if path == "random":
        path = "auto"
    hard_cfg = DetectorConfig(key="hard-default", l2_size=config.l2_size)
    if path in ("batch", "sharded"):
        # Neither batch kernels nor shard workers emit an event stream;
        # eviction evidence is gathered lazily by a scalar re-run.
        recorder = None
        session = EngineSession(trace, path=path)
    else:
        recorder = RecordingEmitter(types={"l2.displacement", "cache.evict"})
        session = EngineSession(
            trace, obs=Observability(emitter=recorder), path=path
        )
    session.add_config(hard_cfg)
    session.add_config(DetectorConfig(key="hard-ideal", granularity=config.granularity))
    session.add_config(DetectorConfig(key="hard-ideal", granularity=LINE_SIZE))
    session.add_config(DetectorConfig(key="hb-ideal", granularity=config.granularity))
    session.add_config(DetectorConfig(key="fasttrack", granularity=config.granularity))
    session.add_config(DetectorConfig(key="acculock", granularity=config.granularity))
    session.add_config(
        DetectorConfig(key="multilock-hb", granularity=config.granularity)
    )
    hard, exact, exact_line, hb, ft, al, ml = session.run()

    hard_sites = hard.alarm_sites()
    exact_sites = exact.alarm_sites()
    line_sites = exact_line.alarm_sites()
    hb_sites = hb.alarm_sites()
    ft_sites = ft.alarm_sites()
    al_sites = al.alarm_sites()
    ml_sites = ml.alarm_sites()

    divergences: list[Divergence] = []

    # The LState/strict-lockset replay feeds both the HB_ONLY and the
    # HYBRID_EXTRA classifications; compute it at most once, on demand.
    _lstate_cache: list[tuple[dict[Site, set[int]], dict[Site, set[int]]]] = []

    def lstate_maps() -> tuple[dict[Site, set[int]], dict[Site, set[int]]]:
        if not _lstate_cache:
            _lstate_cache.append(_lstate_replay(trace, config.granularity))
        return _lstate_cache[0]

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
        if recorder is None:
            # Batch-path case with misses to explain: replay hard-default
            # once on the scalar path to capture the eviction evidence the
            # tape-driven kernels don't stream.
            recorder = RecordingEmitter(types={"l2.displacement", "cache.evict"})
            evidence = EngineSession(
                trace, obs=Observability(emitter=recorder), path="scalar"
            )
            evidence.add_config(hard_cfg)
            evidence.run()
        site_lines = _site_lines(trace)
        displaced = {e["line"] for e in recorder.by_type("l2.displacement")}
        clean_evicted = {
            e["line"]
            for e in recorder.by_type("cache.evict")
            if e["cache"] != "L2" and not e["dirty"]
        }
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
    hb_extra = sorted(hb_sites - exact_sites, key=_site_sort_key)
    if hb_extra:
        checked, strict_empty = lstate_maps()
        hb_chunks = _hb_chunks_by_site(hb, config.granularity)
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
            elif reported & strict_empty.get(site, set()):
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

    # --- the hybrid lattice (fasttrack ≡ hb-ideal ⊆ acculock ⊆ multilock) --
    # Any containment break is a detector bug, never an approximation.
    for site in sorted(ft_sites ^ hb_sites, key=_site_sort_key):
        which = "fasttrack" if site in ft_sites else "hb-ideal"
        divergences.append(
            Divergence(
                HYBRID_CHAIN,
                site,
                DivergenceKind.UNEXPLAINED,
                f"fasttrack and hb-ideal must agree site-for-site; only "
                f"{which} reports here",
            )
        )
    for site in sorted(ft_sites - al_sites, key=_site_sort_key):
        divergences.append(
            Divergence(
                HYBRID_CHAIN,
                site,
                DivergenceKind.UNEXPLAINED,
                "fasttrack reports a site acculock misses (exact-HB ⊆ "
                "acculock broken)",
            )
        )
    for site in sorted(al_sites - ml_sites, key=_site_sort_key):
        divergences.append(
            Divergence(
                HYBRID_CHAIN,
                site,
                DivergenceKind.UNEXPLAINED,
                "acculock reports a site multilock-hb misses (acculock ⊆ "
                "multilock-hb broken)",
            )
        )

    # --- hybrid extra warnings (vs exact happens-before) ------------------
    hybrid_extra = sorted(ml_sites - hb_sites, key=_site_sort_key)
    if hybrid_extra:
        _, strict_empty = lstate_maps()
        for site in hybrid_extra:
            if site in strict_empty:
                divergences.append(
                    Divergence(
                        HYBRID_EXTRA,
                        site,
                        DivergenceKind.HB_SCHEDULE_MISS,
                        "strict-lockset replay alarms here: lock discipline "
                        "is violated, this schedule just ordered the accesses",
                    )
                )
            else:
                divergences.append(
                    Divergence(
                        HYBRID_EXTRA,
                        site,
                        DivergenceKind.UNEXPLAINED,
                        "multilock-hb reports a site even the strict "
                        "(no-forgiveness) lockset replay never alarms at",
                    )
                )

    # --- hybrid missed races (vs the exact lockset, lazy ablation) --------
    hybrid_missed = sorted(exact_sites - ml_sites, key=_site_sort_key)
    if hybrid_missed:
        # One no-weak-HB re-run of multilock-hb: with the epoch filter off
        # it is a pure pairwise-lockset detector, separating "a barrier
        # episode orders the pair" from "no access pair is pairwise
        # lock-disjoint at all".
        noweak_session = EngineSession(trace, path=path)
        noweak_session.add(
            MultiLockHBDetector(
                granularity=config.granularity,
                use_weak_hb=False,
                name="multilock-noweak",
            )
        )
        (noweak,) = noweak_session.run()
        noweak_sites = noweak.alarm_sites()
        for site in hybrid_missed:
            if site in noweak_sites:
                divergences.append(
                    Divergence(
                        HYBRID_MISSED,
                        site,
                        DivergenceKind.LOCKSET_FALSE_POSITIVE,
                        "the no-weak-HB re-run recovers the report: a barrier "
                        "episode orders the pair the exact lockset flags",
                    )
                )
            else:
                divergences.append(
                    Divergence(
                        HYBRID_MISSED,
                        site,
                        DivergenceKind.PAIRWISE_LOCKSET,
                        "even the no-weak-HB re-run is silent: the accumulated "
                        "candidate set empties across accesses that are never "
                        "pairwise lock-disjoint",
                    )
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
            "fasttrack": len(ft_sites),
            "acculock": len(al_sites),
            "multilock-hb": len(ml_sites),
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
