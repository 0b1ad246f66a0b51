"""One divergence judge for the exact detector family.

On any single trace the exact detector family forms a lattice of warning
sets (each containment proved by construction, re-checked empirically
here on every judged trace):

    fasttrack  ==  hb-ideal                      (epochs are an encoding,
                                                  not an approximation)
    fasttrack  ⊆  acculock  ⊆  multilock-hb      (each step only *keeps*
                                                  more history / drops an
                                                  ordering edge)
    multilock-hb  ⊆  strict-lockset              (a lock-disjoint
                                                  epoch-concurrent pair
                                                  empties the accumulated
                                                  candidate set too)

where *strict-lockset* is Eraser with no Virgin/Exclusive forgiveness:
candidate sets intersected from the very first access, warnings on any
empty-candidate chunk touched by more than one thread, reset only at
barrier episodes (:func:`strict_lockset_sites`, the one strict replay).

:func:`judge_family` is the one classifier of the family's gaps.  It takes
the five family results a caller already holds (fasttrack, hb-ideal,
acculock, multilock-hb and the Eraser-exact lockset), asserts the chain at
*(event, site)* granularity and labels every divergence between adjacent
members at the paper's alarm unit, the source site.  Both harnesses call
it: :func:`check_conformance` on a family-only
:class:`~repro.engine.EngineSession` pass, and the fuzz oracle
(:func:`repro.fuzz.oracle.evaluate_trace`) on the results of its own
suite session, so no detector runs twice.

===========================  ===============================================
kind (direction)             verification
===========================  ===============================================
``hb-schedule-miss``         AccuLock warns, exact HB is silent, the strict
(acculock-vs-fasttrack)      lockset warns: the discipline is violated but
                             this schedule ordered the accesses (Figure 1)
``multi-lockset-witness``    MultiLock-HB warns, AccuLock is silent, inside
(multilock-vs-acculock)      the strict envelope: a retained record with
                             another lockset witnesses the disjointness
                             AccuLock's single slot overwrote
``lockset-false-positive``   Eraser-exact (or the strict lockset) warns,
(exact-vs-multilock,         the hybrid is silent, the no-weak-HB ablation
strict-vs-multilock)         warns: a barrier episode, not lock sharing,
                             orders the pair
``pairwise-lockset``         Eraser-exact (or the strict lockset) warns and
(exact-vs-multilock,         even the ablation is silent: the *accumulated*
strict-vs-multilock)         candidate set empties though no conflicting
                             pair is pairwise lock-disjoint
``lstate-forgiven``          MultiLock-HB warns, Eraser-exact is silent, the
(exact-vs-multilock)         strict lockset warns: the Virgin/Exclusive
                             window absorbed the evidence
``unexplained`` (any pair)   a hybrid warns outside the strict envelope —
                             a genuine bug in one detector
===========================  ===============================================

A broken containment is not a site-level divergence: the judge returns it
as a *violation*, which fails a conformance report outright and reaches a
fuzz verdict as an ``unexplained`` divergence.  The hardware
approximations (line granularity, Bloom aliasing, L2 displacement) never
appear here — the family is exact; the fuzz oracle explains those with its
ablation re-runs and the machine tape, in the same :class:`Divergence`
record and :class:`DivergenceKind` vocabulary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from repro.common.events import OpKind, Site, Trace
from repro.engine.session import EngineSession
from repro.hybrids.multilock import MultiLockHBDetector
from repro.reporting import DetectionResult


class ConformanceError(Exception):
    """A conformance-suite case could not be built or judged."""


class DivergenceKind(enum.Enum):
    """Why two detectors disagreed about one source site.

    Values double as the JSON vocabulary of both harnesses.  The first
    five are the fuzz oracle's hardware-approximation classes and
    ``ORDERED_BY_SYNC`` its lockset-vs-HB class; :func:`judge_family`
    assigns the next five (the oracle's ``hb-only`` branch also assigns
    ``LSTATE_FORGIVEN``); ``UNEXPLAINED`` marks a genuine bug.
    """

    FALSE_SHARING = "false-sharing"
    BLOOM_COLLISION = "bloom-collision"
    L2_DISPLACEMENT = "l2-displacement"
    COMPOUND_LOSS = "compound-loss"
    METADATA_EVICTION = "metadata-eviction"
    ORDERED_BY_SYNC = "ordered-by-sync"
    LSTATE_FORGIVEN = "lstate-forgiven"
    HB_SCHEDULE_MISS = "hb-schedule-miss"
    MULTI_LOCKSET_WITNESS = "multi-lockset-witness"
    LOCKSET_FALSE_POSITIVE = "lockset-false-positive"
    PAIRWISE_LOCKSET = "pairwise-lockset"
    UNEXPLAINED = "unexplained"


#: The judge's adjacent-pair names: the ``direction`` of its divergences.
FAMILY_PAIRS = (
    "acculock-vs-fasttrack",
    "multilock-vs-acculock",
    "exact-vs-multilock",
    "strict-vs-multilock",
)

_NO_SITE = ("", -1, "")


def site_key(site: Site | None) -> tuple:
    """A site's hashable, sortable identity (None-safe)."""
    if site is None:
        return _NO_SITE
    return (site.file, site.line, site.label)


def _site_of(key: tuple) -> Site | None:
    return None if key == _NO_SITE else Site(*key)


@dataclass(frozen=True)
class Divergence:
    """One explained (or unexplained) detector disagreement.

    ``direction`` names the detector pair and which side reported: one of
    :data:`FAMILY_PAIRS` or a fuzz-oracle direction.  ``site`` is None for
    an access without a source site and for a lattice violation.
    """

    direction: str
    site: Site | None
    kind: DivergenceKind
    evidence: str = ""

    @property
    def is_expected(self) -> bool:
        """True unless this divergence indicates a genuine bug."""
        return self.kind is not DivergenceKind.UNEXPLAINED

    def to_dict(self) -> dict:
        return {
            "direction": self.direction,
            "site": list(site_key(self.site)),
            "kind": self.kind.value,
            "evidence": self.evidence,
        }

    def sort_key(self) -> tuple:
        return (self.direction, *site_key(self.site))


class StrictWarnings(NamedTuple):
    """Strict (no-forgiveness) lockset warnings over one trace."""

    events: frozenset  # {(seq, site_key)}
    sites: frozenset  # {site_key}
    chunks: dict  # {site_key: {chunk address warned at}}


def strict_lockset_sites(trace: Trace, granularity: int = 4) -> StrictWarnings:
    """Replay a *strict* lockset: no Virgin/Exclusive/read-share mercy.

    Per chunk the candidate set is intersected with the accessor's held
    locks from the **first** access on; a warning is recorded at every
    access finding an empty candidate on a chunk already touched by
    another thread.  Chunk state is reset at completed barrier episodes
    (Section 3.5), exactly as the real detectors do.  This is the outer
    envelope of the lattice: anything the hybrids report must land here.
    """
    chunk_mask = ~(granularity - 1)
    held: dict[int, dict[int, int]] = {}
    arrivals: dict[int, int] = {}
    chunks: dict[int, list] = {}  # chunk -> [candidate | None, {threads}]
    events: set = set()
    warned: dict[tuple, set[int]] = {}
    for event in trace:
        op = event.op
        kind = op.kind
        thread_id = event.thread_id
        if kind is OpKind.LOCK:
            locks = held.setdefault(thread_id, {})
            locks[op.addr] = locks.get(op.addr, 0) + 1
        elif kind is OpKind.UNLOCK:
            locks = held.setdefault(thread_id, {})
            if locks.get(op.addr, 0) > 0:
                locks[op.addr] -= 1
                if not locks[op.addr]:
                    del locks[op.addr]
        elif kind is OpKind.BARRIER:
            count = arrivals.get(op.addr, 0) + 1
            if count < op.participants:
                arrivals[op.addr] = count
            else:
                arrivals[op.addr] = 0
                chunks.clear()
        elif op.is_memory_access:
            locks = held.setdefault(thread_id, {})
            first = op.addr & chunk_mask
            last = (op.addr + op.size - 1) & chunk_mask
            chunk_addr = first
            while True:
                chunk = chunks.get(chunk_addr)
                if chunk is None:
                    chunk = chunks[chunk_addr] = [None, set()]
                candidate = chunk[0]
                chunk[0] = (
                    set(locks) if candidate is None else candidate & locks.keys()
                )
                threads = chunk[1]
                threads.add(thread_id)
                if not chunk[0] and len(threads) > 1:
                    key = site_key(op.site)
                    events.add((event.seq, key))
                    warned.setdefault(key, set()).add(chunk_addr)
                if chunk_addr == last:
                    break
                chunk_addr += granularity
    return StrictWarnings(frozenset(events), frozenset(warned), warned)


def _report_events(result: DetectionResult) -> frozenset:
    """The ``(seq, site_key)`` identity set of one detector's reports."""
    return frozenset((report.seq, site_key(report.site)) for report in result.reports)


def _site_keys(result: DetectionResult) -> set:
    return {site_key(site) for site in result.alarm_sites()}


def _result_fingerprint(result: DetectionResult) -> tuple:
    """Canonical identity of one result, for batch/scalar parity checks."""
    return (
        result.detector,
        tuple(
            (r.seq, r.thread_id, r.addr, r.size, site_key(r.site), r.is_write, r.detail)
            for r in result.reports
        ),
        tuple(sorted(result.stats.snapshot().items())),
    )


def _sample(items: Iterable, limit: int = 3) -> str:
    ordered = sorted(items)
    shown = ", ".join(repr(item) for item in ordered[:limit])
    if len(ordered) > limit:
        shown += f", … ({len(ordered)} total)"
    return shown


def judge_family(
    trace: Trace,
    ft: DetectionResult,
    hb: DetectionResult,
    al: DetectionResult,
    ml: DetectionResult,
    exact: DetectionResult,
    strict: StrictWarnings,
    *,
    granularity: int = 4,
    engine_path: str = "auto",
) -> tuple[tuple[str, ...], tuple[Divergence, ...]]:
    """Assert the lattice over five family results and classify every gap.

    ``ft``/``hb``/``al``/``ml``/``exact`` are the fasttrack, hb-ideal,
    acculock, multilock-hb and Eraser-exact results over ``trace`` at
    ``granularity``; ``strict`` is :func:`strict_lockset_sites` of the same
    trace.  Returns ``(violations, divergences)``: one message per broken
    containment, and one :class:`Divergence` per site in the difference of
    an adjacent pair.  The only detector this runs is the no-weak-HB
    MultiLock-HB ablation, built lazily on ``engine_path`` when an
    Eraser-side warning needs explaining.
    """
    ft_events = _report_events(ft)
    hb_events = _report_events(hb)
    al_events = _report_events(al)
    ml_events = _report_events(ml)
    violations: list[str] = []
    if ft_events != hb_events:
        violations.append(
            "fasttrack != hb-ideal: only-fasttrack "
            f"[{_sample(ft_events - hb_events)}], only-hb "
            f"[{_sample(hb_events - ft_events)}]"
        )
    if not ft_events <= al_events:
        violations.append(
            f"fasttrack ⊄ acculock: [{_sample(ft_events - al_events)}]"
        )
    if not al_events <= ml_events:
        violations.append(
            f"acculock ⊄ multilock-hb: [{_sample(al_events - ml_events)}]"
        )
    if not ml_events <= strict.events:
        violations.append(
            f"multilock-hb ⊄ strict-lockset: [{_sample(ml_events - strict.events)}]"
        )

    ft_sites = _site_keys(ft)
    al_sites = _site_keys(al)
    ml_sites = _site_keys(ml)
    exact_sites = _site_keys(exact)
    divergences: list[Divergence] = []

    def classify(pair: str, key: tuple, kind: DivergenceKind, evidence: str) -> None:
        divergences.append(Divergence(pair, _site_of(key), kind, evidence))

    for key in sorted(al_sites - ft_sites):
        if key in strict.sites:
            classify(
                "acculock-vs-fasttrack",
                key,
                DivergenceKind.HB_SCHEDULE_MISS,
                "strict lockset warns here too: discipline violated, but "
                "this schedule ordered the accesses (Figure 1)",
            )
        else:
            classify(
                "acculock-vs-fasttrack",
                key,
                DivergenceKind.UNEXPLAINED,
                "acculock warns outside the strict-lockset envelope",
            )
    for key in sorted(ml_sites - al_sites):
        if key in strict.sites:
            classify(
                "multilock-vs-acculock",
                key,
                DivergenceKind.MULTI_LOCKSET_WITNESS,
                "a retained record with a different lockset witnesses "
                "disjointness AccuLock's single-slot history overwrote",
            )
        else:
            classify(
                "multilock-vs-acculock",
                key,
                DivergenceKind.UNEXPLAINED,
                "multilock-hb warns outside the strict-lockset envelope",
            )

    # Eraser-exact vs the hybrid envelope, both directions.  The no-weak-HB
    # ablation (epoch filter off: every record counts as concurrent)
    # separates "a barrier episode orders the pair" from "no pairwise
    # lock-disjoint pair ever existed".  It is not a registry config, so it
    # cannot shard; a sharded caller's ablation walks batch.
    noweak_sites: set | None = None

    def pairwise_sites() -> set:
        nonlocal noweak_sites
        if noweak_sites is None:
            path = "batch" if engine_path == "sharded" else engine_path
            ablation = EngineSession(trace, path=path)
            ablation.add(
                MultiLockHBDetector(granularity=granularity, use_weak_hb=False)
            )
            (result,) = ablation.run()
            noweak_sites = _site_keys(result)
        return noweak_sites

    for key in sorted(exact_sites - ml_sites):
        if key in pairwise_sites():
            classify(
                "exact-vs-multilock",
                key,
                DivergenceKind.LOCKSET_FALSE_POSITIVE,
                "the no-weak-HB ablation still warns: a barrier episode "
                "orders the pair — the hybrid prunes Eraser's false alarm",
            )
        else:
            classify(
                "exact-vs-multilock",
                key,
                DivergenceKind.PAIRWISE_LOCKSET,
                "even the no-weak-HB ablation is silent: the accumulated "
                "candidate set empties although no conflicting pair is "
                "pairwise lock-disjoint",
            )
    for key in sorted(ml_sites - exact_sites):
        if key in strict.sites:
            classify(
                "exact-vs-multilock",
                key,
                DivergenceKind.LSTATE_FORGIVEN,
                "strict (no-forgiveness) lockset warns here: the "
                "Virgin/Exclusive window absorbed the evidence",
            )
        else:
            classify(
                "exact-vs-multilock",
                key,
                DivergenceKind.UNEXPLAINED,
                "multilock-hb warns outside the strict-lockset envelope",
            )
    for key in sorted(strict.sites - ml_sites):
        if key in pairwise_sites():
            classify(
                "strict-vs-multilock",
                key,
                DivergenceKind.LOCKSET_FALSE_POSITIVE,
                "the no-weak-HB ablation still warns: a barrier episode "
                "orders every surviving pair",
            )
        else:
            classify(
                "strict-vs-multilock",
                key,
                DivergenceKind.PAIRWISE_LOCKSET,
                "even the no-weak-HB ablation is silent: only the "
                "accumulated intersection empties",
            )
    return tuple(violations), tuple(divergences)


@dataclass
class ConformanceReport:
    """The verdict of one trace under the full exact-detector lattice."""

    label: str
    events: int
    #: The walk the family session took (``batch``, ``sharded`` or
    #: ``scalar``), never the requested ``"auto"``.
    engine_path: str
    alarm_sites: dict[str, int] = field(default_factory=dict)
    violations: tuple[str, ...] = ()
    divergences: tuple[Divergence, ...] = ()

    @property
    def unexplained(self) -> tuple[Divergence, ...]:
        return tuple(d for d in self.divergences if not d.is_expected)

    @property
    def ok(self) -> bool:
        """True iff the chain held and every divergence is classified."""
        return not self.violations and not self.unexplained

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "events": self.events,
            "engine_path": self.engine_path,
            "alarm_sites": dict(sorted(self.alarm_sites.items())),
            "violations": list(self.violations),
            "divergences": [d.to_dict() for d in self.divergences],
            "ok": self.ok,
        }


#: The family's registry keys in judge order; ``hard-ideal`` is the
#: Eraser-exact lockset.
_FAMILY_KEYS = ("fasttrack", "hb-ideal", "acculock", "multilock-hb", "hard-ideal")


def _family_session(trace: Trace, granularity: int, path: str) -> EngineSession:
    """One session over the family, registered by config so that every
    walk — the sharded one too, whose workers rebuild cores from configs —
    can run it."""
    # Imported here: repro.harness.detectors builds the hybrid cores.
    from repro.harness.detectors import DetectorConfig

    session = EngineSession(trace, path=path)
    for key in _FAMILY_KEYS:
        session.add_config(DetectorConfig(key, granularity=granularity))
    return session


def check_conformance(
    trace: Trace,
    *,
    granularity: int = 4,
    engine_path: str = "auto",
    check_parity: bool = False,
    label: str = "",
) -> ConformanceReport:
    """Judge one trace: run the family once, then :func:`judge_family`.

    With ``check_parity`` the whole family is run on **both** engine walks
    and any batch/scalar fingerprint mismatch (reports or stats) becomes a
    violation — the bit-for-bit guarantee the batch kernels must keep.
    """
    session = _family_session(trace, granularity, engine_path)
    ft, hb, al, ml, exact = session.run()

    violations: list[str] = []
    if check_parity:
        for scalar_result, batch_result in zip(
            _family_session(trace, granularity, "scalar").run(),
            _family_session(trace, granularity, "batch").run(),
        ):
            if _result_fingerprint(scalar_result) != _result_fingerprint(
                batch_result
            ):
                violations.append(
                    f"batch/scalar parity broken for {scalar_result.detector}"
                )

    strict = strict_lockset_sites(trace, granularity)
    lattice, divergences = judge_family(
        trace,
        ft,
        hb,
        al,
        ml,
        exact,
        strict,
        granularity=granularity,
        engine_path=engine_path,
    )
    violations.extend(lattice)
    return ConformanceReport(
        label=label or trace.label,
        events=len(trace),
        engine_path=session.path_taken,
        alarm_sites={
            "fasttrack": len(_site_keys(ft)),
            "hb-ideal": len(_site_keys(hb)),
            "acculock": len(_site_keys(al)),
            "multilock-hb": len(_site_keys(ml)),
            "exact-lockset": len(_site_keys(exact)),
            "strict-lockset": len(strict.sites),
        },
        violations=tuple(violations),
        divergences=divergences,
    )


# --------------------------------------------------------------- suite runner


@dataclass
class ConformanceSuiteResult:
    """All case reports of one conformance-suite run."""

    reports: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.reports)

    @property
    def failures(self) -> list:
        return [report for report in self.reports if not report.ok]

    def to_dict(self) -> dict:
        return {
            "cases": len(self.reports),
            "ok": self.ok,
            "failures": len(self.failures),
            "reports": [report.to_dict() for report in self.reports],
        }


def _build_case_trace(spec: tuple) -> tuple[Trace, str]:
    """Materialise one suite case spec into (trace, label).

    Specs (all picklable, so cases can fan out over worker processes):

    * ``("workload", app, workload_seed, schedule_seed)``
    * ``("fuzz", index, workload_seed, schedule_seed)``
    * ``("corpus", path)``
    """
    from repro.threads.runtime import interleave
    from repro.threads.scheduler import RandomScheduler

    kind = spec[0]
    if kind == "workload":
        from repro.workloads import build_workload

        _, app, workload_seed, schedule_seed = spec
        program = build_workload(app, seed=workload_seed)
        label = f"workload:{app}@s{schedule_seed}"
    elif kind == "fuzz":
        from repro.fuzz.generator import generate_program

        _, index, workload_seed, schedule_seed = spec
        program = generate_program(index, workload_seed)
        label = f"fuzz:{index}@s{schedule_seed}"
    elif kind == "corpus":
        from repro.fuzz.corpus import load_case

        _, path = spec
        case = load_case(path)
        program = case.program
        schedule_seed = case.schedule_seed
        label = f"corpus:{program.name}"
    else:
        raise ConformanceError(f"unknown conformance case spec {spec!r}")
    scheduler = RandomScheduler(seed=schedule_seed, max_burst=8)
    return interleave(program, scheduler).trace, label


#: Worker parameters (set once per worker by the fan-out initializer).
_WORKER_PARAMS: dict = {}


def _suite_init(granularity: int, check_parity: bool) -> None:
    _WORKER_PARAMS["granularity"] = granularity
    _WORKER_PARAMS["check_parity"] = check_parity


def _suite_case(task: tuple[int, tuple]) -> tuple[int, ConformanceReport]:
    index, spec = task
    trace, label = _build_case_trace(spec)
    return index, check_conformance(
        trace,
        granularity=_WORKER_PARAMS.get("granularity", 4),
        check_parity=_WORKER_PARAMS.get("check_parity", True),
        label=label,
    )


def suite_specs(
    *,
    apps: Iterable[str] | None = None,
    workload_seed: object = 0,
    schedule_seeds: Iterable[int] = (0,),
    fuzz_seeds: Iterable[int] = (),
    corpus_dir: str | None = None,
) -> list[tuple]:
    """The case specs of one suite run, in deterministic order."""
    from repro.workloads import WORKLOAD_NAMES

    specs: list[tuple] = []
    names = tuple(apps) if apps is not None else WORKLOAD_NAMES
    seeds = tuple(schedule_seeds)
    for app in names:
        for schedule_seed in seeds:
            specs.append(("workload", app, workload_seed, schedule_seed))
    for index in fuzz_seeds:
        for schedule_seed in seeds:
            specs.append(("fuzz", index, workload_seed, schedule_seed))
    if corpus_dir is not None:
        from repro.fuzz.corpus import corpus_paths

        for path in corpus_paths(corpus_dir):
            specs.append(("corpus", str(path)))
    return specs


def run_conformance_suite(
    *,
    apps: Iterable[str] | None = None,
    workload_seed: object = 0,
    schedule_seeds: Iterable[int] = (0,),
    fuzz_seeds: Iterable[int] = (),
    corpus_dir: str | None = None,
    granularity: int = 4,
    check_parity: bool = True,
    jobs: int = 1,
) -> ConformanceSuiteResult:
    """Run :func:`check_conformance` over workloads, fuzz programs, corpora.

    ``jobs > 1`` fans the cases out through
    :func:`~repro.harness.parallel.fan_out` (cases are independent; specs,
    not traces, cross the process boundary), which fails closed when a
    worker dies.  Results are sorted back into spec order — bit-for-bit
    identical to a serial run.
    """
    specs = suite_specs(
        apps=apps,
        workload_seed=workload_seed,
        schedule_seeds=schedule_seeds,
        fuzz_seeds=fuzz_seeds,
        corpus_dir=corpus_dir,
    )
    # Imported here: repro.harness imports this package's detectors.
    from repro.harness.parallel import fan_out

    indexed = fan_out(
        list(enumerate(specs)),
        _suite_case,
        jobs=jobs,
        initializer=_suite_init,
        initargs=(granularity, check_parity),
    )
    indexed.sort(key=lambda pair: pair[0])
    return ConformanceSuiteResult(reports=[report for _, report in indexed])
