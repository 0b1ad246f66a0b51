"""Cross-detector conformance: pin the hybrid lattice, explain every gap.

On any single trace the exact detector family forms a lattice of warning
sets (each containment proved by construction, re-checked empirically
here on every run):

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
barrier episodes.  :func:`check_conformance` runs the family in one
:class:`~repro.engine.EngineSession` pass, asserts the chain at
*(event, site)* granularity, and classifies every adjacent-pair
divergence:

==========================  ================================================
kind                        meaning / verification
==========================  ================================================
``hb-schedule-miss``        a hybrid warns, exact HB is silent: the strict
                            lockset warns too, so the discipline is violated
                            but this schedule ordered the accesses (Figure 1)
``multi-lockset-witness``   MultiLock-HB warns, AccuLock is silent: a
                            retained record with a different lockset
                            witnesses disjointness AccuLock overwrote
``lockset-false-positive``  a lockset-side detector warns, the hybrid is
                            silent: the no-weak-HB ablation still warns, so
                            a barrier episode (not lock sharing) prunes it
``pairwise-lockset``        exact/strict lockset warns, even the no-weak-HB
                            ablation is silent: the *accumulated* candidate
                            set empties although no conflicting pair is
                            pairwise lock-disjoint
``lstate-forgiven``         MultiLock-HB warns, Eraser-exact is silent: the
                            strict lockset warns, so the Virgin/Exclusive
                            window absorbed the evidence
``unexplained``             anything else — a genuine bug in one detector
==========================  ================================================

Bloom-filter aliasing and the other hardware approximations never appear
here — this module compares *exact* detectors only; the fuzz oracle
(:mod:`repro.fuzz.oracle`) folds the same family into its hard-default
differential suite where the PR 3 ablation machinery explains those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from repro.common.events import OpKind, Trace
from repro.engine.session import EngineSession
from repro.hb.fasttrack import FastTrackDetector
from repro.hb.ideal import IdealHappensBeforeDetector
from repro.hybrids.acculock import AccuLockDetector
from repro.hybrids.multilock import MultiLockHBDetector
from repro.lockset.exact import IdealLocksetDetector
from repro.reporting import DetectionResult


class ConformanceError(Exception):
    """A conformance-suite case could not be built or judged."""


#: Divergence kinds (values double as the JSON vocabulary).
HB_SCHEDULE_MISS = "hb-schedule-miss"
MULTI_LOCKSET_WITNESS = "multi-lockset-witness"
LOCKSET_FALSE_POSITIVE = "lockset-false-positive"
PAIRWISE_LOCKSET = "pairwise-lockset"
LSTATE_FORGIVEN = "lstate-forgiven"
UNEXPLAINED = "unexplained"


def site_key(site) -> tuple:
    """A site's hashable identity (None-safe)."""
    if site is None:
        return ("", -1, "")
    return (site.file, site.line, site.label)


class StrictWarnings(NamedTuple):
    """Strict (no-forgiveness) lockset warnings over one trace."""

    events: frozenset  # {(seq, site_key)}
    sites: frozenset  # {site_key}


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
    sites: set = set()
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
                    sites.add(key)
                if chunk_addr == last:
                    break
                chunk_addr += granularity
    return StrictWarnings(frozenset(events), frozenset(sites))


def _report_events(result: DetectionResult) -> frozenset:
    """The ``(seq, site_key)`` identity set of one detector's reports."""
    return frozenset((report.seq, site_key(report.site)) for report in result.reports)


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


@dataclass(frozen=True)
class ConformanceDivergence:
    """One classified disagreement between two adjacent lattice members."""

    pair: str
    site: tuple
    kind: str
    evidence: str = ""

    @property
    def is_expected(self) -> bool:
        return self.kind != UNEXPLAINED

    def to_dict(self) -> dict:
        return {
            "pair": self.pair,
            "site": list(self.site),
            "kind": self.kind,
            "evidence": self.evidence,
        }


@dataclass
class ConformanceReport:
    """The verdict of one trace under the full exact-detector lattice."""

    label: str
    events: int
    engine_path: str
    alarm_sites: dict[str, int] = field(default_factory=dict)
    violations: tuple[str, ...] = ()
    divergences: tuple[ConformanceDivergence, ...] = ()

    @property
    def unexplained(self) -> tuple[ConformanceDivergence, ...]:
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


def _sample(items: Iterable, limit: int = 3) -> str:
    ordered = sorted(items)
    shown = ", ".join(repr(item) for item in ordered[:limit])
    if len(ordered) > limit:
        shown += f", … ({len(ordered)} total)"
    return shown


def _detector_family(granularity: int) -> list:
    return [
        FastTrackDetector(granularity=granularity),
        IdealHappensBeforeDetector(granularity=granularity),
        AccuLockDetector(granularity=granularity),
        MultiLockHBDetector(granularity=granularity),
        IdealLocksetDetector(granularity=granularity, name="exact-lockset"),
    ]


def check_conformance(
    trace: Trace,
    *,
    granularity: int = 4,
    engine_path: str = "auto",
    check_parity: bool = False,
    label: str = "",
) -> ConformanceReport:
    """Judge one trace: run the family, assert the chain, classify gaps.

    With ``check_parity`` the whole family is run on **both** engine walks
    and any batch/scalar fingerprint mismatch (reports or stats) becomes a
    violation — the bit-for-bit guarantee the batch kernels must keep.
    """
    session = EngineSession(trace, path=engine_path)
    for detector in _detector_family(granularity):
        session.add(detector)
    ft, hb, al, ml, exact = session.run()

    violations: list[str] = []
    if check_parity:
        scalar_session = EngineSession(trace, path="scalar")
        for detector in _detector_family(granularity):
            scalar_session.add(detector)
        batch_session = EngineSession(trace, path="batch")
        for detector in _detector_family(granularity):
            batch_session.add(detector)
        for scalar_result, batch_result in zip(
            scalar_session.run(), batch_session.run()
        ):
            if _result_fingerprint(scalar_result) != _result_fingerprint(
                batch_result
            ):
                violations.append(
                    f"batch/scalar parity broken for {scalar_result.detector}"
                )

    ft_events = _report_events(ft)
    hb_events = _report_events(hb)
    al_events = _report_events(al)
    ml_events = _report_events(ml)
    strict = strict_lockset_sites(trace, granularity)

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

    ft_sites = {site_key(s) for s in ft.alarm_sites()}
    al_sites = {site_key(s) for s in al.alarm_sites()}
    ml_sites = {site_key(s) for s in ml.alarm_sites()}
    exact_sites = {site_key(s) for s in exact.alarm_sites()}

    divergences: list[ConformanceDivergence] = []

    def classify(pair: str, site: tuple, kind: str, evidence: str) -> None:
        divergences.append(ConformanceDivergence(pair, site, kind, evidence))

    for site in sorted(al_sites - ft_sites):
        if site in strict.sites:
            classify(
                "acculock-vs-fasttrack",
                site,
                HB_SCHEDULE_MISS,
                "strict lockset warns here too: discipline violated, but "
                "this schedule ordered the accesses (Figure 1)",
            )
        else:
            classify(
                "acculock-vs-fasttrack",
                site,
                UNEXPLAINED,
                "acculock warns outside the strict-lockset envelope",
            )
    for site in sorted(ml_sites - al_sites):
        if site in strict.sites:
            classify(
                "multilock-vs-acculock",
                site,
                MULTI_LOCKSET_WITNESS,
                "a retained record with a different lockset witnesses "
                "disjointness AccuLock's single-slot history overwrote",
            )
        else:
            classify(
                "multilock-vs-acculock",
                site,
                UNEXPLAINED,
                "multilock-hb warns outside the strict-lockset envelope",
            )

    # Eraser-exact vs the hybrid envelope, both directions.  The no-weak-HB
    # ablation (epoch filter off: every record counts as concurrent) is
    # built lazily — it separates "a barrier episode orders the pair" from
    # "no pairwise lock-disjoint pair ever existed".
    noweak_sites: set | None = None

    def pairwise_sites() -> set:
        nonlocal noweak_sites
        if noweak_sites is None:
            ablation = EngineSession(trace, path=engine_path)
            ablation.add(
                MultiLockHBDetector(granularity=granularity, use_weak_hb=False)
            )
            (result,) = ablation.run()
            noweak_sites = {site_key(s) for s in result.alarm_sites()}
        return noweak_sites

    for site in sorted(exact_sites - ml_sites):
        if site in pairwise_sites():
            classify(
                "exact-vs-multilock",
                site,
                LOCKSET_FALSE_POSITIVE,
                "the no-weak-HB ablation still warns: a barrier episode "
                "orders the pair — the hybrid prunes Eraser's false alarm",
            )
        else:
            classify(
                "exact-vs-multilock",
                site,
                PAIRWISE_LOCKSET,
                "even the no-weak-HB ablation is silent: the accumulated "
                "candidate set empties although no conflicting pair is "
                "pairwise lock-disjoint",
            )
    for site in sorted(ml_sites - exact_sites):
        if site in strict.sites:
            classify(
                "exact-vs-multilock",
                site,
                LSTATE_FORGIVEN,
                "strict (no-forgiveness) lockset warns here: the "
                "Virgin/Exclusive window absorbed the evidence",
            )
        else:
            classify(
                "exact-vs-multilock",
                site,
                UNEXPLAINED,
                "multilock-hb warns outside the strict-lockset envelope",
            )
    for site in sorted(strict.sites - ml_sites):
        if site in pairwise_sites():
            classify(
                "strict-vs-multilock",
                site,
                LOCKSET_FALSE_POSITIVE,
                "the no-weak-HB ablation still warns: a barrier episode "
                "orders every surviving pair",
            )
        else:
            classify(
                "strict-vs-multilock",
                site,
                PAIRWISE_LOCKSET,
                "even the no-weak-HB ablation is silent: only the "
                "accumulated intersection empties",
            )

    return ConformanceReport(
        label=label or trace.label,
        events=len(trace),
        engine_path=engine_path,
        alarm_sites={
            "fasttrack": len(ft_sites),
            "hb-ideal": len({site_key(s) for s in hb.alarm_sites()}),
            "acculock": len(al_sites),
            "multilock-hb": len(ml_sites),
            "exact-lockset": len(exact_sites),
            "strict-lockset": len(strict.sites),
        },
        violations=tuple(violations),
        divergences=tuple(divergences),
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
