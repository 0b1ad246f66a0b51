"""Race reports, report logs, and the detector result contract.

All four detectors (HARD default/ideal, happens-before default/ideal, plus
the hybrid extension) emit :class:`RaceReport` records into a
:class:`RaceReportLog` and return a :class:`DetectionResult`.

The paper counts false positives "at source code level" (Section 5.1): one
alarm per static source location, no matter how many dynamic instances fire.
:meth:`RaceReportLog.sites` is therefore the unit of alarm accounting, and
:meth:`RaceReportLog.alarm_count` its size.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Protocol

from repro.common.events import Site, Trace
from repro.common.stats import StatCounters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs import Observability


@dataclass(frozen=True, slots=True)
class RaceReport:
    """One dynamic race report.

    Attributes:
        detector: name of the reporting detector.
        seq: trace sequence number of the access that triggered the report.
        thread_id: the accessing thread.
        addr: accessed byte address.
        size: access size in bytes.
        site: static source location of the access (alarm-dedup key).
        is_write: whether the triggering access was a write.
        detail: free-form diagnostic (e.g. "candidate set empty",
            "unordered with write by t2@1834").
    """

    detector: str
    seq: int
    thread_id: int
    addr: int
    size: int
    site: Site
    is_write: bool
    detail: str = ""

    def __str__(self) -> str:
        kind = "write" if self.is_write else "read"
        return (
            f"[{self.detector}] race: {kind} of 0x{self.addr:x} by "
            f"t{self.thread_id} at {self.site} (seq {self.seq}) {self.detail}"
        )


class RaceReportLog:
    """An append-only collection of race reports with site-level dedup."""

    def __init__(self, detector: str):
        self.detector = detector
        self._reports: list[RaceReport] = []
        self._sites: set[Site] = set()

    def __len__(self) -> int:
        return len(self._reports)

    def __iter__(self) -> Iterator[RaceReport]:
        return iter(self._reports)

    def add(
        self,
        *,
        seq: int,
        thread_id: int,
        addr: int,
        size: int,
        site: Site,
        is_write: bool,
        detail: str = "",
    ) -> RaceReport:
        """Record one dynamic report."""
        report = RaceReport(
            self.detector, seq, thread_id, addr, size, site, is_write, detail
        )
        self._reports.append(report)
        self._sites.add(site)
        return report

    @property
    def dynamic_count(self) -> int:
        """Number of dynamic report instances."""
        return len(self._reports)

    def sites(self) -> frozenset[Site]:
        """Distinct source sites reported — the paper's alarm unit."""
        return frozenset(self._sites)

    @property
    def alarm_count(self) -> int:
        """Number of source-level alarms (distinct sites)."""
        return len(self._sites)

    def reports_matching(self, predicate: Callable[[RaceReport], bool]) -> list[RaceReport]:
        """All reports satisfying ``predicate``."""
        return [r for r in self._reports if predicate(r)]

    def first_for_site(self, site: Site) -> RaceReport | None:
        """The earliest dynamic report at ``site``, if any."""
        for report in self._reports:
            if report.site == site:
                return report
        return None


@dataclass
class DetectionResult:
    """Everything a detector run produces.

    ``cycles`` is the total simulated cycles including detector extensions;
    ``detector_extra_cycles`` is the portion attributable to the detector
    (metadata traffic, candidate-set checks, lock-register updates, barrier
    resets).  ``baseline_cycles = cycles - detector_extra_cycles`` is what
    the same trace costs on the unmodified machine, so

        ``overhead = detector_extra_cycles / baseline_cycles``

    is the Figure 8 quantity.  Trace-only (ideal) detectors report zero
    cycles: the paper's ideal configurations measure detection capability,
    not time.
    """

    detector: str
    reports: RaceReportLog
    stats: StatCounters = field(default_factory=StatCounters)
    cycles: int = 0
    detector_extra_cycles: int = 0

    @property
    def baseline_cycles(self) -> int:
        """Simulated cycles the trace would cost without the detector."""
        return self.cycles - self.detector_extra_cycles

    @property
    def overhead_fraction(self) -> float:
        """Fractional execution-time overhead (Figure 8)."""
        if self.baseline_cycles <= 0:
            return 0.0
        return self.detector_extra_cycles / self.baseline_cycles

    def alarm_sites(self) -> frozenset[Site]:
        """Distinct reported sites."""
        return self.reports.sites()


class Detector(Protocol):
    """The contract every race detector implements."""

    name: str

    def run(self, trace: Trace, obs: "Observability | None" = None) -> DetectionResult:
        """Consume a full interleaved trace and return all reports.

        ``obs`` is the optional observability bundle (tracing + metrics);
        detectors must behave identically — and pay no measurable cost —
        when it is absent or inactive.
        """
        ...

    def core(self) -> "DetectorCore":
        """A fresh incremental core for one pass over one trace."""
        ...


class DetectorCore(Protocol):
    """One incremental detector pass: ``begin`` / ``step`` / ``finish``.

    A core is single-use mutable state — :meth:`begin` allocates it for one
    trace, :meth:`step` consumes one event at a time, :meth:`finish` seals
    and returns the :class:`DetectionResult`.  ``Detector.run`` is a thin
    shim over this contract (:func:`run_core`), and
    :class:`repro.engine.EngineSession` drives many cores from a single
    trace walk.

    A core may additionally advertise the optional *batch* protocol —
    ``begin_batch(cols, tape)`` / ``step_batch(cols, lo, hi)`` /
    ``finish_batch()`` — consuming ``[lo, hi)`` event ranges of a
    :class:`~repro.common.coltrace.ColumnarTrace` (plus, for machine-backed
    cores, a prerecorded :class:`~repro.engine.tape.MachineTape`) instead of
    per-event dispatch.  The engine session uses it whenever no per-event
    observability is active; results must be bit-for-bit identical to the
    scalar walk, which remains the reference oracle.  The engine passes the
    whole trace in one ``step_batch`` call, so a kernel handles barriers
    inline, and it runs each kernel with the cyclic garbage collector
    paused, so a kernel must build no reference cycles.

    ``machine_config`` is the :class:`~repro.common.config.MachineConfig`
    the core replays the data path through, or ``None`` for trace-only
    (ideal) cores.  A machine-backed core must issue the *canonical* data
    path for every event — locks/unlocks as one 4-byte write of the lock
    word, each memory access exactly once with the op's address/size/kind,
    compute charged once, nothing on barriers — which is the invariant that
    lets an engine session replay one shared machine for many cores.  When
    the session supplies ``machine``, the core must route every machine
    interaction through it instead of building its own.
    """

    name: str
    machine_config: object | None

    def begin(self, trace: Trace, obs: "Observability | None" = None, machine: object | None = None) -> None:
        """Allocate the pass state for ``trace`` (and optional shared machine)."""
        ...

    def step(self, event: object) -> None:
        """Consume one trace event."""
        ...

    def finish(self) -> DetectionResult:
        """Seal the pass and return its result."""
        ...


def run_core(
    core: DetectorCore, trace: Trace, obs: "Observability | None" = None
) -> DetectionResult:
    """Drive one core over a full trace with per-event ``step`` dispatch.

    This is the scalar reference walk — the oracle the vectorized engine
    path is validated against — and the implementation behind the
    deprecated ``Detector.run`` shims.
    """
    core.begin(trace, obs=obs)
    step = core.step
    for event in trace:
        step(event)
    return core.finish()


def run_deprecated(
    detector: Detector, trace: Trace, obs: "Observability | None" = None
) -> DetectionResult:
    """The legacy ``Detector.run(trace)`` shim: warn, then run the core.

    ``Detector.run`` predates the single-pass engine; new code should call
    :func:`repro.engine.detect_with_engine` (or :func:`repro.api.detect`),
    which walk the trace once for any number of detectors and use the
    vectorized batch path when available.
    """
    warnings.warn(
        f"{type(detector).__name__}.run() is deprecated; use "
        "repro.engine.detect_with_engine (or repro.api.detect) instead",
        DeprecationWarning,
        stacklevel=3,
    )
    return run_core(detector.core(), trace, obs=obs)


# ------------------------------------------------------- hybrid comparison


def hybrid_comparison(results: "list[DetectionResult]") -> dict:
    """Site-level comparison of one trace's results across detectors.

    Built for the hybrid lockset×happens-before family (PR 8) but happy to
    compare any result list: per detector the alarm-site count, and per
    ordered pair whether the first's alarm sites are contained in the
    second's — the shape the conformance lattice (fasttrack ≡ hb-ideal ⊆
    acculock ⊆ multilock-hb) predicts on every trace.  ``only_in`` lists
    each detector's exclusive sites against the union of the others, which
    is what a report reader actually wants to inspect.
    """
    sites = {result.detector: result.alarm_sites() for result in results}
    order = [result.detector for result in results]
    contained = {
        f"{a}<={b}": sites[a] <= sites[b]
        for a in order
        for b in order
        if a != b
    }
    exclusive = {}
    for name in order:
        others: frozenset[Site] = frozenset().union(
            *(sites[other] for other in order if other != name)
        )
        exclusive[name] = sorted(
            str(site) for site in sites[name] - others
        )
    return {
        "alarm_sites": {name: len(sites[name]) for name in order},
        "contained": contained,
        "only_in": exclusive,
    }
