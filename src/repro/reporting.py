"""Race reports, report logs, and the detector result contract.

Every detector (HARD default/ideal, happens-before default/ideal, the
software lockset and the hybrid family) emits :class:`RaceReport` records
into a :class:`RaceReportLog` and returns a :class:`DetectionResult`.

The paper counts false positives "at source code level" (Section 5.1): one
alarm per static source location, no matter how many dynamic instances fire.
:meth:`RaceReportLog.sites` is therefore the unit of alarm accounting, and
:meth:`RaceReportLog.alarm_count` its size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Protocol

from repro.common.errors import ConfigError
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

    def core(self) -> "DetectorCore":
        """A fresh incremental core for one pass over one trace."""
        ...


class DetectorCore(Protocol):
    """One incremental detector pass: ``begin`` / ``step`` / ``finish``.

    A core is single-use mutable state — :meth:`begin` allocates it for one
    trace, :meth:`step` consumes one event at a time, :meth:`finish` seals
    and returns the :class:`DetectionResult`.  :func:`run_core` drives one
    core over a trace, and :class:`repro.engine.EngineSession` drives many
    cores from a single trace walk.  ``obs`` is the optional observability
    bundle (metrics only: a scalar ``step`` emits no trace events); a core
    must behave identically — and pay no measurable cost — when it is
    absent or inactive.

    Every registered detector's core also implements the *batch* protocol
    — ``begin_batch(cols, tape, obs=None)`` / ``step_batch(cols, lo, hi)``
    / ``finish_batch()`` — consuming ``[lo, hi)`` event ranges of a
    :class:`~repro.common.coltrace.ColumnarTrace` (plus, for machine-backed
    cores, a prerecorded :class:`~repro.engine.tape.MachineTape`) instead of
    per-event dispatch.  The engine session uses it on every walk but
    ``path="scalar"`` (a custom core without it runs only there); results
    must be bit-for-bit identical to the scalar walk, which remains the
    reference oracle.  With metrics collection on, ``finish_batch`` books
    into ``obs.metrics`` exactly the counters and histograms the scalar
    ``step`` books per event; each walk books ``obs.alarms`` from the
    finished result's report log (:func:`book_alarms`).  Trace events
    ride the batch walk only: the session emits each core's alarms from
    its report log, and a kernel may emit its own detector-internal
    events to ``obs.emitter`` (the ``hard-default`` kernel does); a scalar
    ``step`` emits none.  The engine passes the whole trace in one ``step_batch`` call, so a kernel
    handles barriers inline, and it runs each kernel with the cyclic
    garbage collector paused, so a kernel must build no reference cycles.

    ``machine_config`` is the :class:`~repro.common.config.MachineConfig`
    the core replays the data path through, or ``None`` for trace-only
    (ideal) cores.  A machine-backed core must issue the *canonical* data
    path for every event — locks/unlocks as one 4-byte write of the lock
    word, each memory access exactly once with the op's address/size/kind,
    compute charged once, nothing on barriers.  That invariant is what lets
    one :class:`~repro.engine.tape.MachineTape` per (trace, machine config)
    stand in, for every batch kernel, for the machine a scalar core
    simulates itself.
    """

    name: str
    machine_config: object | None

    def begin(self, trace: Trace, obs: "Observability | None" = None) -> None:
        """Allocate the pass state for ``trace`` (and the core's own machine)."""
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
    path is validated against.  It emits no trace events, so it refuses
    an ``obs`` with an enabled emitter (raising
    :class:`~repro.common.errors.ConfigError`).
    """
    if obs is not None and obs.emitter.enabled:
        raise ConfigError(
            "run_core is the scalar walk, which emits no trace events; "
            "trace emission rides the batch walk (repro.engine.EngineSession)"
        )
    core.begin(trace, obs=obs)
    step = core.step
    for event in trace:
        step(event)
    result = core.finish()
    book_alarms(obs, result)
    return result


def book_alarms(obs: "Observability | None", result: object) -> None:
    """Book a finished result's dynamic reports as ``obs.alarms``.

    Every walk (:func:`run_core`, the engine session's scalar walk and
    :func:`~repro.engine.session.walk_batch_core`) calls this once per
    finished core, so the kernels book no alarms of their own.  Results
    that are not a :class:`DetectionResult` (auxiliary cores) book none.
    """
    if (
        obs is not None
        and obs.active
        and isinstance(result, DetectionResult)
        and result.reports
    ):
        obs.metrics.add("obs.alarms", len(result.reports))


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
