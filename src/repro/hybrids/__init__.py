"""Hybrid lockset x happens-before detectors (the post-HARD lineage).

HARD (Section 3) picks lockset over happens-before for schedule
insensitivity and pays for it in false positives.  The literature that
followed split the difference instead:

* :mod:`repro.hybrids.acculock` — AccuLock: one epoch plus one lockset per
  location; the lockset intersection is consulted *only* for
  epoch-concurrent accesses, so synchronized hand-offs stop alarming
  while unordered unlocked accesses still do.
* :mod:`repro.hybrids.multilock` — MultiLock-HB (DRTracker's scheme): a
  *set* of reader locksets and writer locksets per location, so a
  location legitimately protected by different locks in different phases
  is not collapsed into one ever-shrinking candidate set.
* :mod:`repro.hb.fasttrack` — FastTrack: the epoch-optimized exact
  happens-before baseline the hybrids are measured against.

The hybrids use *weak* happens-before (:class:`~repro.hybrids.clocks.
WeakClocks`): barrier episodes order events, lock edges do not.  That is
the AccuLock design point — treating release->acquire as an ordering edge
would reintroduce exactly the schedule sensitivity (Figure 1) that lockset
exists to avoid.

:mod:`repro.hybrids.conformance` pins the resulting lattice: on every
trace, exact-HB reports ⊆ AccuLock ⊆ MultiLock-HB ⊆ strict-lockset
warnings.  Its :func:`~repro.hybrids.conformance.judge_family` is the one
classifier of the family's gaps: the conformance harness and the fuzz
oracle both label each adjacent-pair divergence through it, in one
:class:`~repro.hybrids.conformance.Divergence` record and one
:class:`~repro.hybrids.conformance.DivergenceKind` vocabulary.
"""

from repro.hybrids.acculock import AccuLockCore, AccuLockDetector
from repro.hybrids.clocks import WeakClocks
from repro.hybrids.conformance import (
    ConformanceError,
    ConformanceReport,
    ConformanceSuiteResult,
    Divergence,
    DivergenceKind,
    check_conformance,
    judge_family,
    run_conformance_suite,
    strict_lockset_sites,
)
from repro.hybrids.multilock import MultiLockHBCore, MultiLockHBDetector

__all__ = [
    "AccuLockCore",
    "AccuLockDetector",
    "ConformanceError",
    "ConformanceReport",
    "ConformanceSuiteResult",
    "Divergence",
    "DivergenceKind",
    "MultiLockHBCore",
    "MultiLockHBDetector",
    "WeakClocks",
    "check_conformance",
    "judge_family",
    "run_conformance_suite",
    "strict_lockset_sites",
]
