"""``repro.fuzz`` — differential fuzzing of the detector stack.

HARD's correctness story rests on three deliberate approximations — line
granularity, Bloom-filter lock sets, and cache-resident metadata (PAPER.md
Section 3.6) — so the reproduction is cross-checked against the exact
lockset and happens-before oracles on *generated* programs, far beyond the
eight hand-written workloads:

* :mod:`repro.fuzz.generator` — seeded random parallel programs, composed
  from the workload pattern library; every program is a pure function of
  its seed;
* :mod:`repro.fuzz.oracle` — runs HARD, the ideal detectors and the
  hybrid family on one trace and classifies every site-level divergence
  as an expected approximation (verified by ablation re-runs and the
  machine tape; the hybrid family's gaps by the conformance judge) or a
  genuine bug;
* :mod:`repro.fuzz.shrink` — delta-debugging minimizer that reduces a
  divergent program to a small reproducer;
* :mod:`repro.fuzz.corpus` — JSON (de)serialization of reproducer programs
  for the regression corpus under ``tests/fuzz/corpus/``;
* :mod:`repro.fuzz.harness` — the driver: fans seeds over the shared
  multiprocessing pool and merges deterministic
  :class:`~repro.fuzz.harness.FuzzReport` results.
"""

from __future__ import annotations

from repro.fuzz.corpus import load_case, save_case
from repro.fuzz.generator import (
    DEFAULT_SPEC,
    FuzzSpec,
    fuzz_workload_name,
    generate_program,
)
from repro.fuzz.harness import FuzzCaseResult, FuzzReport, run_fuzz
from repro.fuzz.oracle import (
    CaseVerdict,
    Divergence,
    DivergenceKind,
    OracleConfig,
    evaluate_program,
    evaluate_trace,
)
from repro.fuzz.shrink import divergence_predicate, shrink

__all__ = [
    "DEFAULT_SPEC",
    "FuzzSpec",
    "fuzz_workload_name",
    "generate_program",
    "CaseVerdict",
    "Divergence",
    "DivergenceKind",
    "OracleConfig",
    "evaluate_program",
    "evaluate_trace",
    "shrink",
    "divergence_predicate",
    "save_case",
    "load_case",
    "FuzzCaseResult",
    "FuzzReport",
    "run_fuzz",
]
