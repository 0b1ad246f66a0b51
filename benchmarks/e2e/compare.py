#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` are record lists written by ``run.py --out``;
A is the baseline.  For every (workload, metric) pair the table shows each
side's median and quartiles, the metric's bound from ``BENCHMARK.json``
and a verdict:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than the bound;
* ``unresolved`` — either side's quartile spread (as a share of its
  median) is wider than the bound, unless every B run beats every A run;
* ``ok`` — otherwise.

Exact metrics (simulated statistics, verdict counts, the error rate)
repeat exactly for a seed, so they are compared per seed: ``ok`` only when
every seed run on both sides reads the same.  Per-layer timings have no
bound and are listed as ``info``.  Exit status is 1 when any row is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Metrics that are a pure function of the seed (no host time in them).
EXACT = frozenset(
    {
        "sim_overhead_pct",
        "error_rate",
        "verdict.bugs_detected",
        "verdict.false_alarm_sites",
        "workloads.build_calls",
        "tracecache.trace_hit_ratio",
        "tracecache.tape_hit_ratio",
        "sim.tapes_recorded",
        "sim.cycles",
        "sim.access.l1_hit_ratio",
        "sim.bus.bytes.metadata",
        "sim.bus.transactions.metadata_broadcast",
        "sim.hard.metadata_piggybacks",
        "sim.dir.bytes.control",
        "engine.step_batch_calls",
        "trace.missing_hooks",
    }
)


def record_values(record: dict) -> dict[str, float]:
    """Every comparable number of one run: its checks and its metrics."""
    return {**record["checks"], **record["metrics"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _spread(q: tuple[float, float, float]) -> float:
    return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0


def verdict(
    a: list[tuple[int, float]],
    b: list[tuple[int, float]],
    better: str,
    bound: float | None,
    exact: bool,
) -> str:
    """The verdict for one (workload, metric) pair; ``a``/``b`` are (seed, value)."""
    sign = 1 if better == "higher" else -1
    qa = quartiles([v for _, v in a])
    qb = quartiles([v for _, v in b])
    gain = sign * (qb[1] - qa[1])  # > 0 when B is better
    seeds = {s for s, _ in a} & {s for s, _ in b}
    if exact and seeds:
        if all(len({v for s, v in a + b if s == seed}) == 1 for seed in seeds):
            return "ok"
        return "better" if gain > 0 else "worse"
    if bound is None:
        return "info"
    if max(_spread(qa), _spread(qb)) > bound:
        if min(sign * v for _, v in b) > max(sign * v for _, v in a):
            return "better"
        return "unresolved"
    if qa[1] and gain / abs(qa[1]) < -bound:
        return "worse"
    if qa[1] and gain / abs(qa[1]) > bound:
        return "better"
    return "ok"


def _by_pair(records: list[dict]) -> dict[tuple[str, str], list[tuple[int, float]]]:
    out: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for record in records:
        seed = record["host"]["seed"]
        for name, value in record_values(record).items():
            out.setdefault((record["workload"], name), []).append((seed, value))
    return out


def compare(a_records: list[dict], b_records: list[dict], spec: dict) -> list[dict]:
    """One row per (workload, metric) pair present on both sides."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a = _by_pair(a_records)
    b = _by_pair(b_records)
    rows = []
    for workload, name in sorted(a.keys() & b.keys()):
        meta = metrics.get(name, {"better": "lower"})
        rows.append(
            {
                "workload": workload,
                "metric": name,
                "a": quartiles([v for _, v in a[(workload, name)]]),
                "b": quartiles([v for _, v in b[(workload, name)]]),
                "bound": meta.get("bound"),
                "verdict": verdict(
                    a[(workload, name)],
                    b[(workload, name)],
                    meta["better"],
                    meta.get("bound"),
                    name in EXACT,
                ),
            }
        )
    return rows


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    a_records, b_records = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(a_records, b_records, spec)
    print(
        f"{'workload':<16} {'metric':<40} {'A median [q1, q3]':<36} "
        f"{'B median [q1, q3]':<36} {'bound':>6}  verdict"
    )
    for row in rows:
        bound = "-" if row["bound"] is None else f"{row['bound']:.2f}"
        print(
            f"{row['workload']:<16} {row['metric']:<40} {_fmt(row['a']):<36} "
            f"{_fmt(row['b']):<36} {bound:>6}  {row['verdict']}"
        )
    worse = [row for row in rows if row["verdict"] == "worse"]
    print(f"{len(rows)} rows, {len(worse)} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
