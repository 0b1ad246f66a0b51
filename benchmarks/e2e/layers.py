"""The repository's layers as the traced run sees them.

:func:`install` wraps the public calls at each layer boundary (at every
module that imported them by name, so the wrapper is what the program
calls) and :func:`layer_metrics` turns the recorded spans of one traced
pass into the per-layer metrics named in ``BENCHMARK.json``.

A layer's time is given as its share of the traced pass (``*_frac``), not
in seconds: a slow episode of the shared host that stretches the pass
stretches the layer with it, so the share holds still where the seconds
do not.  The per-layer rates (``*.events_per_s``) keep the absolute speed.
"""

from __future__ import annotations

from spans import Span, Tracer, self_times

#: The batch-capable detector keys every Table 2 cell is scored by.  The
#: scalar-only ``hybrid`` and ``hard-directory`` are left out.
KEYS = (
    "hard-default",
    "hard-ideal",
    "hb-default",
    "hb-ideal",
    "software",
    "fasttrack",
    "acculock",
    "multilock-hb",
)

#: Functions imported by name: (span name, modules holding a reference, name).
_FUNCTIONS = (
    (
        "workloads.build",
        ("repro.workloads.registry", "repro.harness.experiment", "repro.harness.pipeline"),
        "build_workload",
    ),
    (
        "workloads.inject_bug",
        ("repro.workloads.injection", "repro.harness.experiment", "repro.harness.pipeline"),
        "inject_bug",
    ),
    (
        "threads.interleave",
        ("repro.threads.runtime", "repro.harness.experiment", "repro.harness.pipeline"),
        "interleave",
    ),
    ("pipeline.characterize", ("repro.harness.pipeline",), "characterize"),
)

#: Methods: (span name, "module:Class.method").
_METHODS = (
    ("coltrace.columns", "repro.common.events:Trace.columns"),
    ("coltrace.pack", "repro.common.coltrace:ColumnarTrace.from_events"),
    ("coltrace.to_trace", "repro.common.coltrace:ColumnarTrace.to_trace"),
    ("coltrace.from_bytes", "repro.common.coltrace:ColumnarTrace.from_bytes"),
    ("tracecache.trace_load", "repro.harness.tracecache:TraceCache.load"),
    ("tracecache.trace_store", "repro.harness.tracecache:TraceCache.store"),
    ("tracecache.tape_load", "repro.harness.tracecache:TapeCache.load"),
    ("tracecache.tape_store", "repro.harness.tracecache:TapeCache.store"),
    ("sim.tape_record", "repro.engine.tape:MachineTape.__init__"),
    ("engine.run", "repro.engine.session:EngineSession.run"),
    ("experiment.run_detectors", "repro.harness.experiment:ExperimentRunner.run_detectors"),
    ("experiment.trace_for", "repro.harness.experiment:ExperimentRunner.trace_for"),
    ("experiment.program_for", "repro.harness.experiment:ExperimentRunner.program_for"),
)

#: Spans the benchmark itself opens; their self time is unattributed.
BENCH_SPANS = ("pass", "cell")


def _interleave_attrs(args, result) -> dict:
    return {"events": len(result.trace)} if result is not None else {}


def _hit_attrs(args, result) -> dict:
    return {"hit": result is not None}


def _cols_events(args, result) -> dict:
    # MachineTape.__init__(self, cols, config) and begin_batch(self, cols, tape).
    return {"events": args[1].n}


def _hard_attrs(args, result) -> dict:
    # The simulated statistics of every hard-default result the session made.
    hard = [r for r in result or () if getattr(r, "detector", None) == "hard-default"]
    return {"hard": [r.stats.snapshot() | {"cycles": r.cycles} for r in hard]}


_ATTRS = {
    "threads.interleave": _interleave_attrs,
    "tracecache.trace_load": _hit_attrs,
    "tracecache.tape_load": _hit_attrs,
    "sim.tape_record": _cols_events,
    "engine.run": _hard_attrs,
}


def _core_targets(tracer: Tracer) -> list[str]:
    """``module:Class`` of each key's detector core, found through the registry."""
    from repro.harness.detectors import DetectorConfig, make_detector

    targets = []
    for key in KEYS:
        try:
            core = type(make_detector(DetectorConfig(key)).core())
        except Exception as exc:  # reported as a missing hook, not raised
            tracer.missing.append(f"core of {key}: {exc}")
            continue
        targets.append(f"{core.__module__}:{core.__qualname__}")
    return targets


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; unresolved targets land in ``tracer.missing``."""
    for name, modules, attr in _FUNCTIONS:
        for module in modules:
            tracer.wrap(f"{module}:{attr}", name, attrs_fn=_ATTRS.get(name))
    for name, target in _METHODS:
        tracer.wrap(target, name, attrs_fn=_ATTRS.get(name))
    for target in _core_targets(tracer):
        tracer.wrap(
            f"{target}.begin_batch",
            lambda args: f"detect.{args[0].name}.begin_batch",
            attrs_fn=_cols_events,
        )
        tracer.wrap(
            f"{target}.step_batch",
            lambda args: f"detect.{args[0].name}.step_batch",
            aggregate=True,
        )
        tracer.wrap(
            f"{target}.finish_batch", lambda args: f"detect.{args[0].name}.finish_batch"
        )


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span], pass_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    The verdict counts, the missing hooks and the tracing overhead are the
    caller's.
    """
    selfs = self_times(spans)
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr_sum: dict[tuple[str, str], float] = {}
    self_by_prefix: dict[str, float] = {}
    hard: list[dict] = []
    for span, self_s in zip(spans, selfs):
        busy[span.name] = busy.get(span.name, 0.0) + span.busy
        calls[span.name] = calls.get(span.name, 0) + span.calls
        prefix = span.name.split(".", 1)[0]
        self_by_prefix[prefix] = self_by_prefix.get(prefix, 0.0) + self_s
        for attr, value in span.attrs.items():
            if attr == "hard":
                hard.extend(value)
            else:
                key = (span.name, attr)
                attr_sum[key] = attr_sum.get(key, 0.0) + value

    def total(*names: str) -> float:
        return sum(busy.get(name, 0.0) for name in names)

    def share(*names: str) -> float:
        return _rate(total(*names), pass_wall)

    def ratio(name: str) -> float:
        return _rate(attr_sum.get((name, "hit"), 0.0), calls.get(name, 0))

    m: dict[str, float] = {
        "workloads.build_frac": share("workloads.build", "workloads.inject_bug"),
        "workloads.build_calls": calls.get("workloads.build", 0),
        "threads.interleave_frac": share("threads.interleave"),
        "threads.events_per_s": _rate(
            attr_sum.get(("threads.interleave", "events"), 0.0),
            total("threads.interleave"),
        ),
        "coltrace.pack_frac": share("coltrace.pack"),
        "coltrace.to_trace_frac": share("coltrace.to_trace"),
        "coltrace.from_bytes_frac": share("coltrace.from_bytes"),
        "tracecache.trace_load_frac": share("tracecache.trace_load"),
        "tracecache.trace_store_frac": share("tracecache.trace_store"),
        "tracecache.tape_load_frac": share("tracecache.tape_load"),
        "tracecache.tape_store_frac": share("tracecache.tape_store"),
        "tracecache.trace_hit_ratio": ratio("tracecache.trace_load"),
        "tracecache.tape_hit_ratio": ratio("tracecache.tape_load"),
        "sim.tape_record_frac": share("sim.tape_record"),
        "sim.tapes_recorded": calls.get("sim.tape_record", 0),
        "sim.events_per_s": _rate(
            attr_sum.get(("sim.tape_record", "events"), 0.0), total("sim.tape_record")
        ),
    }

    def stat(name: str) -> int:
        return sum(snapshot.get(name, 0) for snapshot in hard)

    accesses = stat("access.total")
    m.update(
        {
            "sim.cycles": stat("cycles"),
            "sim.access.l1_hit_ratio": _rate(
                stat("access.l1_r") + stat("access.l1_w"), accesses
            ),
            "sim.bus.bytes.metadata": stat("bus.bytes.metadata"),
            "sim.bus.transactions.metadata_broadcast": stat(
                "bus.transactions.metadata_broadcast"
            ),
            "sim.hard.metadata_piggybacks": stat("hard.metadata_piggybacks"),
            "sim.dir.bytes.control": stat("dir.bytes.control"),
        }
    )
    for key in KEYS:
        phases = [
            f"detect.{key}.{phase}" for phase in ("begin_batch", "step_batch", "finish_batch")
        ]
        m[f"detect.{key}.frac"] = share(*phases)
        m[f"detect.{key}.events_per_s"] = _rate(
            attr_sum.get((phases[0], "events"), 0.0), total(*phases)
        )
    engine_self = sum(s for span, s in zip(spans, selfs) if span.name == "engine.run")
    bench_self = sum(s for span, s in zip(spans, selfs) if span.name in BENCH_SPANS)
    m.update(
        {
            "engine.run_frac": share("engine.run"),
            "engine.self_frac": _rate(engine_self, pass_wall),
            "engine.step_batch_calls": sum(
                n for name, n in calls.items() if name.endswith(".step_batch")
            ),
            "experiment.self_frac": _rate(self_by_prefix.get("experiment", 0.0), pass_wall),
            "pipeline.characterize_frac": share("pipeline.characterize"),
            "unattributed_frac": _rate(bench_self, pass_wall),
        }
    )
    return m
