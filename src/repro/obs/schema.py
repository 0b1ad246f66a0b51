"""The observability event schema, and its validator.

Every event emitted by the pipeline is a flat JSON object with a ``type``
discriminator, an optional wall-clock stamp ``t`` (seconds since the
emitter started), and a set of type-specific required fields listed in
:data:`EVENT_TYPES`.  ``docs/observability.md`` documents each type; the
round-trip test in ``tests/obs`` validates a real ``--trace-out`` file
against this table, so the schema and the emit sites cannot drift apart
silently.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from repro.common.errors import ReproError

#: Bumped whenever an event type gains/loses required fields.
EVENT_SCHEMA_VERSION = 1

#: event type -> required field names (besides ``type`` and optional ``t``).
EVENT_TYPES: dict[str, frozenset[str]] = {
    # Spans: one per completed pipeline phase / timed region.
    "span": frozenset({"name", "wall_s"}),
    # A candidate set shrank: C(v) &= L(t) removed at least one bit.
    "lockset.refine": frozenset({"seq", "thread", "chunk", "before", "after"}),
    # A chunk moved through the Figure 2 LState machine.
    "lstate.transition": frozenset({"seq", "thread", "chunk", "from", "to"}),
    # The BFVector denotes the empty set while residual collision bits
    # remain set — the Bloom representation is visibly aliased.
    "bloom.collision": frozenset({"seq", "thread", "chunk", "vector"}),
    # A changed candidate set was broadcast to the other holders (Figure 6).
    "candidate.broadcast": frozenset({"bits"}),
    # The directory fabric's counterpart: a changed candidate set was
    # written back point-to-point to the line's home node (Section 3.4).
    "metadata.update": frozenset({"bits"}),
    # Metadata rode an existing coherence transfer (Section 3.4).
    "metadata.piggyback": frozenset({"bits"}),
    # Barrier exit flash-reset every cached BFVector (Section 3.5).
    "barrier.reset": frozenset({"barrier", "copies"}),
    # An L2 displacement destroyed all record of a line (Section 3.6).
    "l2.displacement": frozenset({"line"}),
    # A cache-internal capacity eviction displaced a victim line.
    "cache.evict": frozenset({"cache", "line", "dirty"}),
    # A detector reported a dynamic race.
    "alarm": frozenset(
        {"detector", "seq", "thread", "addr", "size", "site", "is_write"}
    ),
    # One judged differential-fuzz case (clean or injected).
    "fuzz.case": frozenset({"seed", "case", "divergences", "unexplained"}),
}


class ObsSchemaError(ReproError):
    """An event record does not conform to the schema."""


def validate_event(record: object) -> list[str]:
    """Problems with one decoded event record (empty list = valid)."""
    problems: list[str] = []
    if not isinstance(record, dict):
        return [f"event is not an object: {record!r}"]
    etype = record.get("type")
    if not isinstance(etype, str):
        return [f"missing or non-string 'type': {etype!r}"]
    required = EVENT_TYPES.get(etype)
    if required is None:
        return [f"unknown event type {etype!r}"]
    for name in sorted(required):
        if name not in record:
            problems.append(f"{etype}: missing required field {name!r}")
    t = record.get("t")
    if t is not None and not isinstance(t, (int, float)):
        problems.append(f"{etype}: non-numeric timestamp {t!r}")
    return problems


def validate_jsonl(path: str | Path) -> Counter:
    """Validate a JSONL event file; return per-type event counts.

    Raises :class:`ObsSchemaError` naming the first offending line on any
    malformed JSON or schema violation.
    """
    counts: Counter[str] = Counter()
    with open(path, encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ObsSchemaError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            problems = validate_event(record)
            if problems:
                raise ObsSchemaError(f"{path}:{lineno}: " + "; ".join(problems))
            counts[record["type"]] += 1
    return counts
