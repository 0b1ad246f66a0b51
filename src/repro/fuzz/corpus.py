"""JSON (de)serialization of shrunk reproducer programs — the fuzz corpus.

A corpus entry is one file holding a complete, replayable fuzz case: the
program (every operation of every thread), the schedule seed that produced
the divergent interleaving, and the divergence kinds the oracle classified
at save time.  The regression test replays every entry — rebuild, reinterleave
under the saved seed, re-run the oracle — and asserts the classifications
still hold and nothing has become UNEXPLAINED, so a detector change that
alters behaviour on any previously-triaged case fails loudly.

The format is a site table of ``[file, line, label]`` triples, referenced
by index from compact per-op rows ``[kind, addr, size, site, cycles, participants]``.
Deterministic output (sorted keys, no timestamps) keeps corpus files
diff-friendly under re-generation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.errors import HarnessError
from repro.common.events import Op, OpKind, Site
from repro.threads.program import ParallelProgram, ThreadProgram

#: Bump when the corpus file layout changes; loaders reject other versions.
CORPUS_SCHEMA_VERSION = 1


@dataclass
class CorpusCase:
    """One replayable corpus entry."""

    program: ParallelProgram
    schedule_seed: int
    #: Divergence-kind values the oracle reported when the case was saved.
    expected_kinds: tuple[str, ...] = ()
    #: Free-form provenance (fuzz seed, case label, notes).
    meta: dict = field(default_factory=dict)


def _site_index(site: Site | None, table: list[Site], index: dict[Site, int]) -> int:
    if site is None:
        return -1
    found = index.get(site)
    if found is None:
        found = len(table)
        table.append(site)
        index[site] = found
    return found


def program_to_dict(program: ParallelProgram) -> dict:
    """The JSON-serialisable form of ``program`` (regions are not kept)."""
    sites: list[Site] = []
    site_index: dict[Site, int] = {}
    threads = []
    for thread in program.threads:
        ops = [
            [
                op.kind.value,
                op.addr,
                op.size,
                _site_index(op.site, sites, site_index),
                op.cycles,
                op.participants,
            ]
            for op in thread.ops
        ]
        threads.append({"thread_id": thread.thread_id, "ops": ops})
    return {
        "name": program.name,
        "threads": threads,
        "lock_addresses": sorted(program.lock_addresses),
        "benign_racy_sites": sorted(
            _site_index(site, sites, site_index)
            for site in sorted(
                program.benign_racy_sites, key=lambda s: (s.file, s.line, s.label)
            )
        ),
        "sites": [[s.file, s.line, s.label] for s in sites],
    }


def program_from_dict(data: dict) -> ParallelProgram:
    """Rebuild a :class:`ParallelProgram` from :func:`program_to_dict` output."""
    sites = [Site(file=f, line=l, label=label) for f, l, label in data["sites"]]

    def site_at(index: int) -> Site | None:
        return None if index < 0 else sites[index]

    threads = []
    for entry in data["threads"]:
        ops = [
            Op(
                kind=OpKind(kind),
                addr=addr,
                size=size,
                site=site_at(site),
                cycles=cycles,
                participants=participants,
            )
            for kind, addr, size, site, cycles, participants in entry["ops"]
        ]
        threads.append(
            ThreadProgram(thread_id=entry["thread_id"], ops=ops, name=data["name"])
        )
    return ParallelProgram(
        name=data["name"],
        threads=threads,
        lock_addresses=tuple(data["lock_addresses"]),
        benign_racy_sites=frozenset(
            sites[index] for index in data["benign_racy_sites"]
        ),
    )


def save_case(
    path: str | Path,
    program: ParallelProgram,
    *,
    schedule_seed: int,
    expected_kinds: tuple[str, ...] = (),
    meta: dict | None = None,
) -> Path:
    """Write one corpus entry; returns the path written."""
    path = Path(path)
    payload = {
        "schema": CORPUS_SCHEMA_VERSION,
        "schedule_seed": schedule_seed,
        "expected_kinds": sorted(expected_kinds),
        "meta": meta or {},
        "program": program_to_dict(program),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_case(path: str | Path) -> CorpusCase:
    """Read one corpus entry back."""
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("schema") != CORPUS_SCHEMA_VERSION:
        raise HarnessError(
            f"{path}: corpus schema {data.get('schema')!r}, "
            f"expected {CORPUS_SCHEMA_VERSION}"
        )
    return CorpusCase(
        program=program_from_dict(data["program"]),
        schedule_seed=data["schedule_seed"],
        expected_kinds=tuple(data["expected_kinds"]),
        meta=data.get("meta", {}),
    )


def corpus_paths(directory: str | Path) -> list[Path]:
    """All corpus entries under ``directory``, sorted by name."""
    root = Path(directory)
    if not root.is_dir():
        return []
    return sorted(root.glob("*.json"))
