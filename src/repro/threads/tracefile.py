"""Trace serialization: save and reload interleaved executions.

A :class:`~repro.common.events.Trace` fully determines every detector's
verdict, so persisting traces makes runs shareable and diffable: capture a
buggy execution once, then replay it against any detector configuration —
the exact workflow a hardware debugging team would use with HARD reports.

Format: one JSON object per line (JSONL).  The first line is a header with
the thread count, label and injected bug (``null`` for a clean run); every
other line is one event ``[thread_id, kind, addr, size, [file, line,
label], cycles, participants]`` with a ``null`` site for sync/compute
events.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.common.errors import ProgramError
from repro.common.events import InjectedBug, Op, OpKind, Site, Trace

FORMAT_VERSION = 2


def _site_tuple(site: Site | None):
    if site is None:
        return None
    return [site.file, site.line, site.label]


def _site_from(data) -> Site | None:
    if data is None:
        return None
    return Site(file=data[0], line=data[1], label=data[2])


def _bug_dict(bug: InjectedBug | None):
    if bug is None:
        return None
    return {
        "thread_id": bug.thread_id,
        "lock_addr": bug.lock_addr,
        "lock_op_index": bug.lock_op_index,
        "unlock_op_index": bug.unlock_op_index,
        "chunk_addresses": sorted(bug.chunk_addresses),
        "sites": [_site_tuple(site) for site in sorted(bug.sites, key=str)],
    }


def _bug_from(data) -> InjectedBug | None:
    if data is None:
        return None
    return InjectedBug(
        thread_id=data["thread_id"],
        lock_addr=data["lock_addr"],
        lock_op_index=data["lock_op_index"],
        unlock_op_index=data["unlock_op_index"],
        chunk_addresses=frozenset(data["chunk_addresses"]),
        sites=frozenset(_site_from(site) for site in data["sites"]),
    )


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write ``trace`` to ``path`` in JSONL format."""
    path = Path(path)
    with path.open("w") as handle:
        header = {
            "version": FORMAT_VERSION,
            "num_threads": trace.num_threads,
            "label": trace.label,
            "injected_bug": _bug_dict(trace.injected_bug),
        }
        handle.write(json.dumps(header) + "\n")
        for event in trace:
            op = event.op
            record = [
                event.thread_id,
                op.kind.value,
                op.addr,
                op.size,
                _site_tuple(op.site),
                op.cycles,
                op.participants,
            ]
            handle.write(json.dumps(record) + "\n")


def load_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    path = Path(path)
    with path.open() as handle:
        header_line = handle.readline()
        if not header_line:
            raise ProgramError(f"{path}: empty trace file")
        header = json.loads(header_line)
        if header.get("version") != FORMAT_VERSION:
            raise ProgramError(
                f"{path}: unsupported trace version {header.get('version')!r}"
            )
        trace = Trace(
            num_threads=header["num_threads"],
            label=header.get("label", ""),
            injected_bug=_bug_from(header.get("injected_bug")),
        )
        for line_text in handle:
            thread_id, kind, addr, size, site, cycles, participants = json.loads(
                line_text
            )
            op = Op(
                kind=OpKind(kind),
                addr=addr,
                size=size,
                site=_site_from(site),
                cycles=cycles,
                participants=participants,
            )
            trace.append(thread_id, op)
        return trace
