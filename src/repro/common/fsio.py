"""Atomic file writes shared by every on-disk artifact the toolkit emits.

Every durable artifact — cached verdicts, pickled traces, run reports,
benchmark results, metrics exports — goes through the same protocol: write
the full payload to a process-private temporary file in the destination
directory, then :func:`os.replace` it over the final name.  ``os.replace``
is atomic on POSIX (and on Windows within one volume), so a reader never
observes a truncated file.  A write or rename that raises unlinks its
``*.tmp`` and re-raises, leaving the previous complete version untouched;
only a writer killed outright leaves an orphaned ``*.tmp`` behind.

The temporary name carries the writer's pid, so concurrent processes racing
to produce the same artifact never interleave writes into one temp file;
the last rename wins with a complete payload either way.
"""

from __future__ import annotations

import os
from pathlib import Path


def _tmp_path(path: Path) -> Path:
    """The process-private temporary sibling of ``path``."""
    return path.with_name(f"{path.name}.{os.getpid()}.tmp")


def _write_then_replace(path: str | Path, write) -> Path:
    """Run ``write(tmp)`` and rename ``tmp`` over ``path``, failing closed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _tmp_path(path)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def atomic_write_text(path: str | Path, text: str, encoding: str = "utf-8") -> Path:
    """Write ``text`` to ``path`` atomically; returns the final path."""
    return _write_then_replace(
        path, lambda tmp: tmp.write_text(text, encoding=encoding)
    )


def atomic_write_bytes(path: str | Path, payload: bytes) -> Path:
    """Write ``payload`` to ``path`` atomically; returns the final path."""
    return _write_then_replace(path, lambda tmp: tmp.write_bytes(payload))
