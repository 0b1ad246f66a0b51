"""Garbage collection for the on-disk result caches (``repro cache gc``).

The harness keeps three content-addressed cache families under one
directory (``results/cache`` by default), each an
:class:`~repro.harness.tracecache.EntryCache` that names its own
subdirectory and file patterns:

* verdict JSON files (``<app>_<run>_<digest>.json``) at the top level;
* interleaved traces (``traces/trace_*.cols``, plus legacy ``.pkl``);
* recorded machine tapes (``tapes/tape_*.tape``).

All are self-invalidating — keys fold in the digest of the source code
that produced each entry, so stale entries simply stop being hit after
any edit to that code — which means nothing ever deletes them and a
long-lived checkout accumulates dead weight without bound.  :func:`gc_cache` prunes by age and/or total size and reports what
it reclaimed; with no bounds given it just takes inventory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.harness.tracecache import TapeCache, TraceCache, VerdictCache

#: The cache families a GC pass covers: (kind, subdirectory, glob).
_FAMILIES = tuple(
    (cache.FAMILY, cache.SUBDIR, pattern)
    for cache in (VerdictCache, TraceCache, TapeCache)
    for pattern in cache.PATTERNS
)


@dataclass
class CacheGcReport:
    """What one :func:`gc_cache` pass saw and did."""

    cache_dir: str
    dry_run: bool = False
    scanned_files: int = 0
    scanned_bytes: int = 0
    removed_files: int = 0
    removed_bytes: int = 0
    #: Per-family ``{kind: {"files": n, "bytes": n, "removed_files": n,
    #: "removed_bytes": n}}`` breakdown.
    kinds: dict = field(default_factory=dict)

    @property
    def kept_files(self) -> int:
        return self.scanned_files - self.removed_files

    @property
    def kept_bytes(self) -> int:
        return self.scanned_bytes - self.removed_bytes

    def to_dict(self) -> dict:
        """JSON-serialisable form (the ``repro cache gc --json`` payload)."""
        return {
            "cache_dir": self.cache_dir,
            "dry_run": self.dry_run,
            "scanned_files": self.scanned_files,
            "scanned_bytes": self.scanned_bytes,
            "removed_files": self.removed_files,
            "removed_bytes": self.removed_bytes,
            "kept_files": self.kept_files,
            "kept_bytes": self.kept_bytes,
            "kinds": self.kinds,
        }


def _human_bytes(size: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024
    return f"{size:.1f} GiB"


def render_gc_report(report: CacheGcReport) -> str:
    """The human-readable summary ``repro cache gc`` prints."""
    verb = "would remove" if report.dry_run else "removed"
    lines = [
        f"cache {report.cache_dir}: {report.scanned_files} files, "
        f"{_human_bytes(report.scanned_bytes)}"
    ]
    for kind, counts in sorted(report.kinds.items()):
        lines.append(
            f"  {kind}: {counts['files']} files, "
            f"{_human_bytes(counts['bytes'])}"
            + (
                f" ({verb} {counts['removed_files']}, "
                f"{_human_bytes(counts['removed_bytes'])})"
                if counts["removed_files"]
                else ""
            )
        )
    lines.append(
        f"{verb} {report.removed_files} files, "
        f"reclaimed {_human_bytes(report.removed_bytes)}; "
        f"kept {report.kept_files} files, {_human_bytes(report.kept_bytes)}"
    )
    return "\n".join(lines)


def gc_cache(
    cache_dir: str | Path,
    *,
    max_age_days: float | None = None,
    max_size_mb: float | None = None,
    dry_run: bool = False,
    now: float | None = None,
) -> CacheGcReport:
    """Prune the result caches under ``cache_dir``; report what happened.

    Entries older than ``max_age_days`` (by mtime) are removed first; if
    the survivors still exceed ``max_size_mb``, the oldest are removed
    until the total fits.  With neither bound set, nothing is deleted and
    the report is a pure inventory.  ``dry_run`` computes the same plan
    without unlinking; ``now`` (epoch seconds) pins the age reference for
    deterministic tests.
    """
    cache_dir = Path(cache_dir)
    report = CacheGcReport(cache_dir=str(cache_dir), dry_run=dry_run)
    entries: list[tuple[float, int, Path, str]] = []  # (mtime, size, path, kind)
    seen: set[Path] = set()
    for kind, subdir, pattern in _FAMILIES:
        directory = cache_dir / subdir if subdir else cache_dir
        if not directory.is_dir():
            continue
        for path in directory.glob(pattern):
            if path in seen:
                continue
            seen.add(path)
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path, kind))
            counts = report.kinds.setdefault(
                kind,
                {"files": 0, "bytes": 0, "removed_files": 0, "removed_bytes": 0},
            )
            counts["files"] += 1
            counts["bytes"] += stat.st_size
            report.scanned_files += 1
            report.scanned_bytes += stat.st_size

    doomed: list[tuple[float, int, Path, str]] = []
    survivors = sorted(entries)  # oldest first
    if max_age_days is not None:
        reference = time.time() if now is None else now
        cutoff = reference - max_age_days * 86400.0
        doomed = [entry for entry in survivors if entry[0] < cutoff]
        survivors = [entry for entry in survivors if entry[0] >= cutoff]
    if max_size_mb is not None:
        budget = int(max_size_mb * 1024 * 1024)
        total = sum(size for _, size, _, _ in survivors)
        index = 0
        while total > budget and index < len(survivors):
            entry = survivors[index]
            doomed.append(entry)
            total -= entry[1]
            index += 1
        survivors = survivors[index:]

    for _, size, path, kind in doomed:
        if not dry_run:
            path.unlink(missing_ok=True)
        report.removed_files += 1
        report.removed_bytes += size
        report.kinds[kind]["removed_files"] += 1
        report.kinds[kind]["removed_bytes"] += size
    return report
