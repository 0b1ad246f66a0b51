"""Address-sharded parallel batch detection: one trace, many processes.

HARD's metadata is *per cache line* (Section 3.1), which makes the check
phase data-parallel across the address space: what a detector does at one
location depends only on (a) the global synchronisation history — lock
registers, vector clocks, barrier episodes — and (b) the access/coherence
history of that location.  Every batch kernel in this repository preserves
that split exactly: sync events (LOCK/UNLOCK/BARRIER) mutate only
per-thread or global state, memory events mutate only per-line/per-chunk
state, and COMPUTE events touch nothing but the prerecorded tape totals.

A **shard** is therefore a sub-trace containing *all* sync events plus the
memory events whose addresses the shard owns (COMPUTE dropped), paired
with the slice of the machine tape whose hooks land on owned lines.
Running the unchanged ``step_batch`` kernel over each shard reproduces the
exact per-location behaviour of the full trace, and the per-shard results
merge back losslessly:

* **reports** carry shard-local sequence numbers; the shard's local→global
  index map rewrites them, and a stable sort by global seq reproduces the
  scalar log order (all chunks of one event live in one shard);
* **counters / extra cycles** are linear in per-event occurrence counts.
  Sync-derived counts are repeated in every shard, so the merge subtracts
  ``(shards - 1)`` times a cheap *sync-only baseline* (the same kernel run
  over a shard with no memory events at all); memory-derived counts appear
  in exactly one shard and sum directly;
* **shared data-path totals** (machine cycles, cache/bus stats) come from
  the real tape, added exactly once by the parent — shard tapes carry
  zeroed totals.

Ownership is by *unit*: the largest power-of-two granularity any
registered detector tracks (cache lines for machine-backed cores, chunk
granularity for ideal ones), hashed to a shard id.  Events spanning
multiple units are glued by a union-find pass so every chunk of one event
— and every line its coherence traffic touches — resolves to one shard.
The partition is a pure function of (columns, unit size, shard count), so
workers recompute it locally instead of shipping it.

Workers never receive pickled event data: the parent spills the columnar
encoding and the recorded tapes to disk (or reuses the trace/tape cache
entries already there) and ships only file paths; each worker ``mmap``-s
them and gathers its own shard from the shared pages.
"""

from __future__ import annotations

import atexit
import mmap
import shutil
import tempfile
from array import array
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from repro.common.coltrace import _COLUMNS, KIND_COMPUTE, ColumnarTrace
from repro.common.stats import StatCounters
from repro.engine.session import EngineError, walk_batch_core
from repro.engine.tape import MachineTape
from repro.reporting import DetectionResult, RaceReportLog

#: Auto-path event-count threshold: below this, process fan-out overhead
#: dominates and the single-process batch walk wins.
DEFAULT_SHARD_THRESHOLD = 50_000

_U64 = 0xFFFFFFFFFFFFFFFF


def _mix(x: int) -> int:
    # splitmix64 finalizer: a cheap, well-distributed unit -> shard hash.
    x &= _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return x ^ (x >> 31)


def core_alignment(core) -> int:
    """The largest address granularity one core's state is keyed by.

    Machine-backed cores key metadata by cache line (both levels); every
    core additionally tracks chunks at its detector's granularity.  The
    shard unit must cover the maximum so no tracked record ever straddles
    an ownership boundary.
    """
    align = 4
    machine_config = getattr(core, "machine_config", None)
    if machine_config is not None:
        align = max(
            align,
            machine_config.l1.line_size,
            machine_config.l2.line_size,
        )
    detector = getattr(core, "d", None)
    holders = [core, detector]
    if detector is not None:
        holders.append(getattr(detector, "config", None))
    for holder in holders:
        granularity = getattr(holder, "granularity", None)
        if isinstance(granularity, int):
            align = max(align, granularity)
    return align


def unit_shift_for(cores) -> int:
    """``log2`` of the shard ownership unit covering every core's state."""
    align = 4
    for core in cores:
        align = max(align, core_alignment(core))
    if align & (align - 1):
        raise EngineError(f"shard unit must be a power of two, got {align}")
    return align.bit_length() - 1


def build_partition(
    cols: ColumnarTrace, unit_shift: int, num_shards: int
) -> dict[int, int]:
    """Shard-owner overrides for units linked by multi-unit events.

    Most units hash independently (``_mix(unit) % num_shards``); an event
    whose byte range spans several units forces them into one shard, which
    a union-find over the spanning events resolves.  Returns the override
    map for exactly the linked units — a pure function of the inputs, so
    every worker recomputes the identical partition locally.
    """
    parent: dict[int, int] = {}

    def find(u: int) -> int:
        root = u
        while parent[root] != root:
            root = parent[root]
        while parent[u] != root:
            parent[u], u = root, parent[u]
        return root

    unit_size = 1 << unit_shift
    offset_mask = unit_size - 1
    for kind, addr, size in zip(cols.kind, cols.addr, cols.size):
        if kind > 1 or (addr & offset_mask) + size <= unit_size:
            continue
        first = addr >> unit_shift
        last = (addr + size - 1) >> unit_shift
        if first not in parent:
            parent[first] = first
        root = find(first)
        for unit in range(first + 1, last + 1):
            if unit not in parent:
                parent[unit] = root
            else:
                parent[find(unit)] = root
    return {unit: _mix(find(unit)) % num_shards for unit in parent}


def build_shard(
    cols: ColumnarTrace,
    unit_shift: int,
    overrides: dict[int, int],
    num_shards: int,
    shard_id: int,
    *,
    sync_only: bool = False,
) -> tuple[ColumnarTrace, array]:
    """Gather one shard's sub-trace: all sync events + owned memory events.

    Returns ``(shard_cols, keep)`` where ``keep[j]`` is the global index of
    the shard's ``j``-th event (the report seq-remap table).  COMPUTE
    events are dropped — batch kernels ignore them and their cycles live on
    the tape totals the parent adds once.  With ``sync_only`` every memory
    event is dropped too: the merge baseline.
    """
    kinds = cols.kind
    addrs = cols.addr
    keep = array("q")
    keep_append = keep.append
    owner_memo: dict[int, int] = {}
    get_override = overrides.get
    for i, kind in enumerate(kinds):
        if kind <= 1:  # READ / WRITE
            if sync_only:
                continue
            unit = addrs[i] >> unit_shift
            owner = owner_memo.get(unit)
            if owner is None:
                owner = get_override(unit)
                if owner is None:
                    owner = _mix(unit) % num_shards
                owner_memo[unit] = owner
            if owner == shard_id:
                keep_append(i)
        elif kind != KIND_COMPUTE:  # LOCK / UNLOCK / BARRIER
            keep_append(i)

    shard = ColumnarTrace()
    shard.n = len(keep)
    shard.num_threads = cols.num_threads
    shard.label = cols.label
    shard.sites = cols.sites
    shard.bug = cols.bug
    for name, typecode in _COLUMNS:
        column = getattr(cols, name)
        setattr(shard, name, array(typecode, map(column.__getitem__, keep)))
    return shard, keep


def build_shard_tape(
    tape: MachineTape,
    keep: array,
    unit_shift: int,
    overrides: dict[int, int],
    num_shards: int,
    shard_id: int,
) -> MachineTape:
    """Slice one machine tape down to a shard's owned lines.

    Hooks are filtered by the *line they touch* (a line belongs to exactly
    one unit), not by the event that caused them: an access in another
    shard can evict or invalidate a line this shard owns, and that hook
    must replay here.  Hooks between two kept events attach to the span of
    the *next* kept event — the kernels apply an event's span before
    processing the event, so global hook order relative to every owned
    line's accesses is preserved.  Totals (machine cycles/stats) are
    zeroed: the parent adds the real tape's totals exactly once.
    """
    out = MachineTape.empty(len(keep), tape.machine_config)
    hook_off = tape.hook_off
    hook_code = tape.hook_code
    hook_line = tape.hook_line
    hook_core = tape.hook_core
    hook_aux = tape.hook_aux
    pig = tape.pig
    sharer_off = tape.sharer_off
    sharer_line = tape.sharer_line
    sharer_flag = tape.sharer_flag

    new_off = out.hook_off
    code_out = out.hook_code.append
    line_out = out.hook_line.append
    core_out = out.hook_core.append
    aux_out = out.hook_aux.append
    pig_out = out.pig
    s_off_out = out.sharer_off
    s_line_out = out.sharer_line.append
    s_flag_out = out.sharer_flag.append

    owner_memo: dict[int, int] = {}
    get_override = overrides.get
    h = 0
    kept_hooks = 0
    kept_sharers = 0
    for j, g in enumerate(keep):
        h1 = hook_off[g + 1]
        while h < h1:
            line_addr = hook_line[h]
            unit = line_addr >> unit_shift
            owner = owner_memo.get(unit)
            if owner is None:
                owner = get_override(unit)
                if owner is None:
                    owner = _mix(unit) % num_shards
                owner_memo[unit] = owner
            if owner == shard_id:
                code_out(hook_code[h])
                line_out(line_addr)
                core_out(hook_core[h])
                aux_out(hook_aux[h])
                kept_hooks += 1
            h += 1
        new_off[j + 1] = kept_hooks
        pig_out[j] = pig[g]
        for s in range(sharer_off[g], sharer_off[g + 1]):
            s_line_out(sharer_line[s])
            s_flag_out(sharer_flag[s])
            kept_sharers += 1
        s_off_out[j + 1] = kept_sharers
    return out


# --------------------------------------------------------------- shard detect


def _detect_shard(
    cols: ColumnarTrace,
    tapes: dict,
    configs,
    unit_shift: int,
    overrides: dict[int, int],
    num_shards: int,
    shard_id: int,
    *,
    sync_only: bool = False,
) -> list[tuple]:
    """Run every config's batch kernel over one shard; plain-data results.

    Returns one ``(reports, stats, extra_cycles, cycles)`` tuple per
    config, where ``reports`` carry **global** sequence numbers (remapped
    through the shard's keep table) and stats is a plain dict — picklable,
    mergeable, and independent of worker scheduling.
    """
    from repro.harness.detectors import make_detector

    shard, keep = build_shard(
        cols, unit_shift, overrides, num_shards, shard_id, sync_only=sync_only
    )
    shard_tapes: dict = {}

    def tape_for(machine_config):
        tape = shard_tapes.get(machine_config)
        if tape is None:
            if sync_only:
                # No memory events -> no owned lines -> empty hook
                # stream; the zero tape is the exact slice.
                tape = MachineTape.empty(shard.n, machine_config)
            else:
                tape = build_shard_tape(
                    tapes[machine_config],
                    keep,
                    unit_shift,
                    overrides,
                    num_shards,
                    shard_id,
                )
            shard_tapes[machine_config] = tape
        return tape

    outcomes: list[tuple] = []
    for config in configs:
        result = walk_batch_core(make_detector(config).core(), shard, tape_for)
        reports = [
            (
                keep[r.seq],
                r.thread_id,
                r.addr,
                r.size,
                r.site,
                r.is_write,
                r.detail,
            )
            for r in result.reports
        ]
        outcomes.append(
            (
                reports,
                result.stats.snapshot(),
                result.detector_extra_cycles,
                result.cycles,
            )
        )
    return outcomes


def _merge_results(
    configs,
    names,
    machine_configs,
    tapes: dict,
    shard_outcomes: list[list[tuple]],
    baseline: list[tuple] | None,
    num_shards: int,
) -> list[DetectionResult]:
    """Losslessly reassemble per-shard outcomes into DetectionResults."""
    results: list[DetectionResult] = []
    for index in range(len(configs)):
        merged: Counter = Counter()
        all_reports: list[tuple] = []
        extra = 0
        cycles = 0
        for outcomes in shard_outcomes:
            reports, stats, shard_extra, shard_cycles = outcomes[index]
            all_reports.extend(reports)
            merged.update(stats)
            extra += shard_extra
            cycles += shard_cycles
        if baseline is not None and num_shards > 1:
            _, base_stats, base_extra, base_cycles = baseline[index]
            repeat = num_shards - 1
            for key, value in base_stats.items():
                merged[key] -= value * repeat
            extra -= base_extra * repeat
            cycles -= base_cycles * repeat
        machine_config = machine_configs[index]
        if machine_config is not None:
            tape = tapes[machine_config]
            merged.update(tape.machine_stats)
            merged.update(tape.bus_stats)
            cycles += tape.machine_cycles
        # Stable sort by global seq: every event lives in exactly one
        # shard, so intra-event report order (chunk order) is preserved.
        all_reports.sort(key=lambda entry: entry[0])
        log = RaceReportLog(names[index])
        for seq, thread_id, addr, size, site, is_write, detail in all_reports:
            log.add(
                seq=seq,
                thread_id=thread_id,
                addr=addr,
                size=size,
                site=site,
                is_write=is_write,
                detail=detail,
            )
        stats = StatCounters()
        stats._counts.update(merged)
        results.append(
            DetectionResult(
                detector=names[index],
                reports=log,
                stats=stats,
                cycles=cycles,
                detector_extra_cycles=extra,
            )
        )
    return results


# ------------------------------------------------------------- worker protocol


@dataclass(frozen=True)
class ShardSpec:
    """Everything a shard worker needs — paths and plain values only.

    No event data crosses the process boundary: workers ``mmap`` the
    columnar file and the tape files and read the shared pages directly.
    """

    cols_path: str
    tape_paths: tuple  # ((MachineConfig, path), ...)
    configs: tuple
    unit_shift: int
    num_shards: int


_SHARD_CTX = None

#: Process-lifetime spill directory for traces/tapes that have no cache
#: entry on disk; removed at interpreter exit.
_SPILL_DIR = None


def _spill_dir() -> Path:
    global _SPILL_DIR
    if _SPILL_DIR is None:
        _SPILL_DIR = Path(tempfile.mkdtemp(prefix="repro-shard-"))
        atexit.register(shutil.rmtree, _SPILL_DIR, ignore_errors=True)
    return _SPILL_DIR


def _map_file(path: str) -> mmap.mmap:
    with open(path, "rb") as fh:
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


def _shard_init(spec: ShardSpec) -> None:
    """Pool initializer: map the shared files, recompute the partition."""
    global _SHARD_CTX
    cols = ColumnarTrace.from_bytes(_map_file(spec.cols_path))
    tapes = {
        machine_config: MachineTape.from_bytes(_map_file(path), machine_config)
        for machine_config, path in spec.tape_paths
    }
    overrides = build_partition(cols, spec.unit_shift, spec.num_shards)
    _SHARD_CTX = (spec, cols, tapes, overrides)


def _shard_run(shard_id: int) -> tuple[int, list[tuple]]:
    """Evaluate one shard in this worker process."""
    ctx = _SHARD_CTX
    assert ctx is not None, "shard worker used before _shard_init"
    spec, cols, tapes, overrides = ctx
    outcomes = _detect_shard(
        cols,
        tapes,
        spec.configs,
        spec.unit_shift,
        overrides,
        spec.num_shards,
        shard_id,
    )
    return shard_id, outcomes


def _reset_shard_worker() -> None:
    """Release the serial path's context (mmaps close with it)."""
    global _SHARD_CTX
    if _SHARD_CTX is not None:
        _, cols, tapes, _ = _SHARD_CTX
        cols.close()
        for tape in tapes.values():
            tape.close()
    _SHARD_CTX = None


def _shared_paths(cols: ColumnarTrace, tapes: dict, tape_cache):
    """On-disk homes for the columns and tapes workers will mmap.

    Reuses the trace-cache file the columns were loaded from and the tape
    cache's entries when available; anything homeless spills to a
    process-lifetime temp directory (content-addressed, so repeated
    sessions over the same trace spill once).
    """
    from repro.common.fsio import atomic_write_bytes
    from repro.harness.tracecache import TapeCache

    cols_path = cols._source_path
    if cols_path is None or not Path(cols_path).exists():
        cols_path = _spill_dir() / f"cols_{cols.content_digest()}.cols"
        if not cols_path.exists():
            atomic_write_bytes(cols_path, cols.to_bytes())
        cols._source_path = cols_path

    spill_cache = None
    tape_paths = []
    for machine_config, tape in tapes.items():
        path = None
        if tape_cache is not None and tape_cache.enabled:
            path = tape_cache.path_for(cols, machine_config)
            if path is not None and not path.exists():
                tape_cache.store(cols, tape)
        if path is None or not path.exists():
            if spill_cache is None:
                spill_cache = TapeCache(_spill_dir())
            path = spill_cache.path_for(cols, machine_config)
            if not path.exists():
                spill_cache.store(cols, tape)
        tape_paths.append((machine_config, str(path)))
    return str(cols_path), tuple(tape_paths)


# ---------------------------------------------------------------- entry point


def run_sharded(
    cols: ColumnarTrace,
    configs,
    *,
    jobs: int = 1,
    shards: int | None = None,
    tape_cache=None,
    recorder=None,
) -> list[DetectionResult]:
    """Detect over ``cols`` with every config, sharded by address.

    Results are bit-for-bit identical to the scalar reference path (pinned
    by ``tests/engine/test_sharded_path.py``).  ``jobs`` bounds worker
    processes (1 = run every shard serially in-process, still exercising
    the full shard/merge machinery); ``shards`` defaults to ``jobs`` (or 2
    when serial).  ``tape_cache`` persists the machine tapes so reruns —
    and the workers — skip the simulator entirely.  A flight ``recorder``
    gets the parent's tape, baseline, fan-out and merge steps as frames.
    """
    from repro.harness.detectors import DetectorConfig, make_detector
    from repro.harness.parallel import fan_out

    configs = tuple(DetectorConfig.coerce(config) for config in configs)
    if not configs:
        raise EngineError("run_sharded needs at least one detector config")
    cores = [make_detector(config).core() for config in configs]
    jobs = max(1, int(jobs))
    if shards is None:
        shards = jobs if jobs > 1 else 2
    shards = max(1, int(shards))
    unit_shift = unit_shift_for(cores)
    names = [core.name for core in cores]
    machine_configs = [
        getattr(core, "machine_config", None) for core in cores
    ]
    del cores
    frame = recorder.frame if recorder is not None else nullcontext

    # Record (or cache-load) the real tapes once, in the parent.
    tapes: dict = {}
    for machine_config in machine_configs:
        if machine_config is not None and machine_config not in tapes:
            tapes[machine_config] = MachineTape.for_columns(
                cols, machine_config, cache=tape_cache, recorder=recorder
            )

    # The sync-only baseline the merge subtracts (shards - 1) times.
    with frame("baseline"):
        baseline = (
            _detect_shard(
                cols, tapes, configs, unit_shift, {}, 1, 0, sync_only=True
            )
            if shards > 1
            else None
        )

    shard_outcomes: list = [None] * shards
    with frame("fan_out"):
        if jobs > 1 and shards > 1:
            cols_path, tape_paths = _shared_paths(cols, tapes, tape_cache)
            spec = ShardSpec(
                cols_path=cols_path,
                tape_paths=tape_paths,
                configs=configs,
                unit_shift=unit_shift,
                num_shards=shards,
            )
            for shard_id, outcomes in fan_out(
                tuple(range(shards)),
                _shard_run,
                jobs=jobs,
                initializer=_shard_init,
                initargs=(spec,),
                serial_cleanup=_reset_shard_worker,
            ):
                shard_outcomes[shard_id] = outcomes
        else:
            overrides = build_partition(cols, unit_shift, shards)
            for shard_id in range(shards):
                shard_outcomes[shard_id] = _detect_shard(
                    cols, tapes, configs, unit_shift, overrides, shards, shard_id
                )

    with frame("merge"):
        return _merge_results(
            configs,
            names,
            machine_configs,
            tapes,
            shard_outcomes,
            baseline,
            shards,
        )
