"""Atomic file writes and the packed-array container of the binary caches.

Every durable artifact — cached verdicts, packed traces and tapes, run
reports, flamegraph dumps — goes through the same protocol: write
the full payload to a process-private temporary file in the destination
directory, then :func:`os.replace` it over the final name.  ``os.replace``
is atomic on POSIX (and on Windows within one volume), so a reader never
observes a truncated file.  A write or rename that raises unlinks its
``*.tmp`` and re-raises, leaving the previous complete version untouched;
only a writer killed outright leaves an orphaned ``*.tmp`` behind.

The temporary name carries the writer's pid, so concurrent processes racing
to produce the same artifact never interleave writes into one temp file;
the last rename wins with a complete payload either way.

The packed traces and machine tapes share one container,
:class:`PackedFormat`: a magic, a version, a JSON header and 8-byte-aligned
arrays that a load casts zero-copy out of an ``mmap`` (:func:`map_file`),
with one digest rule and one set of load checks for both.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import ProgramError


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


def map_file(path: str | Path) -> mmap.mmap:
    """A read-only ``mmap`` of the whole file at ``path``."""
    with open(path, "rb") as fh:
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


@dataclass(frozen=True)
class PackedFormat:
    """One versioned container of packed arrays (``.cols`` and ``.tape``).

    ``magic`` (8 bytes), ``<II>`` version and header length, a compact JSON
    header ``{"version", **meta, "columns": {name: [typecode, payload
    offset, byte length]}, "digest"}``, zero padding to 8 bytes, then the
    arrays in layout order, each 8-byte aligned (docs/trace_format.md).
    The digest is a 128-bit blake2b of the JSON of ``{"version", **meta}``
    followed by every array's raw bytes.  An *owner* holds one array (an
    ``array.array`` or a ``memoryview`` cast) per layout name, and a loaded
    owner's buffer as ``_buffer``.
    """

    what: str
    magic: bytes
    version: int
    #: ``(attribute, array typecode)`` of every array, in serialisation order.
    layout: tuple[tuple[str, str], ...]

    def digest(self, owner, meta: dict) -> str:
        """The content digest of ``meta`` and ``owner``'s arrays (zero-copy)."""
        h = hashlib.blake2b(_compact({"version": self.version, **meta}), digest_size=16)
        for name, _ in self.layout:
            h.update(getattr(owner, name))  # arrays and casts hash uncopied
        return h.hexdigest()

    def pack(self, owner, meta: dict, digest: str | None = None) -> bytes:
        """Serialise ``meta`` and ``owner``'s arrays; ``digest`` if precomputed."""
        parts: list = []
        columns: dict[str, list] = {}
        offset = 0
        for name, typecode in self.layout:
            column = getattr(owner, name)
            pad = -offset % 8
            nbytes = memoryview(column).nbytes
            parts += [bytes(pad), column]
            columns[name] = [typecode, offset + pad, nbytes]
            offset += pad + nbytes
        if digest is None:
            digest = self.digest(owner, meta)
        header = _compact(
            {"version": self.version, **meta, "columns": columns, "digest": digest}
        )
        prefix = self.magic + struct.pack("<II", self.version, len(header))
        pad = bytes(-(len(prefix) + len(header)) % 8)
        return b"".join([prefix, header, pad, *parts])

    def unpack(self, owner, buf) -> dict:
        """Bind ``owner``'s arrays to zero-copy casts into ``buf``.

        ``buf`` may be ``bytes`` or an ``mmap.mmap``.  Returns the header's
        meta fields and ``digest``, for the format's own checks and then
        :meth:`verify`.  Raises :class:`~repro.common.errors.ProgramError`
        on a bad magic, a wrong version, an array whose typecode is not the
        layout's, or an array that runs past the end of the buffer.
        """
        view = memoryview(buf)
        magic = self.magic
        if bytes(view[: len(magic)]) != magic:
            raise ProgramError(f"not a {self.what} buffer (bad magic)")
        version, header_len = struct.unpack_from("<II", view, len(magic))
        if version != self.version:
            raise ProgramError(
                f"unsupported {self.what} format version {version} "
                f"(expected {self.version})"
            )
        header_start = len(magic) + 8
        meta = json.loads(bytes(view[header_start : header_start + header_len]))
        payload_start = header_start + header_len
        payload_start += -payload_start % 8
        del meta["version"]
        columns = meta.pop("columns")
        for name, typecode in self.layout:
            code, offset, nbytes = columns[name]
            if code != typecode:
                raise ProgramError(
                    f"{self.what} array {name!r} typecode mismatch: "
                    f"{code!r} != {typecode!r}"
                )
            start = payload_start + offset
            if start + nbytes > len(view):
                raise ProgramError(
                    f"{self.what} array {name!r} runs past the end of the "
                    f"buffer ({start + nbytes} > {len(view)} bytes): "
                    "truncated entry"
                )
            setattr(owner, name, view[start : start + nbytes].cast(typecode))
        owner._buffer = buf
        return meta

    def verify(self, owner, meta: dict) -> str:
        """Pop ``meta``'s digest and check the content against it; returns it."""
        digest = meta.pop("digest", None)
        if self.digest(owner, meta) != digest:
            raise ProgramError(
                f"{self.what} content does not match its header digest: "
                "corrupt entry"
            )
        return digest

    def release(self, owner) -> None:
        """Release a loaded ``owner``'s views (they read ``()``) and close its buffer.

        Idempotent; in-memory (array-backed) owners are left as they are.
        """
        buf = owner._buffer
        if buf is None:
            return
        for name, _ in self.layout:
            column = getattr(owner, name, None)
            if isinstance(column, memoryview):
                column.release()
                setattr(owner, name, ())
        owner._buffer = None
        close = getattr(buf, "close", None)
        if close is not None:
            close()


def _compact(data: dict) -> bytes:
    return json.dumps(data, separators=(",", ":")).encode("utf-8")
