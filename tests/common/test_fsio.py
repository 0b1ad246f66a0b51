"""Tests for the shared atomic write protocol."""

from pathlib import Path

import pytest

from repro.common.fsio import atomic_write_bytes, atomic_write_text


class TestAtomicWriteText:
    def test_writes_content_and_returns_path(self, tmp_path):
        path = atomic_write_text(tmp_path / "out.txt", "hello\n")
        assert path.read_text() == "hello\n"

    def test_creates_parent_directories(self, tmp_path):
        path = atomic_write_text(tmp_path / "a" / "b" / "out.txt", "x")
        assert path.read_text() == "x"

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestAtomicWriteBytes:
    def test_writes_payload(self, tmp_path):
        path = atomic_write_bytes(tmp_path / "out.bin", b"\x00\x01")
        assert path.read_bytes() == b"\x00\x01"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write_bytes(tmp_path / "deep" / "out.bin", b"x")
        assert [p.name for p in (tmp_path / "deep").iterdir()] == ["out.bin"]


class TestFailedWrites:
    """A write or rename that raises leaves no temp file and the old entry."""

    @staticmethod
    def failing_replace(src, dst):
        raise OSError("replace failed")

    def test_failed_rename_unlinks_the_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.bin"
        atomic_write_bytes(target, b"old")
        monkeypatch.setattr("repro.common.fsio.os.replace", self.failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            atomic_write_bytes(target, b"new")
        with pytest.raises(OSError, match="replace failed"):
            atomic_write_text(target, "new")
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
        assert target.read_bytes() == b"old"

    def test_failed_write_unlinks_the_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "old")

        def failing_write(self, *args, **kwargs):
            Path.write_bytes(self, b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", failing_write)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(target, "new")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert target.read_bytes() == b"old"
