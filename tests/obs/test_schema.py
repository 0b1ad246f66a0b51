"""Schema validation, including the detector → JSONL → validator round trip."""

import pytest

from repro.common.config import CacheConfig, HardConfig, MachineConfig
from repro.common.errors import ConfigError
from repro.common.events import Site, Trace, barrier, lock, read, unlock, write
from repro.core.detector import HardDetector
from repro.engine import EngineSession
from repro.obs import JsonlEmitter, Observability, ObsSchemaError, validate_event, validate_jsonl
from repro.reporting import run_core

S = [Site("t.c", i, f"s{i}") for i in range(10)]
LOCK_A = 0x1000
VAR_X = 0x20000


class TestValidateEvent:
    def test_valid_event(self):
        assert validate_event({"type": "candidate.broadcast", "bits": 16}) == []

    def test_directory_metadata_update_is_valid(self):
        # The directory fabric's point-to-point counterpart of the Figure 6
        # broadcast (MetaCostModel.update_event).
        assert validate_event({"type": "metadata.update", "bits": 18}) == []
        assert validate_event({"type": "metadata.update"}) != []

    def test_non_object(self):
        assert validate_event([1, 2]) != []

    def test_missing_type(self):
        assert validate_event({"bits": 16}) != []

    def test_unknown_type(self):
        problems = validate_event({"type": "no.such.event"})
        assert "unknown event type" in problems[0]

    def test_missing_required_field(self):
        problems = validate_event({"type": "barrier.reset", "barrier": 1})
        assert any("copies" in p for p in problems)

    def test_bad_timestamp(self):
        problems = validate_event(
            {"type": "candidate.broadcast", "bits": 16, "t": "later"}
        )
        assert any("timestamp" in p for p in problems)


class TestValidateJsonl:
    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"\n')
        with pytest.raises(ObsSchemaError, match="invalid JSON"):
            validate_jsonl(path)

    def test_rejects_schema_violation(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "alarm"}\n')
        with pytest.raises(ObsSchemaError, match="missing required field"):
            validate_jsonl(path)

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        path.write_text('{"type": "candidate.broadcast", "bits": 4}\n\n')
        assert validate_jsonl(path)["candidate.broadcast"] == 1


class TestDetectorRoundTrip:
    """A real traced HARD run must produce a fully schema-valid file."""

    def _racy_trace(self) -> Trace:
        trace = Trace(num_threads=4)
        events = []
        for tid in (0, 1):
            events += [
                (tid, lock(LOCK_A, S[0])),
                (tid, write(VAR_X, S[1])),
                (tid, unlock(LOCK_A, S[2])),
            ]
        events += [
            (0, write(VAR_X, S[3])),  # unprotected: must alarm
            (1, read(VAR_X, S[4])),
            (0, barrier(1, 2, S[5])),
            (1, barrier(1, 2, S[5])),
        ]
        for thread_id, op in events:
            trace.append(thread_id, op)
        return trace

    def test_traced_run_validates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        machine = MachineConfig(
            num_cores=4,
            l1=CacheConfig(1024, 2, 32, 3),
            l2=CacheConfig(8 * 1024, 4, 32, 10),
        )
        obs = Observability(emitter=JsonlEmitter.to_path(path))
        session = EngineSession(self._racy_trace(), obs=obs)
        session.add(HardDetector(machine, HardConfig()))
        [result] = session.run()
        obs.close()
        counts = validate_jsonl(path)
        assert result.reports.alarm_count > 0
        assert counts["alarm"] == result.reports.dynamic_count
        assert counts["lstate.transition"] > 0
        assert counts["barrier.reset"] == 1
        # Emitter bookkeeping and file contents must agree.
        assert sum(counts.values()) == obs.emitter.total

    def test_scalar_run_core_refuses_an_emitter(self, tmp_path):
        # The scalar walk emits nothing; it says so instead of dropping
        # the events.
        obs = Observability(emitter=JsonlEmitter.to_path(tmp_path / "e.jsonl"))
        with pytest.raises(ConfigError, match="batch walk"):
            run_core(HardDetector().core(), self._racy_trace(), obs=obs)
        obs.close()
