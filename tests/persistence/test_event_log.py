"""Tests for the segmented, append-only EventLog (recovery included)."""

import os

import pytest

from repro.persistence import EventLog, inspect_log


def segment_files(directory):
    return sorted(name for name in os.listdir(directory)
                  if name.endswith(".seg"))


def fill(log, count, payload=b"payload-bytes", origin="pub"):
    return [log.append(payload, origin=origin) for _ in range(count)]


class TestAppendRead:
    def test_offsets_are_monotonic_and_contiguous(self, tmp_path):
        log = EventLog(str(tmp_path))
        assert fill(log, 5) == list(range(5))
        assert log.next_offset == 5
        assert log.first_offset == 0
        assert log.record_count == 5
        log.close()

    def test_read_returns_payload_and_origin(self, tmp_path):
        log = EventLog(str(tmp_path))
        log.append(b"first", origin="alice")
        log.append(b"second", origin="bob")
        record = log.read(1)
        assert record.offset == 1
        assert record.origin == "bob"
        assert record.payload == b"second"
        log.close()

    def test_read_missing_offset_raises(self, tmp_path):
        log = EventLog(str(tmp_path))
        log.append(b"x")
        with pytest.raises(KeyError):
            log.read(7)
        log.close()

    def test_replay_range_and_order(self, tmp_path):
        log = EventLog(str(tmp_path))
        fill(log, 10)
        assert [r.offset for r in log.replay()] == list(range(10))
        assert [r.offset for r in log.replay(4)] == list(range(4, 10))
        assert [r.offset for r in log.replay(4, 7)] == [4, 5, 6]
        log.close()

    def test_replay_snapshots_end_at_call_time(self, tmp_path):
        log = EventLog(str(tmp_path))
        fill(log, 3)
        seen = []
        for record in log.replay():
            seen.append(record.offset)
            log.append(b"during-iteration")
        assert seen == [0, 1, 2]
        log.close()

    def test_empty_origin_allowed(self, tmp_path):
        log = EventLog(str(tmp_path))
        log.append(b"anonymous")
        assert log.read(0).origin == ""
        log.close()


class TestSegmentsAndRetention:
    def test_rotation_by_size(self, tmp_path):
        log = EventLog(str(tmp_path), segment_max_bytes=120)
        fill(log, 6, payload=b"x" * 40)  # ~68-byte records: 1 per segment
        assert len(segment_files(str(tmp_path))) >= 3
        assert [r.offset for r in log.replay()] == list(range(6))
        log.close()

    def test_oversized_record_still_written(self, tmp_path):
        log = EventLog(str(tmp_path), segment_max_bytes=50)
        log.append(b"y" * 500)
        assert log.read(0).payload == b"y" * 500
        log.close()

    def test_retention_max_segments_drops_from_front(self, tmp_path):
        log = EventLog(str(tmp_path), segment_max_bytes=120, max_segments=2)
        fill(log, 10, payload=b"x" * 40)
        assert len(segment_files(str(tmp_path))) <= 2
        assert log.first_offset > 0
        assert log.next_offset == 10
        # Replay from 0 transparently starts at the oldest retained record.
        offsets = [r.offset for r in log.replay(0)]
        assert offsets == list(range(log.first_offset, 10))
        assert log.retention_dropped_records == 10 - len(offsets)
        log.close()

    def test_retention_max_bytes(self, tmp_path):
        log = EventLog(str(tmp_path), segment_max_bytes=120, max_bytes=300)
        fill(log, 20, payload=b"x" * 40)
        assert log.size_bytes <= 300
        assert log.next_offset == 20
        log.close()

    def test_active_segment_never_dropped(self, tmp_path):
        log = EventLog(str(tmp_path), segment_max_bytes=10_000, max_bytes=1)
        fill(log, 3)
        # Everything lives in one (active) segment: retention cannot fire.
        assert log.record_count == 3
        log.close()


class TestReopen:
    def test_reopen_preserves_records_and_offsets(self, tmp_path):
        log = EventLog(str(tmp_path), segment_max_bytes=120)
        fill(log, 7, payload=b"x" * 40)
        log.close()
        reopened = EventLog(str(tmp_path), segment_max_bytes=120)
        assert reopened.next_offset == 7
        assert [r.offset for r in reopened.replay()] == list(range(7))
        assert reopened.append(b"more") == 7
        reopened.close()

    def test_reopen_empty_directory(self, tmp_path):
        log = EventLog(str(tmp_path))
        assert log.next_offset == 0
        assert list(log.replay()) == []
        log.close()


class TestRecovery:
    def test_torn_final_record_truncated(self, tmp_path):
        """Crash mid-append: the half-written record is dropped, every
        prior record replays intact (acceptance criterion)."""
        log = EventLog(str(tmp_path))
        fill(log, 5, payload=b"x" * 64)
        log.close()
        path = os.path.join(str(tmp_path), segment_files(str(tmp_path))[-1])
        with open(path, "r+b") as handle:
            handle.seek(0, 2)
            handle.truncate(handle.tell() - 10)
        recovered = EventLog(str(tmp_path))
        assert recovered.torn_tail_truncations == 1
        assert recovered.next_offset == 4
        assert [r.offset for r in recovered.replay()] == [0, 1, 2, 3]
        # The log accepts new appends right where the tear was cut.
        assert recovered.append(b"fresh") == 4
        recovered.close()

    def test_corrupted_crc_truncated(self, tmp_path):
        log = EventLog(str(tmp_path))
        fill(log, 3, payload=b"x" * 64)
        log.close()
        path = os.path.join(str(tmp_path), segment_files(str(tmp_path))[-1])
        with open(path, "r+b") as handle:
            handle.seek(-5, 2)  # flip a byte inside the last record's payload
            byte = handle.read(1)
            handle.seek(-5, 2)
            handle.write(bytes([byte[0] ^ 0xFF]))
        recovered = EventLog(str(tmp_path))
        assert recovered.torn_tail_truncations == 1
        assert recovered.next_offset == 2
        assert [r.payload for r in recovered.replay()] == [b"x" * 64] * 2
        recovered.close()

    def test_corruption_drops_unreachable_later_segments(self, tmp_path):
        """A tear in a middle segment cuts the log there: records past it
        could skip offsets, so they are dropped, not replayed with gaps."""
        log = EventLog(str(tmp_path), segment_max_bytes=120)
        fill(log, 6, payload=b"x" * 40)
        log.close()
        names = segment_files(str(tmp_path))
        assert len(names) >= 3
        middle = os.path.join(str(tmp_path), names[1])
        with open(middle, "r+b") as handle:
            handle.seek(10)
            handle.write(b"\xde\xad\xbe\xef")
        recovered = EventLog(str(tmp_path), segment_max_bytes=120)
        offsets = [r.offset for r in recovered.replay()]
        assert offsets == list(range(offsets[-1] + 1)) if offsets else True
        assert recovered.next_offset == (offsets[-1] + 1 if offsets else 0)
        assert recovered.dropped_segments > 0
        recovered.close()

    def test_recovery_is_idempotent(self, tmp_path):
        log = EventLog(str(tmp_path))
        fill(log, 4, payload=b"x" * 64)
        log.close()
        path = os.path.join(str(tmp_path), segment_files(str(tmp_path))[-1])
        with open(path, "r+b") as handle:
            handle.seek(0, 2)
            handle.truncate(handle.tell() - 1)
        first = EventLog(str(tmp_path))
        first.close()
        second = EventLog(str(tmp_path))
        assert second.torn_tail_truncations == 0  # already repaired
        assert second.next_offset == 3
        second.close()


class TestInspect:
    def test_inspect_matches_log_state(self, tmp_path):
        log = EventLog(str(tmp_path), segment_max_bytes=120)
        fill(log, 6, payload=b"x" * 40)
        info = inspect_log(str(tmp_path))
        assert info["records"] == 6
        assert info["first_offset"] == 0
        assert info["next_offset"] == 6
        assert info["segment_count"] == len(segment_files(str(tmp_path)))
        assert info["torn_segments"] == 0
        log.close()

    def test_inspect_reports_tear_without_mutating(self, tmp_path):
        log = EventLog(str(tmp_path))
        fill(log, 3, payload=b"x" * 64)
        log.close()
        path = os.path.join(str(tmp_path), segment_files(str(tmp_path))[-1])
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 4)
        info = inspect_log(str(tmp_path))
        assert info["torn_segments"] == 1
        assert info["records"] == 2
        assert os.path.getsize(path) == size - 4  # inspect never repairs

    def test_inspect_missing_directory(self, tmp_path):
        info = inspect_log(str(tmp_path / "nope"))
        assert info["records"] == 0
        assert info["segment_count"] == 0


class TestStats:
    def test_stats_surface(self, tmp_path):
        log = EventLog(str(tmp_path), segment_max_bytes=120, max_segments=3)
        fill(log, 8, payload=b"x" * 40)
        stats = log.stats()
        assert stats["appended"] == 8
        assert stats["records"] == log.record_count
        assert stats["next_offset"] == 8
        assert stats["segments"] <= 3
        log.close()


class TestOffsetMonotonicityAcrossTotalLoss:
    def test_next_offset_survives_when_no_record_survives(self, tmp_path):
        """Retention + a torn sole record can leave zero salvageable
        records; the reborn log must continue from the segment file's
        base offset, never reset to 0 (persisted cursors hold high
        offsets)."""
        log = EventLog(str(tmp_path), segment_max_bytes=120, max_segments=1)
        fill(log, 9, payload=b"x" * 40)  # retention leaves the last segment
        base = log.first_offset
        assert base > 0
        log.close()
        # Tear every record in the surviving segment.
        path = os.path.join(str(tmp_path), segment_files(str(tmp_path))[-1])
        with open(path, "r+b") as handle:
            handle.seek(2)
            handle.write(b"\x00\x00\x00\x00")
        recovered = EventLog(str(tmp_path), segment_max_bytes=120)
        assert recovered.record_count == 0
        assert recovered.next_offset == base  # not 0
        assert recovered.append(b"fresh") == base
        recovered.close()


class TestAppendAt:
    """Idempotent at-offset appends — the replica-log write path."""

    def test_append_at_explicit_offsets(self, tmp_path):
        log = EventLog(str(tmp_path))
        assert log.append_at(0, b"a") == 0
        assert log.append_at(1, b"b") == 1
        assert log.next_offset == 2
        assert [r.payload for r in log.replay()] == [b"a", b"b"]
        log.close()

    def test_below_high_water_is_skipped(self, tmp_path):
        log = EventLog(str(tmp_path))
        log.append_at(0, b"a")
        log.append_at(1, b"b")
        assert log.append_at(0, b"dup") is None
        assert log.append_at(1, b"dup") is None
        assert log.duplicate_appends == 2
        assert [r.payload for r in log.replay()] == [b"a", b"b"]
        assert log.stats()["duplicate_appends"] == 2
        log.close()

    def test_holes_are_legal_and_survive_reopen(self, tmp_path):
        """Origin-side compaction holes reach followers as offset gaps;
        the recovery scan (which tolerates compaction holes) must accept
        them."""
        log = EventLog(str(tmp_path))
        log.append_at(0, b"a")
        log.append_at(4, b"b", origin="p")
        assert log.next_offset == 5
        log.close()
        reopened = EventLog(str(tmp_path))
        assert [r.offset for r in reopened.replay()] == [0, 4]
        assert reopened.read(4).origin == "p"
        assert reopened.next_offset == 5
        reopened.close()

    def test_append_at_interleaves_with_append(self, tmp_path):
        log = EventLog(str(tmp_path))
        log.append(b"a")                 # offset 0
        assert log.append_at(3, b"b") == 3
        assert log.append(b"c") == 4     # continues after the jump
        assert [r.offset for r in log.replay()] == [0, 3, 4]
        log.close()
