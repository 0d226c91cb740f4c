"""Segmented, append-only durable event log.

The TPS brokers of the paper deliver events only to subscribers connected
at publish time; a late joiner or a restarted broker silently misses every
prior event.  The :class:`EventLog` is the persistence layer that removes
that limitation: brokers append every admitted event batch *before*
fan-out, and replay the retained backlog to durable subscribers through
the ordinary conformance-checked routing path.

On-disk format — one directory of segment files, each a sequence of
records.  A record is an ``RBS2B`` batch envelope (the PR-2 wire unit,
reused verbatim as the storage unit) prefixed by a fixed header::

    magic    4 bytes   b"ELR1"
    length   u32 BE    payload byte count
    crc32    u32 BE    CRC-32 over offset + origin + payload
    offset   u64 BE    monotonic record offset (contiguous across segments)
    orig_len u16 BE    origin byte count
    origin   orig_len  UTF-8 peer id the batch was first published by
    payload  length    the batch envelope bytes

Segments are named by the base offset of their first record and rotate at
``segment_max_bytes``.  Retention (``max_segments`` / ``max_bytes``) drops
whole segments from the front — never the active one, and never past the
**retention floor** (:meth:`EventLog.set_retention_floor`): with a floor
set, a segment holding records at/above it — records a durable subscriber
has not acknowledged — is pinned instead of dropped.

**Key-aware compaction** (:meth:`EventLog.compact`) rewrites old segments
keeping only the latest record per compaction key (the per-value
``(type fingerprint, entity key)`` pairs the batch envelopes carry), so a
long-retention log holds latest-state instead of raw history.  Offsets
are never renumbered: compaction leaves *holes*, and both the recovery
scan and :meth:`EventLog.replay` require offsets to be strictly
increasing rather than contiguous.

Opening a log runs a **recovery scan**: every record's magic, length, CRC
and offset monotonicity are verified; the first torn or corrupt record
truncates its segment there (and drops any later segments, which could
only hold unreachable offsets).  A crash mid-append therefore costs at
most the record being written — everything before it replays intact.

Durability model: appends ``flush()`` to the operating system — a
*process* crash loses nothing.  Group-commit fsync (``fsync_every_n`` /
``fsync_interval_ms``) extends the guarantee to OS/power failure without
per-record fsync cost: the file is fsynced once every N appends or T
milliseconds, whichever comes first, and always at :meth:`EventLog.close`.
Without it, a power failure may lose page-cache-resident tail records
(the recovery scan then truncates cleanly and at-least-once replay
resumes from the persisted cursors).  Under either model, rotation and
:meth:`EventLog.sync` fsync any unsynced appends, a new segment's
directory entry is fsynced, and compaction replaces segments through
:func:`~repro.persistence.fsio.atomic_write`.  :attr:`EventLog.on_fsync`
runs after every fsync of the active segment — the hook the broker uses
to group-commit its cursor journal with the log.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .fsio import atomic_write, fsync_dir

_RECORD_MAGIC = b"ELR1"
_HEADER = struct.Struct(">4sIIQH")  # magic, length, crc32, offset, origin length
_SEGMENT_SUFFIX = ".seg"
_SEGMENT_NAME = "%020d" + _SEGMENT_SUFFIX

#: Appends between retention-triggered compaction passes (a full-log key
#: scan must not run on every pinned append).
_RETENTION_COMPACT_INTERVAL = 256


def _default_key_of(record: "LogRecord") -> Optional[List[Optional[str]]]:
    """Per-value compaction keys of one stored record: read straight off
    the batch envelope's ``keys`` attribute (no payload decode, no type
    knowledge — an offline ``repro log compact`` works on logs the tool
    cannot materialize).  ``None`` marks the record unkeyed: retained."""
    from ..serialization.envelope import envelope_record_keys
    return envelope_record_keys(record.payload)


class LogCorruptionError(Exception):
    """A segment failed validation in a way recovery refuses to repair."""


class LogRecord:
    """One appended batch: its monotonic offset, origin peer and payload."""

    __slots__ = ("offset", "origin", "payload")

    def __init__(self, offset: int, origin: str, payload: bytes):
        self.offset = offset
        self.origin = origin
        self.payload = payload

    def __repr__(self) -> str:
        return "LogRecord(#%d from %r, %d bytes)" % (
            self.offset, self.origin, len(self.payload),
        )


class _Segment:
    """Bookkeeping for one on-disk segment file."""

    __slots__ = ("path", "base_offset", "size", "offsets")

    def __init__(self, path: str, base_offset: int):
        self.path = path
        self.base_offset = base_offset
        self.size = 0
        #: record offset -> byte position of its header in the file.
        self.offsets: Dict[int, int] = {}

    @property
    def record_count(self) -> int:
        return len(self.offsets)


def _encode_record_prefix(offset: int, origin_bytes: bytes, payload) -> bytes:
    """Header + origin prefix of one record.  The payload (any buffer —
    CRC-32 accepts a ``memoryview``) is written separately, straight from
    the caller's view, so appending a sliced frame never concatenates an
    intermediate ``bytes`` copy."""
    crc = zlib.crc32(struct.pack(">Q", offset))
    crc = zlib.crc32(origin_bytes, crc)
    crc = zlib.crc32(payload, crc)
    header = _HEADER.pack(_RECORD_MAGIC, len(payload), crc & 0xFFFFFFFF,
                          offset, len(origin_bytes))
    return header + origin_bytes


def _read_record_at(data: bytes, position: int) -> Optional[Tuple[LogRecord, int]]:
    """Decode the record at ``position``; ``None`` marks a torn/corrupt tail.

    Returns ``(record, end_position)`` when the record is intact.  Any
    defect — short header, bad magic, short body, CRC mismatch — is a tear
    by definition: this decoder is only ever pointed at positions a
    previous successful append wrote to.
    """
    end_header = position + _HEADER.size
    if end_header > len(data):
        return None
    magic, length, crc, offset, origin_len = _HEADER.unpack_from(data, position)
    if magic != _RECORD_MAGIC:
        return None
    end = end_header + origin_len + length
    if end > len(data):
        return None
    origin_bytes = data[end_header:end_header + origin_len]
    payload = data[end_header + origin_len:end]
    expected = zlib.crc32(struct.pack(">Q", offset))
    expected = zlib.crc32(origin_bytes, expected)
    expected = zlib.crc32(payload, expected) & 0xFFFFFFFF
    if crc != expected:
        return None
    try:
        origin = origin_bytes.decode("utf-8")
    except UnicodeDecodeError:
        return None
    return LogRecord(offset, origin, payload), end


def _scan_segment(path: str, expected_offset: Optional[int]) -> Tuple[
        List[Tuple[int, int]], int, bool]:
    """Validate one segment file without modifying it.

    Returns ``(records, valid_end, torn)`` where ``records`` is a list of
    ``(offset, position)`` pairs for every intact record, ``valid_end`` is
    the byte position after the last intact record, and ``torn`` reports
    whether trailing bytes failed validation.  ``expected_offset`` (when
    not ``None``) additionally enforces offset monotonicity — a record
    whose offset goes backwards counts as a tear.  (Gaps are legal:
    key-aware compaction leaves holes where superseded records were.)
    """
    with open(path, "rb") as handle:
        data = handle.read()
    records: List[Tuple[int, int]] = []
    position = 0
    while position < len(data):
        decoded = _read_record_at(data, position)
        if decoded is None:
            return records, position, True
        record, end = decoded
        if expected_offset is not None and record.offset < expected_offset:
            return records, position, True
        expected_offset = record.offset + 1
        records.append((record.offset, position))
        position = end
    return records, position, False


def inspect_log(directory: str) -> Dict[str, object]:
    """Non-mutating scan of a log directory (the ``log inspect`` CLI).

    Unlike opening an :class:`EventLog`, nothing is truncated or deleted —
    torn tails are reported, not repaired.
    """
    segments = []
    total_records = 0
    total_bytes = 0
    first_offset: Optional[int] = None
    next_offset: Optional[int] = None
    torn_segments = 0
    if os.path.isdir(directory):
        names = sorted(name for name in os.listdir(directory)
                       if name.endswith(_SEGMENT_SUFFIX))
    else:
        names = []
    expected: Optional[int] = None
    for name in names:
        path = os.path.join(directory, name)
        records, valid_end, torn = _scan_segment(path, expected)
        file_size = os.path.getsize(path)
        segments.append({
            "file": name,
            "records": len(records),
            "first_offset": records[0][0] if records else None,
            "valid_bytes": valid_end,
            "file_bytes": file_size,
            "torn": torn,
        })
        total_records += len(records)
        total_bytes += valid_end
        if records:
            if first_offset is None:
                first_offset = records[0][0]
            next_offset = records[-1][0] + 1
            expected = next_offset
        if torn:
            torn_segments += 1
            break  # later segments are unreachable past a tear
    return {
        "directory": directory,
        "segments": segments,
        "segment_count": len(segments),
        "records": total_records,
        "bytes": total_bytes,
        "first_offset": first_offset if first_offset is not None else 0,
        "next_offset": next_offset if next_offset is not None else 0,
        "torn_segments": torn_segments,
    }


class EventLog:
    """Durable, segmented, append-only record log with offset replay.

    The log keeps its active segment open until :meth:`close`; it is a
    context manager.

    Parameters
    ----------
    directory:
        Where segment files live; created if missing.  Opening runs the
        recovery scan (torn tails are truncated in place).
    segment_max_bytes:
        Rotation threshold: a record that would push the active segment
        past this size starts a new segment (a single oversized record
        still gets written — segments hold at least one record).
    max_segments / max_bytes:
        Retention policies, enforced after each append by dropping whole
        segments from the front (the active segment is never dropped,
        and neither is a segment pinned by the retention floor).
    fsync_every_n / fsync_interval_ms:
        Group-commit fsync: the active segment is fsynced once every N
        appends or T milliseconds (whichever comes first), and always at
        rotation and :meth:`close` — power-loss durability without
        per-record fsync cost.  Both ``None`` (the default) keeps the
        flush-only (process-crash durable) model, where only rotation and
        an explicit :meth:`sync` fsync.
    compact_on_retention:
        When retention is over budget but the victim segment is pinned by
        the retention floor, run a key-aware :meth:`compact` pass (bounded
        by the floor) to reclaim space instead — rate-limited to at most
        one pass per :data:`_RETENTION_COMPACT_INTERVAL` appends.
    """

    def __init__(self, directory: str, segment_max_bytes: int = 1 << 20,
                 max_segments: Optional[int] = None,
                 max_bytes: Optional[int] = None,
                 fsync_every_n: Optional[int] = None,
                 fsync_interval_ms: Optional[float] = None,
                 compact_on_retention: bool = False):
        if segment_max_bytes <= 0:
            raise ValueError("segment_max_bytes must be positive")
        if max_segments is not None and max_segments < 1:
            raise ValueError("max_segments must keep at least one segment")
        if fsync_every_n is not None and fsync_every_n < 1:
            raise ValueError("fsync_every_n must be at least 1")
        if fsync_interval_ms is not None and fsync_interval_ms < 0:
            raise ValueError("fsync_interval_ms must be non-negative")
        self.directory = directory
        self.segment_max_bytes = segment_max_bytes
        self.max_segments = max_segments
        self.max_bytes = max_bytes
        self.fsync_every_n = fsync_every_n
        self.fsync_interval_ms = fsync_interval_ms
        self.compact_on_retention = compact_on_retention
        self.appended = 0
        self.duplicate_appends = 0
        self.torn_tail_truncations = 0
        self.dropped_segments = 0
        self.retention_dropped_records = 0
        #: Records at/above this offset are pinned: retention will not
        #: drop (and compaction will not rewrite) them.  ``None`` = no pin.
        self.retention_floor: Optional[int] = None
        self.retention_pinned = 0
        self.fsyncs = 0
        self.compactions = 0
        self.compacted_records = 0
        self.compacted_bytes = 0
        self._unsynced_appends = 0
        self._last_fsync_s = time.monotonic()
        #: Called after every fsync of the active segment.
        self.on_fsync: Optional[Callable[[], None]] = None
        self._compact_gate = 0  # appends at the last retention-compact pass
        self._segments: List[_Segment] = []
        self._index: Dict[int, _Segment] = {}  # offset -> owning segment
        self.next_offset = 0
        self._active_handle = None
        os.makedirs(directory, exist_ok=True)
        self._recover()

    # -- recovery ----------------------------------------------------------

    def _recover(self) -> None:
        names = sorted(name for name in os.listdir(self.directory)
                       if name.endswith(_SEGMENT_SUFFIX))
        expected: Optional[int] = None
        for position, name in enumerate(names):
            path = os.path.join(self.directory, name)
            try:
                base_from_name = int(name[: -len(_SEGMENT_SUFFIX)])
            except ValueError:
                base_from_name = None  # foreign file matching the suffix
            records, valid_end, torn = _scan_segment(path, expected)
            segment = _Segment(path, records[0][0] if records else
                               (expected if expected is not None else 0))
            for offset, record_position in records:
                segment.offsets[offset] = record_position
                self._index[offset] = segment
            segment.size = valid_end
            if torn:
                self.torn_tail_truncations += 1
                with open(path, "r+b") as handle:
                    handle.truncate(valid_end)
            if records or not torn:
                self._segments.append(segment)
            else:
                # Nothing salvageable in this segment at all.
                os.remove(path)
            if records:
                expected = records[-1][0] + 1
            elif expected is None and base_from_name is not None:
                # No record survived anywhere yet, but the file name
                # encodes the base offset this segment started at: keep
                # the counter monotonic so persisted cursors (which may
                # hold high offsets) never outrun a reborn log.
                expected = base_from_name
            if torn:
                # Records past a tear could only repeat or skip offsets;
                # drop the unreachable remainder of the log.
                for stale in names[position + 1:]:
                    os.remove(os.path.join(self.directory, stale))
                    self.dropped_segments += 1
                break
        if expected is not None:
            self.next_offset = expected
        elif self._segments:
            self.next_offset = self._segments[-1].base_offset
        # Empty segment files are not tracked: the next append recreates
        # (and truncates) the file named by next_offset as needed.
        self._segments = [segment for segment in self._segments
                          if segment.record_count]

    # -- appending ---------------------------------------------------------

    @property
    def first_offset(self) -> int:
        for segment in self._segments:
            if segment.record_count:
                return min(segment.offsets)
        return self.next_offset

    @property
    def record_count(self) -> int:
        return len(self._index)

    @property
    def size_bytes(self) -> int:
        return sum(segment.size for segment in self._segments)

    def append(self, payload, origin: str = "") -> int:
        """Durably append one record (``payload`` is any bytes-like
        buffer, including a ``memoryview``); returns its monotonic
        offset."""
        return self._append_record(self.next_offset, payload, origin)

    def append_at(self, offset: int, payload,
                  origin: str = "") -> Optional[int]:
        """Idempotently append one record at an *explicit* offset.

        The write path of replication followers and recovery catch-up: a
        replica log stores another shard's records at the origin's own
        offsets, and a re-sent batch (a lost ``replicate_ack``, an
        at-least-once resend) must be absorbed, not duplicated.  An offset
        below :attr:`next_offset` — the per-origin high-water mark — was
        already applied (or deliberately skipped by origin-side
        compaction) and is dropped; returns ``None`` for such a skip and
        the offset for a real append.  Offsets ahead of ``next_offset``
        leave a hole, exactly like compaction does — callers that need
        gap-free replicas (the replicate handler) must reject
        non-contiguous batches *before* applying them.
        """
        if offset < self.next_offset:
            self.duplicate_appends += 1
            return None
        return self._append_record(offset, payload, origin)

    def _append_record(self, offset: int, payload, origin: str) -> int:
        prefix = _encode_record_prefix(offset, origin.encode("utf-8"), payload)
        record_size = len(prefix) + len(payload)
        segment = self._writable_segment(record_size)
        handle = self._handle_for_append(segment)
        position = segment.size
        # Two writes: the payload goes to the file straight from the
        # caller's buffer (possibly a memoryview slice of a received
        # frame) — no intermediate header+payload concatenation.
        handle.write(prefix)
        handle.write(payload)
        handle.flush()
        segment.offsets[offset] = position
        segment.size += record_size
        self._index[offset] = segment
        self.next_offset = offset + 1
        self.appended += 1
        self._maybe_fsync(handle)
        self._apply_retention()
        return offset

    def _maybe_fsync(self, handle) -> None:
        """Group commit: fsync once every N appends / T ms, not per record."""
        self._unsynced_appends += 1
        if not self._group_commit:
            return
        due = (self.fsync_every_n is not None
               and self._unsynced_appends >= self.fsync_every_n)
        if not due and self.fsync_interval_ms is not None:
            due = (time.monotonic() - self._last_fsync_s) * 1000.0 \
                >= self.fsync_interval_ms
        if due:
            self._fsync_handle(handle)

    @property
    def _group_commit(self) -> bool:
        return self.fsync_every_n is not None \
            or self.fsync_interval_ms is not None

    def _fsync_handle(self, handle) -> None:
        handle.flush()
        os.fsync(handle.fileno())
        self.fsyncs += 1
        self._unsynced_appends = 0
        self._last_fsync_s = time.monotonic()
        if self.on_fsync is not None:
            self.on_fsync()

    def sync(self) -> None:
        """Force-fsync any unsynced tail appends, under either durability
        model (the barrier before a cursor checkpoint, or a clean
        shutdown)."""
        if self._active_handle is not None and self._unsynced_appends:
            self._fsync_handle(self._active_handle)

    def _writable_segment(self, record_size: int) -> _Segment:
        if self._segments:
            active = self._segments[-1]
            if active.size + record_size <= self.segment_max_bytes \
                    or not active.record_count:
                return active
        return self._start_segment()

    def _start_segment(self) -> _Segment:
        if self._active_handle is not None:
            if self._unsynced_appends:
                # Rotation is a group-commit barrier: a closed segment
                # never holds unsynced appends.
                self._fsync_handle(self._active_handle)
            self._active_handle.close()
            self._active_handle = None
        path = os.path.join(self.directory, _SEGMENT_NAME % self.next_offset)
        segment = _Segment(path, self.next_offset)
        with open(path, "wb"):
            pass  # the segment exists even before its first record lands
        fsync_dir(self.directory)
        self._segments.append(segment)
        return segment

    def _handle_for_append(self, segment: _Segment):
        if self._active_handle is None or self._active_handle.name != segment.path:
            if self._active_handle is not None:
                self._active_handle.close()
            self._active_handle = open(segment.path, "ab")
        return self._active_handle

    def set_retention_floor(self, offset: Optional[int]) -> None:
        """Pin records at/above ``offset`` (the slowest durable cursor):
        retention will not drop a segment holding any of them, and
        compaction will not rewrite them.  ``None`` removes the pin."""
        self.retention_floor = offset

    def _apply_retention(self) -> None:
        while len(self._segments) > 1:
            over_segments = (self.max_segments is not None
                             and len(self._segments) > self.max_segments)
            over_bytes = (self.max_bytes is not None
                          and self.size_bytes > self.max_bytes)
            if not (over_segments or over_bytes):
                return
            victim = self._segments[0]
            if self.retention_floor is not None and victim.offsets \
                    and max(victim.offsets) >= self.retention_floor:
                # The slowest durable cursor still needs this segment:
                # pinned, not dropped.  Key-aware compaction (if enabled)
                # reclaims what it can below the floor instead.
                self.retention_pinned += 1
                if self.compact_on_retention and \
                        self.appended - self._compact_gate \
                        >= _RETENTION_COMPACT_INTERVAL:
                    self._compact_gate = self.appended
                    self.compact(retain_from=self.retention_floor)
                return
            self._segments.pop(0)
            for offset in victim.offsets:
                del self._index[offset]
            self.retention_dropped_records += victim.record_count
            self.dropped_segments += 1
            os.remove(victim.path)

    # -- compaction --------------------------------------------------------

    def compact(self, retain_from: Optional[int] = None,
                key_of: Optional[Callable[[LogRecord],
                                          Optional[List[Optional[str]]]]] = None
                ) -> Dict[str, object]:
        """Key-aware compaction: rewrite old segments keeping only the
        latest record per compaction key, so a long-retention log holds
        latest-state instead of raw history.

        A record **survives** when any of these holds:

        - its offset is at/above ``retain_from`` (callers pass the slowest
          unacknowledged cursor — compaction never rewrites away a record
          a durable subscriber has yet to ack) or the retention floor;
        - it lives in the active (last) segment, which stays append-only;
        - ``key_of`` reports it unkeyed (``None``, or any per-value key
          ``None``) — what compaction cannot identify it must retain;
        - one of its keys is not superseded by a later record.

        Keys default to the ``keys`` attribute the batch envelopes carry
        (per-value ``(type fingerprint, entity key)`` digests — see
        :func:`repro.serialization.envelope.entity_key`); a multi-value
        record survives if *any* of its values is still the latest, since
        records are the log's rewrite granularity.  Offsets are never
        renumbered — compaction leaves holes — so replay positions and
        persisted cursors stay valid verbatim.  Each rewritten segment
        goes through :func:`~repro.persistence.fsio.atomic_write`: a
        crash or power loss mid-compaction leaves either the old segment
        or the new, never a torn one.  Idempotent: a second pass over an
        already-compacted log drops nothing.
        """
        if key_of is None:
            key_of = _default_key_of
        bound = self.next_offset
        if self._segments:
            active = self._segments[-1]
            if active.offsets:
                bound = min(bound, min(active.offsets))
            else:
                bound = min(bound, active.base_offset)
        if retain_from is not None:
            bound = min(bound, retain_from)
        if self.retention_floor is not None:
            bound = min(bound, self.retention_floor)

        # Pass 1 — latest-state map over the WHOLE log (a record above the
        # bound still supersedes older records below it).
        latest: Dict[str, int] = {}
        keys_by_offset: Dict[int, Optional[List[Optional[str]]]] = {}
        for record in self.replay():
            keys = key_of(record)
            if record.offset < bound:
                keys_by_offset[record.offset] = keys
            for key in keys or ():
                if key is not None:
                    latest[key] = record.offset

        def survives(offset: int) -> bool:
            keys = keys_by_offset.get(offset)
            if keys is None:
                return True
            return any(key is None or latest[key] == offset for key in keys)

        # Pass 2 — rewrite each closed segment that lost records.
        dropped_records = 0
        reclaimed = 0
        removed_segments: List[_Segment] = []
        for segment in self._segments[:-1] if len(self._segments) > 1 else []:
            doomed = {offset for offset in segment.offsets
                      if offset < bound and not survives(offset)}
            if not doomed:
                continue
            with open(segment.path, "rb") as handle:
                data = handle.read()
            blobs: List[bytes] = []
            position = 0
            new_offsets: Dict[int, int] = {}
            for offset in sorted(segment.offsets):
                decoded = _read_record_at(data, segment.offsets[offset])
                if decoded is None:  # pragma: no cover - indexed = intact
                    raise LogCorruptionError(
                        "indexed record %d failed to decode" % offset)
                record, end = decoded
                if offset not in doomed:
                    blobs.append(data[segment.offsets[offset]:end])
                    new_offsets[offset] = position
                    position += len(blobs[-1])
            if self._active_handle is not None \
                    and self._active_handle.name == segment.path:
                self._active_handle.close()  # pragma: no cover - defensive
                self._active_handle = None
            atomic_write(segment.path, b"".join(blobs))
            reclaimed += segment.size - position
            dropped_records += len(doomed)
            for offset in doomed:
                del segment.offsets[offset]
                del self._index[offset]
            for offset, new_position in new_offsets.items():
                segment.offsets[offset] = new_position
            segment.size = position
            if not segment.record_count:
                os.remove(segment.path)
                removed_segments.append(segment)
        for segment in removed_segments:
            self._segments.remove(segment)
        self.compactions += 1
        self.compacted_records += dropped_records
        self.compacted_bytes += reclaimed
        return {
            "bound": bound,
            "dropped_records": dropped_records,
            "reclaimed_bytes": reclaimed,
            "removed_segments": len(removed_segments),
            "records": self.record_count,
            "bytes": self.size_bytes,
        }

    # -- reading -----------------------------------------------------------

    def read(self, offset: int) -> LogRecord:
        """The record at ``offset`` (KeyError when dropped or never written)."""
        segment = self._index.get(offset)
        if segment is None:
            raise KeyError("offset %d is not in the log "
                           "(retained range is [%d, %d))"
                           % (offset, self.first_offset, self.next_offset))
        with open(segment.path, "rb") as handle:
            data = handle.read()
        decoded = _read_record_at(data, segment.offsets[offset])
        if decoded is None:  # pragma: no cover - indexed records are intact
            raise LogCorruptionError("indexed record %d failed to decode" % offset)
        return decoded[0]

    def replay(self, start: int = 0, end: Optional[int] = None) -> Iterator[LogRecord]:
        """Yield retained records with ``start <= offset < end`` in order.

        ``start`` below :attr:`first_offset` silently begins at the oldest
        retained record (retention may have dropped the gap — and
        compaction may have left holes anywhere); ``end`` defaults to the
        log's end *at call time*, so records appended during iteration
        are not replayed.
        """
        stop = self.next_offset if end is None else min(end, self.next_offset)
        position = max(start, self.first_offset)
        for segment in list(self._segments):
            if not segment.record_count:
                continue
            if max(segment.offsets) < position:
                continue
            if min(segment.offsets) >= stop:
                break
            # Snapshot before reading: a compaction pass during iteration
            # must not shift the positions under our feet.
            offsets = sorted(offset for offset in segment.offsets
                             if position <= offset < stop)
            positions = {offset: segment.offsets[offset]
                         for offset in offsets}
            if not offsets:
                continue
            try:
                with open(segment.path, "rb") as handle:
                    data = handle.read()
            except FileNotFoundError:
                # Retention deleted this segment mid-iteration (an append
                # during replay can trigger it): its records are gone —
                # resume at the oldest still-retained offset.
                position = max(position, self.first_offset)
                continue
            for offset in offsets:
                decoded = _read_record_at(data, positions[offset])
                if decoded is None or decoded[0].offset != offset:
                    # The segment was rewritten (a compaction pass ran
                    # inside a consumer's handler mid-iteration): refresh
                    # the snapshot; a record compacted away is skipped.
                    current = segment.offsets.get(offset)
                    if current is None:
                        position = offset + 1
                        continue
                    with open(segment.path, "rb") as handle:
                        data = handle.read()
                    decoded = _read_record_at(data, current)
                    if decoded is None:  # pragma: no cover - indexed = intact
                        raise LogCorruptionError(
                            "indexed record %d failed to decode" % offset)
                yield decoded[0]
                position = offset + 1
            if position >= stop:
                break

    # -- lifecycle / observability ----------------------------------------

    def close(self) -> None:
        if self._active_handle is not None:
            if self._unsynced_appends and self._group_commit:
                self._fsync_handle(self._active_handle)
            self._active_handle.close()
            self._active_handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def stats(self) -> Dict[str, object]:
        return {
            "directory": self.directory,
            "segments": len(self._segments),
            "records": self.record_count,
            "bytes": self.size_bytes,
            "first_offset": self.first_offset,
            "next_offset": self.next_offset,
            "appended": self.appended,
            "duplicate_appends": self.duplicate_appends,
            "torn_tail_truncations": self.torn_tail_truncations,
            "dropped_segments": self.dropped_segments,
            "retention_dropped_records": self.retention_dropped_records,
            "retention_pinned": self.retention_pinned,
            "fsyncs": self.fsyncs,
            "compactions": self.compactions,
            "compacted_records": self.compacted_records,
            "compacted_bytes": self.compacted_bytes,
        }

    def __repr__(self) -> str:
        return "EventLog(%r, %d records in [%d, %d))" % (
            self.directory, self.record_count,
            self.first_offset, self.next_offset,
        )
