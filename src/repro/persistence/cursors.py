"""Durable replay cursors for named subscriptions.

A cursor records, per durable subscription, the log offset below which
every record has been **acknowledged** by the subscriber.  Advancing is
monotonic (acks are cumulative: acknowledging offset ``n`` acknowledges
everything below it).  The store is the piece of state that makes broker
restarts lose nothing that was acked and redeliver everything that was
not.

Besides the offset, a cursor entry keeps what a restarted broker needs to
rebuild the subscription itself: the subscriber's peer id and the XML
type description of its expected type.  Local (in-process handler)
subscriptions persist only their offset — a handler cannot be serialized,
so the process re-attaches it by durable-subscribing again under the same
cursor name.

The store also counts **incarnations** — one per reopened store that
mutates — and stamps every cursor with the incarnation that last touched
it (registration or ack).  :meth:`CursorStore.prune` uses the stamps to
expire cursors of subscribers that never returned, so an abandoned
cursor cannot pin the retention floor (the "slowest cursor" gate)
forever.

On-disk layout — a **checkpoint** plus a **journal**, side by side:

- ``cursors.json``: every entry (and the ``__meta__`` incarnation
  counter) as one JSON object, replaced whole through
  :func:`~repro.persistence.fsio.atomic_write`;
- ``cursors.log``: one record per mutation since that checkpoint, framed
  like the event log's ``ELR1`` records::

      magic    4 bytes   b"CJR1"
      length   u32 BE    body byte count
      crc32    u32 BE    CRC-32 over the body
      body     length    the mutation as a compact JSON array

Every mutation appends one record and ``flush()``-es it to the operating
system, so a *process* crash loses nothing.  A checkpoint is written at
the first mutation of an opening (so the incarnation bump lands on
disk), once :data:`_CHECKPOINT_EVERY` records are journaled, and at
:meth:`CursorStore.close`; it then empties the journal.  A checkpoint
absorbs only journaled mutations, never the one that triggered it while
the journal holds records (that one is journaled after the truncation),
so the journal always holds every mutation since the checkpoint on disk.
Recovery loads the checkpoint and replays the journal over it, stopping
at the first torn or bad-CRC record.  Replay is idempotent — each record
*sets* state (an advance takes the maximum, a clamp the minimum, a stamp
is the recorded incarnation) — because a crash between a checkpoint's
replace and the journal truncation replays records the checkpoint
already holds.

Power-loss durability is group-committed by the owner of the shard's event
log (:class:`~repro.apps.tps.pipeline.DurabilityStage`): :meth:`sync`
fsyncs the journal right after each fsync of the log, and
:attr:`CursorStore.before_checkpoint` syncs the log before a checkpoint
makes offsets durable.  Journal records are ``flush()``-ed between those
fsyncs, though, and the operating system may write them back before the
log records they cover reach the disk.  So on open the stage also
:meth:`~CursorStore.clamp`-s every cursor in the shard's own offset space
to the recovered log's end: after a power loss, new appends reuse the
lost offsets, and a cursor still claiming them as acked would silently
skip those records.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Callable, Dict, List, Optional, Tuple

from .fsio import atomic_write, fsync_dir

#: Reserved entry holding store-level metadata (the incarnation counter)
#: inside the flat name -> entry JSON; never a legal cursor name.
_META_KEY = "__meta__"

_JOURNAL_MAGIC = b"CJR1"
_JOURNAL_HEADER = struct.Struct(">4sII")  # magic, body length, crc32

#: Journal records between two checkpoints.
_CHECKPOINT_EVERY = 512

# Journal record kinds (the first element of each record's JSON array).
_REGISTER = "r"   # [kind, name, peer_id, description, origin, base, stamp]
_ADVANCE = "a"    # [kind, name, offset, stamp]
_ANNOTATE = "n"   # [kind, name, fields]
_REMOVE = "d"     # [kind, names]
_CLAMP = "c"      # [kind, names, limit]
_RECORD_LENGTH = {_REGISTER: 7, _ADVANCE: 4, _ANNOTATE: 3, _REMOVE: 2,
                  _CLAMP: 3}


def _own_space(entry: Dict[str, object]) -> bool:
    """Whether a cursor's offsets are in the local log's offset space:
    every cursor but a fetch cursor (``origin``) — unless that fetch
    cursor is ``local``-flagged (a self-pass over this shard's own log)."""
    return not entry.get("origin") or bool(entry.get("local"))


def _read_journal_record(data: bytes, position: int) -> Optional[Tuple[list, int]]:
    """Decode the journal record at ``position`` as ``(record, end)``;
    ``None`` marks a torn or corrupt tail (short header or body, bad
    magic, CRC mismatch, or a body that is not a known record)."""
    end_header = position + _JOURNAL_HEADER.size
    if end_header > len(data):
        return None
    magic, length, crc = _JOURNAL_HEADER.unpack_from(data, position)
    end = end_header + length
    if magic != _JOURNAL_MAGIC or end > len(data):
        return None
    body = data[end_header:end]
    if zlib.crc32(body) != crc:
        return None
    try:
        record = json.loads(body)
    except ValueError:
        return None
    if not isinstance(record, list) or not record \
            or _RECORD_LENGTH.get(record[0]) != len(record):
        return None
    return record, end


class CursorStore:
    """Named replay cursors: a JSON checkpoint plus a mutation journal.

    Opening loads ``path`` and replays the journal next to it (``path``
    with a ``.log`` extension) and writes nothing; the first mutation
    checkpoints, which also truncates a torn journal tail.  The journal
    stays open until :meth:`close` (the store is a context manager).
    """

    def __init__(self, path: str):
        self.path = path
        self.journal_path = os.path.splitext(path)[0] + ".log"
        self._entries: Dict[str, Dict[str, object]] = {}
        self.advances = 0
        self.checkpoints = 0
        #: Called before each checkpoint makes offsets durable (the shard's
        #: event log installs its ``sync`` here; see the module docstring).
        self.before_checkpoint: Optional[Callable[[], None]] = None
        self._journal = None         # append handle, opened on first record
        self._journaled = 0          # records since the last checkpoint
        self._unsynced = False       # journal bytes not yet fsynced
        self._checkpointed = False   # has this opening checkpointed?
        self._journal_empty = True   # does the journal file hold no bytes?
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        stored_incarnation = 0
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                self._entries = json.load(handle)
            meta = self._entries.pop(_META_KEY, None)
            if isinstance(meta, dict):
                stored_incarnation = int(meta.get("incarnation", 0))
        #: Whether the journal ended in a torn or corrupt record (replay
        #: stopped there; the first mutation truncates it).
        self.journal_torn = self._replay_journal()
        #: This opening's incarnation number.  Bumped in memory only — a
        #: read-only open (``repro log inspect``) must not rewrite the
        #: file; the bump lands on disk with the first mutation's
        #: checkpoint.
        self.incarnation = stored_incarnation + 1

    def _replay_journal(self) -> bool:
        try:
            with open(self.journal_path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return False
        self._journal_empty = not data
        position = 0
        while position < len(data):
            decoded = _read_journal_record(data, position)
            if decoded is None:
                return True
            record, position = decoded
            self._apply(record)
        return False

    def _apply(self, record: list) -> None:
        """Apply one journal record to the in-memory entries — the live
        mutation path and recovery replay share this."""
        kind = record[0]
        entries = self._entries
        if kind == _ADVANCE:
            _, name, offset, stamp = record
            entry = entries.get(name)
            if entry is None:
                entry = entries[name] = {
                    "offset": 0, "peer_id": None, "description": None,
                }
            if stamp is not None:
                entry["last_active"] = stamp
            if offset > int(entry["offset"]):
                entry["offset"] = offset
        elif kind == _REGISTER:
            _, name, peer_id, description, origin, base, stamp = record
            entry = entries.get(name)
            if entry is None:
                entry = entries[name] = {"offset": 0}
            entry["peer_id"] = peer_id
            entry["description"] = description
            if origin is not None:
                entry["origin"] = origin
                entry["base"] = base
            if stamp is not None:
                entry["last_active"] = stamp
        elif kind == _ANNOTATE:
            entry = entries.get(record[1])
            if entry is not None:
                entry.update(record[2])
        elif kind == _CLAMP:
            _, names, limit = record
            for name in names:
                entry = entries.get(name)
                if entry is not None and int(entry["offset"]) > limit:
                    entry["offset"] = limit
        else:
            for name in record[1]:
                entries.pop(name, None)

    # -- reading -----------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._entries)

    def get(self, name: str) -> int:
        """The acked-below offset of ``name`` (0 for an unknown cursor)."""
        entry = self._entries.get(name)
        return int(entry["offset"]) if entry else 0

    def entry(self, name: str) -> Optional[Dict[str, object]]:
        entry = self._entries.get(name)
        return dict(entry) if entry is not None else None

    def min_offset(self) -> Optional[int]:
        """The slowest cursor's offset (``None`` with no cursors) — the
        retention-floor input, computed without snapshot/sort overhead.
        Cursors with an ``origin`` track positions in *another* shard's
        offset space (backlog-fetch progress) and are excluded: a foreign
        offset must never pin or release the local log's retention.  The
        exception is a ``local``-flagged fetch cursor — an adopted
        subscription's self-pass over this shard's OWN log (its "origin"
        is the shard itself, so its offsets are local) — which must pin
        retention until its pass drains."""
        return min((int(entry["offset"])
                    for entry in self._entries.values() if _own_space(entry)),
                   default=None)

    def derived(self, base: str) -> List[str]:
        """Names of the fetch cursors derived from ``base`` (the
        per-sibling backlog positions of one durable subscription), so
        retiring the subscription retires its whole cursor family."""
        return sorted(name for name, entry in self._entries.items()
                      if entry.get("base") == base)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # -- writing -----------------------------------------------------------

    def register(self, name: str, peer_id: Optional[str] = None,
                 description: Optional[str] = None,
                 touch: bool = True,
                 origin: Optional[str] = None,
                 base: Optional[str] = None) -> int:
        """Create (or refresh the metadata of) a cursor; keeps its offset.

        Returns the cursor's current offset — a re-registration under an
        existing name resumes where the previous incarnation acked.
        ``touch=False`` preserves the idleness stamp: a broker *recovery*
        re-registers every persisted cursor mechanically, which must not
        count as the subscriber coming back (or :meth:`prune` could never
        expire an abandoned cursor on a broker that restarts).

        ``origin``/``base`` mark a *fetch cursor*: the per-sibling
        backlog-fetch position of durable subscription ``base``, held in
        shard ``origin``'s offset space.  Fetch cursors never gate the
        local retention floor (:meth:`min_offset`) and are retired with
        their base subscription (:meth:`derived`).
        """
        if name == _META_KEY:
            raise ValueError("%r is a reserved cursor name" % name)
        self._commit([_REGISTER, name, peer_id, description, origin, base,
                      self.incarnation if touch else None])
        return int(self._entries[name]["offset"])

    def annotate(self, name: str, **fields: object) -> None:
        """Persist extra JSON fields on an existing cursor entry (e.g.
        an adopted subscription's replay ``floor``, or the ``local`` flag
        marking a self-pass fetch cursor); raises on an unknown name —
        annotations ride a cursor, they never create one."""
        if name not in self._entries:
            raise KeyError("no cursor %r to annotate" % name)
        self._commit([_ANNOTATE, name, fields])

    def advance(self, name: str, offset: int, touch: bool = True) -> bool:
        """Monotonically raise ``name`` to ``offset``; returns whether it moved.

        ``touch=False`` is for *mechanical* advances — replay skipping a
        non-conforming or self-published record nothing was delivered
        for.  Only subscriber-driven advances (an echoed ack token, a
        local handler accepting a record) may refresh the idleness stamp,
        or recovery replay would count as subscriber activity and
        :meth:`prune` could never expire an abandoned cursor on a broker
        that keeps restarting (and replication catch-up makes recovery
        replays *longer*, widening that window).
        """
        offset = int(offset)
        stamp = self.incarnation if touch else None
        entry = self._entries.get(name)
        moved = offset > (int(entry["offset"]) if entry is not None else 0)
        if entry is not None and not moved \
                and (stamp is None or entry.get("last_active") == stamp):
            return False  # nothing to record
        self._commit([_ADVANCE, name, offset, stamp])
        if moved:
            self.advances += 1
        return moved

    def remove(self, name: str) -> bool:
        if name not in self._entries:
            return False
        self._commit([_REMOVE, [name]])
        return True

    def prune(self, max_idle_incarnations: int) -> List[str]:
        """Expire cursors whose subscribers never returned.

        A cursor is idle when no registration or ack touched it for
        ``max_idle_incarnations`` store incarnations (reopen + mutation
        cycles — broker restarts, in practice).  Returns the pruned
        names, sorted.  Cursors from files written before incarnation
        stamping count as never-touched: prunable.
        """
        if max_idle_incarnations < 1:
            raise ValueError("max_idle_incarnations must be at least 1")
        doomed = sorted(
            name for name, entry in self._entries.items()
            if self.incarnation - int(entry.get("last_active", 0))
            >= max_idle_incarnations
        )
        if doomed:
            self._commit([_REMOVE, doomed])
        return doomed

    def clamp(self, limit: int) -> List[str]:
        """Lower every cursor in the local offset space (see
        :meth:`min_offset`) that is above ``limit`` to ``limit``; returns
        the lowered names, sorted.  The opposite of :meth:`advance`: it
        is for recovery only, when the log came back shorter than a
        cursor's acked position (see the module docstring)."""
        limit = int(limit)
        lowered = sorted(name for name, entry in self._entries.items()
                         if _own_space(entry) and int(entry["offset"]) > limit)
        if lowered:
            self._commit([_CLAMP, lowered, limit])
        return lowered

    def _commit(self, record: list) -> None:
        """The one write path: apply ``record`` and journal it.

        A checkpoint never absorbs a mutation while the journal holds
        records: a crash between its replace and the journal truncation
        would replay those records over a state they do not lead to.  So
        once :data:`_CHECKPOINT_EVERY` records are journaled — or at an
        opening's first mutation over a non-empty journal — the state
        *before* this mutation is checkpointed, and the mutation is
        journaled after the truncation.  An opening's first mutation over
        an empty journal is checkpointed with the mutation instead.
        """
        if self._journaled >= _CHECKPOINT_EVERY \
                or (not self._checkpointed and not self._journal_empty):
            self.checkpoint()
        self._apply(record)
        if not self._checkpointed:
            self.checkpoint()
            return
        if self._journal is None:
            created = not os.path.exists(self.journal_path)
            self._journal = open(self.journal_path, "ab")
            if created:
                fsync_dir(os.path.dirname(self.journal_path))
        body = json.dumps(record, separators=(",", ":")).encode("utf-8")
        self._journal.write(_JOURNAL_HEADER.pack(
            _JOURNAL_MAGIC, len(body), zlib.crc32(body)) + body)
        self._journal.flush()
        self._journaled += 1
        self._journal_empty = False
        self._unsynced = True

    def checkpoint(self) -> None:
        """Write every entry to ``cursors.json`` (crash-consistently, after
        :attr:`before_checkpoint`), then empty the journal."""
        if self.before_checkpoint is not None:
            self.before_checkpoint()
        on_disk = dict(self._entries)
        on_disk[_META_KEY] = {"incarnation": self.incarnation}
        atomic_write(self.path, json.dumps(on_disk, indent=0,
                                           sort_keys=True).encode("utf-8"))
        if self._journal is None and os.path.exists(self.journal_path):
            self._journal = open(self.journal_path, "ab")
        if self._journal is not None:
            # Appends go to the end of an ``ab`` handle: after the
            # truncation, that is position 0 again.
            os.ftruncate(self._journal.fileno(), 0)
            os.fsync(self._journal.fileno())
        self._journaled = 0
        self._journal_empty = True
        self._unsynced = False
        self._checkpointed = True
        self.checkpoints += 1

    def sync(self) -> None:
        """fsync journal records not yet fsynced (the group commit)."""
        if self._unsynced:
            os.fsync(self._journal.fileno())
            self._unsynced = False

    def close(self) -> None:
        """Checkpoint any journaled mutations and release the journal.
        A store that never mutated writes nothing."""
        if self._journaled:
            self.checkpoint()
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def __enter__(self) -> "CursorStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def as_dict(self) -> Dict[str, int]:
        """Cursor name -> offset snapshot (the observability surface)."""
        return {name: int(entry["offset"])
                for name, entry in sorted(self._entries.items())}

    def __repr__(self) -> str:
        return "CursorStore(%r, %s)" % (self.path, self.as_dict())
