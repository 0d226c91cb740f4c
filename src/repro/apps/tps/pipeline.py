"""The unified delivery pipeline shared by every TPS broker flavour.

:class:`~repro.apps.tps.broker.LocalBroker`,
:class:`~repro.apps.tps.broker.TpsBroker` and
:class:`~repro.apps.tps.mesh.MeshShard` all run the same sequence: admit
the incoming envelope, run the
:class:`~repro.apps.tps.routing.RoutingIndex` conformance check, append
the record to the durable log, fan out to matching subscriptions
(in-process handlers inline, remote peers buffered per destination),
and track delivery acknowledgements against replay cursors.  Each step
is a stage:

- :class:`AdmissionStage` — envelope parse, then the code of every
  header type this runtime cannot resolve, fetched and loaded (the
  optimistic protocol's steps 4-5 for a whole frame);
- the broker's :class:`RoutingIndex` — conformance-checked fan-out
  targets;
- :class:`DurabilityStage` — durable append, capped cursor advancement,
  retention-floor maintenance, and the :class:`AckTracker` sliding
  windows of in-flight deliveries;
- :class:`BufferedDelivery` — the one network dispatch discipline:
  per-destination buffers drained into one message per destination,
  however many of the destination's subscriptions a record matches.  The single
  broker drains them before its inbound message's handler returns, a
  mesh shard on its pump; neither runs a subscriber's handler inside
  the publisher's call stack.  :class:`LocalDelivery` serves the
  network-less in-process broker;
- :class:`DeliveryPipeline` — the composition: one ``process()`` call is
  one admitted record travelling every stage, and one replay pass is one
  durable subscription's backlog — from the local log, a replica log or
  a fetched page — travelling the same conformance and ack machinery as
  live traffic.

A record enters ``process()`` in one shape: a batch exposing ``len``,
``root_type(i)`` and ``value(i)`` — a
:class:`~repro.serialization.envelope.LazyBatch` over the received
frame, its code loaded first when a type is new here, or a
:class:`ValueBatch` over the values of an in-process publish.  One
admission rule serves every frame, live, forwarded or replayed: load
the code of unknown types, then admit on the header.  Routing runs on
root types, once per record and root type;
a value is decoded only when an in-process handler receives it.  On a
network broker the record's frame bytes come along, and logging,
replication, forwarding, remote delivery and replay all carry those
bytes, never re-encoded values.  A subscriber gets the frame without
its ``keys`` and ``home`` attributes, which only logs and sibling shards
read (see :func:`subscriber_frame`): live or replayed, one header splice
per record, which also stamps the ack token of a durable message.

The brokers are thin adapters over one pipeline each: they own the
subscription control plane (subscribe/unsubscribe, gossip, recovery) and
delegate every event to the pipeline, so a durability or batching
improvement lands once and applies to all three.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from ...net.network import NetworkError, UnknownPeerError
from ...persistence import CursorStore, EventLog
from ...persistence.log import LogRecord
from ...serialization.envelope import LazyBatch, encode_home, envelope_home
from ...serialization.errors import SerializationError
from ...transport.protocol import KIND_REPLICATE, ProtocolError
from .routing import RouteEntry, RoutingIndex

#: Default bound on outstanding (issued, unacknowledged) delivery tokens.
#: On a lossy fabric a dropped batch or ack would otherwise pin its token
#: forever; evicting the oldest merely re-labels its records "unacked",
#: which at-least-once redelivery already covers.
DEFAULT_MAX_PENDING_ACKS = 4096

#: How many log records may pool into one replay batch message.  Bounds
#: both the per-message decode burst at the subscriber and the redelivery
#: window a lost ack reopens.
REPLAY_BATCH_RECORDS = 64

#: Distinguishes pipeline incarnations within one process, so an ack
#: token issued before a restart can never match a token the restarted
#: broker issues (same peer id + same sequence number would otherwise
#: collide and acknowledge an undelivered batch).
_EPOCH = itertools.count(1)


#: A route entry's view not yet built for the record being fanned out.
_UNBUILT = object()

#: :func:`distinct_roots` of a single-value record.
_FIRST_VALUE = (0,)


def cursor_name_of(subscription: Any) -> Optional[str]:
    """The replay-cursor name of a durable subscription (``None`` for a
    plain one).  Duck-typed so the pipeline needs no import of the broker
    module's ``DurableSubscription``."""
    return getattr(subscription, "cursor_name", None) or None


def foreign_cursor_name(base: str, origin_shard: str) -> str:
    """The fetch-cursor name tracking how far durable subscription
    ``base`` has consumed shard ``origin_shard``'s records.  The name is
    only a storage key — ownership and retirement flow through the
    ``base``/``origin`` metadata the cursor entry carries."""
    return "%s@%s" % (base, origin_shard)


def own_records(log: EventLog, start: int = 0,
                end: Optional[int] = None) -> Iterator[LogRecord]:
    """The records of ``log`` in ``[start, end)`` that its shard is home
    to: a forwarded-in copy carries a ``home`` attribute and is some
    other shard's record."""
    return (record for record in log.replay(start, end)
            if envelope_home(record.payload) is None)


def _merge_ack_windows(into: Dict[str, List[int]],
                       acks: Optional[Dict[str, List[int]]]) -> None:
    """Union per-cursor ``[start, end)`` offset windows in place — the ack
    token of a coalesced flush message covers every record it carries."""
    if not acks:
        return
    for name, window in acks.items():
        have = into.get(name)
        if have is None:
            into[name] = [window[0], window[1]]
        else:
            have[0] = min(have[0], window[0])
            have[1] = max(have[1], window[1])


def subscriber_frame(codec: Any, frame: bytes, ack: Optional[str] = None,
                     shared: Optional[Dict[int, bytes]] = None) -> bytes:
    """A stored or admitted ``frame`` as a subscriber receives it.

    The compaction ``keys`` and the ``home`` provenance are read only by
    logs and sibling shards, so they are cut from the header; ``origin``,
    ``trace`` and the payload stay as they are, and ``ack`` is stamped
    in the same splice.  Frames a shard logs, forwards, replicates or
    serves to a sibling keep both attributes.  ``shared`` memoizes
    results without an ack by frame object, so the destinations of one
    flush share one strip."""
    memo = shared is not None and ack is None
    if memo:
        out = shared.get(id(frame))
        if out is not None:
            return out
    out = codec.reframe(frame, ack=ack, keys=None, home=None)
    if memo:
        shared[id(frame)] = out
    return out


def send_frames(host: Any, tracker: Optional[AckTracker], dst: str,
                frames: List[bytes], count: int,
                ranges: Sequence[Tuple[str, int, int]] = (),
                traces: Sequence[str] = (),
                shared: Optional[Dict[int, bytes]] = None) -> bool:
    """Send stored ``frames`` (``count`` values in all) to ``dst`` as ONE
    message of their :func:`subscriber_frame` forms (``shared`` as
    there).  With durable ``(cursor, start, end)`` ``ranges`` the message
    carries one ack token covering them, spliced into the last frame's
    header in the same pass that strips it; ``traces`` tag the token so
    its ack closes their spans.  ``False`` (token discarded, drop
    counted) when ``dst`` is not on the fabric."""
    codec = host.codec
    token: Optional[str] = None
    if ranges and tracker is not None:
        token = tracker.issue(dst, ranges)
        tracker.tag(token, traces)
    out = [subscriber_frame(codec, frame, shared=shared)
           for frame in frames[:-1]]
    out.append(subscriber_frame(codec, frames[-1], token, shared))
    try:
        host.send_payload_batch(dst, codec.join_frames(out), count)
    except UnknownPeerError:
        if token is not None:
            tracker.discard(token)
        host.network.stats.record_drop()
        return False
    return True


class PipelineStats:
    """Counters shared by every stage of one pipeline.

    ``codec`` optionally points at the host codec's
    :class:`~repro.serialization.envelope.CodecStats`, so the zero-copy
    invariants (value decodes vs header-only parses) surface in the same
    snapshot as the pipeline counters.
    """

    _COUNTERS = (
        "events_routed",
        "events_replayed",
        "events_fetched",
        "replay_failures",
        "replay_unreachable",
        "delivery_failures",
        "retention_lost_records",
        "records_processed",
        "records_replicated",
        "replication_resends",
        "publish_acks_sent",
    )

    __slots__ = _COUNTERS + ("codec",)

    def __init__(self):
        for name in self._COUNTERS:
            setattr(self, name, 0)
        self.codec = None

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {name: getattr(self, name)
                               for name in self._COUNTERS}
        if self.codec is not None:
            out["codec"] = self.codec.as_dict()
        return out

    def __repr__(self) -> str:
        return "PipelineStats(%s)" % ", ".join(
            "%s=%r" % item for item in self.as_dict().items()
        )


class Processed:
    """What one ``process()`` call did: the record's log offset (``None``
    without a log) and the number of successful deliveries/enqueues."""

    __slots__ = ("log_offset", "deliveries")

    def __init__(self, log_offset: Optional[int], deliveries: int):
        self.log_offset = log_offset
        self.deliveries = deliveries

    def __repr__(self) -> str:
        return "Processed(offset=%r, deliveries=%d)" % (
            self.log_offset, self.deliveries,
        )


class ValueBatch:
    """The batch shape of :class:`~repro.serialization.envelope.LazyBatch`
    over values already in hand (an in-process publish), so they route
    by root type like a received frame."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[Any]):
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def root_type(self, index: int):
        return self.values[index].type_info

    def root_keys(self) -> List[int]:
        """Per value, the identity of its root type."""
        return [id(value.type_info) for value in self.values]

    def value(self, index: int) -> Any:
        return self.values[index]


def distinct_roots(batch: Any) -> Sequence[int]:
    """The index of the first value of each distinct root type in
    ``batch``, in record order."""
    if len(batch) == 1:
        return _FIRST_VALUE
    roots = batch.root_keys()
    return [roots.index(key) for key in dict.fromkeys(roots)]


# ---------------------------------------------------------------------------
# admission / decode
# ---------------------------------------------------------------------------


class AdmissionStage:
    """Admit incoming frames: parse a payload, then load the code of every
    type its header names that this runtime cannot resolve (the host
    peer's :meth:`~repro.transport.protocol.InteropPeer.loaded_batch`), so
    every record routes on its header at zero value decodes.
    """

    def __init__(self, host: Any, stats: Optional[PipelineStats] = None):
        self.host = host
        self.stats = stats if stats is not None else PipelineStats()
        codec = getattr(host, "codec", None)
        if codec is not None and getattr(codec, "stats", None) is not None:
            self.stats.codec = codec.stats

    def parse(self, payload: bytes):
        return self.host.codec.parse(payload)

    def admit(self, envelope: Any, src: str) -> LazyBatch:
        """``envelope`` as a batch whose types all resolve here, its code
        fetched from ``src`` on demand; raises when code cannot be had."""
        return self.host.loaded_batch(envelope, src)

    def admit_record(self, record: Any,
                     fallback_src: str) -> Optional[LazyBatch]:
        """:meth:`admit` for one stored log record, fetching code from the
        record's origin; ``None`` (after counting the failure) when the
        origin — and every code source — cannot serve it right now."""
        envelope = self.parse(record.payload)
        try:
            return self.admit(envelope, record.origin or fallback_src)
        except (ProtocolError, NetworkError):
            self.stats.replay_failures += 1
            return None


# ---------------------------------------------------------------------------
# ack tracking
# ---------------------------------------------------------------------------


class AckTracker:
    """Delivery + ack tracking: per-cursor sliding windows of in-flight
    deliveries, cumulative-prefix advancement, and undelivered blocks.

    ``advance`` is injected (normally :meth:`DurabilityStage.advance`), so
    the tracker is unit-testable against a plain dict of cursors.  The
    window discipline: entries are ``[end, acked, token, start]`` in issue
    order, and a cursor only moves through the *contiguous acked prefix* —
    an ack for a later batch never skips an earlier one still in flight
    (whose batch may have been dropped by a lossy fabric).
    """

    def __init__(self, owner_id: str,
                 advance: Callable[[str, int], None],
                 cap: Optional[Callable[[], int]] = None):
        self.owner_id = owner_id
        self._advance = advance
        self._cap = cap if cap is not None else (lambda: DEFAULT_MAX_PENDING_ACKS)
        self.pending: Dict[str, Tuple[Optional[str], tuple]] = {}
        #: cursor name -> in-flight window entries, in issue order.
        self.windows: Dict[str, List[List[Any]]] = {}
        #: Lowest log offset that is known-undelivered for a cursor — a
        #: crashed local handler, or a discarded (evicted/undeliverable)
        #: in-flight range.  No advance ever passes it, so the records
        #: are redelivered by the next replay instead of being
        #: cumulatively acked away.
        self.blocks: Dict[str, int] = {}
        self._seq = 0
        self._epoch = next(_EPOCH)
        #: Optional span recorder (see :mod:`repro.obs.tracing`) plus the
        #: token -> trace-ids map that lets an incoming ack close the
        #: loop on the records it covered.  Bounded by the pending cap:
        #: entries are popped on acknowledge/discard/forget.
        self.tracer = None
        self._token_traces: Dict[str, tuple] = {}

    # -- issuing ----------------------------------------------------------

    def issue(self, peer_id: Optional[str],
              entries: Sequence[Tuple[str, int, int]]) -> str:
        """Register one outgoing delivery; ``entries`` are
        ``(cursor, start, end)`` record-offset ranges the delivery covers."""
        if len(self.pending) >= self._cap():
            # Lossy fabrics can orphan tokens (batch or ack dropped);
            # evict the oldest so the table stays bounded.  Discarding
            # blocks its cursors at the range start, so the records stay
            # unacked and are redelivered on the next replay.
            self.discard(next(iter(self.pending)))
        self._seq += 1
        token = "%s/%d/ack-%d" % (self.owner_id, self._epoch, self._seq)
        self.pending[token] = (peer_id, tuple(entries))
        for cursor_name, start, end in entries:
            self.windows.setdefault(cursor_name, []).append(
                [end, False, token, start])
        return token

    def pending_count(self) -> int:
        return len(self.pending)

    def tag(self, token: str, traces) -> None:
        """Associate a token with the trace ids of the records it
        covers, so the eventual ack records an ``ack`` span per trace."""
        if self.tracer is not None and traces:
            self._token_traces[token] = tuple(traces)

    # -- retirement -------------------------------------------------------

    def discard(self, token: str):
        """Forget an outstanding token (evicted or undeliverable);
        returns the entry so callers can act on it.

        The token's records were (possibly) never delivered, so each
        covered cursor is blocked at the range's start: later cumulative
        acks cannot skip the hole, and the next replay (which clears the
        block) redelivers it."""
        entry = self.pending.pop(token, None)
        self._token_traces.pop(token, None)
        if entry is not None:
            for cursor_name, start, _ in entry[1]:
                window = self.windows.get(cursor_name)
                if window:
                    remaining = [item for item in window if item[2] != token]
                    if remaining:
                        self.windows[cursor_name] = remaining
                    else:
                        del self.windows[cursor_name]
                self.blocks[cursor_name] = min(
                    self.blocks.get(cursor_name, start), start)
        return entry

    def forget_cursor(self, cursor_name: str) -> None:
        """Retire a cursor's in-flight delivery state (window, block, and
        its ranges inside outstanding tokens) when the subscription is
        replaced or unsubscribed — the ranges are either replayed fresh or
        deliberately abandoned, so a stale token must not resurface later
        (via cap eviction) as a block nothing clears."""
        window = self.windows.pop(cursor_name, None)
        self.blocks.pop(cursor_name, None)
        for item in window or ():
            token = item[2]
            entry = self.pending.get(token)
            if entry is None:
                continue
            remaining = tuple(part for part in entry[1]
                              if part[0] != cursor_name)
            if remaining:
                self.pending[token] = (entry[0], remaining)
            else:
                del self.pending[token]
                self._token_traces.pop(token, None)

    def block(self, cursor_name: str, offset: int) -> None:
        """Pin a cursor below a known-undelivered offset."""
        self.blocks[cursor_name] = min(
            self.blocks.get(cursor_name, offset), offset)

    def clear_block_through(self, cursor_name: str, offset: int) -> None:
        """Lift a block once the once-failed record at/below ``offset``
        was redelivered successfully."""
        blocked = self.blocks.get(cursor_name)
        if blocked is not None and offset >= blocked:
            del self.blocks[cursor_name]

    def has_inflight(self, cursor_name: str) -> bool:
        return bool(self.windows.get(cursor_name))

    # -- acknowledgement --------------------------------------------------

    def acknowledge(self, token: str, src: str) -> bool:
        """Mark one delivery acknowledged and advance its cursors through
        the contiguous acked prefix of their windows.

        An ack for a later batch while an earlier one is still in flight
        (possibly dropped by the loss model) must NOT advance past the
        earlier batch's records — they would never be redelivered.
        Unknown tokens — e.g. an ack that raced a broker restart — are
        ignored; their records simply get replayed (at-least-once)."""
        entry = self.pending.get(token)
        if entry is None or entry[0] != src:
            return False
        del self.pending[token]
        traces = self._token_traces.pop(token, None)
        if traces is not None:
            for trace in traces:
                self.tracer.record(trace, "ack", {"peer": src})
        for cursor_name, _, _ in entry[1]:
            window = self.windows.get(cursor_name)
            if window is None:
                continue
            for item in window:
                if item[2] == token:
                    item[1] = True
            acked_to: Optional[int] = None
            while window and window[0][1]:
                acked_to = window.pop(0)[0]
            if not window:
                del self.windows[cursor_name]
            if acked_to is not None:
                self._advance(cursor_name, acked_to)
        return True


# ---------------------------------------------------------------------------
# durable append
# ---------------------------------------------------------------------------


class DurabilityStage:
    """Durable append + capped cursor advancement + retention floor.

    Owns the :class:`EventLog`, the :class:`CursorStore` and the
    :class:`AckTracker`; every cursor advance in the system goes through
    :meth:`advance`, which caps the target below any known-undelivered
    offset and ignores retired cursors.  With ``retain_unacked`` the
    stage keeps the log's retention floor at the slowest cursor, so
    retention never drops a segment a durable subscriber has not acked
    (pruned cursors stop pinning the floor — see :meth:`prune_cursors`).

    The stage also owns the fsync ordering between the two: the cursor
    journal is fsynced right after each fsync of the log (group commit
    under the log's ``fsync_every_n`` / ``fsync_interval_ms`` policy),
    and the log is synced before a cursor checkpoint.  Journal records
    the operating system wrote back early can still outrun the log, so
    construction clamps every cursor in this shard's own offset space to
    the recovered log's ``next_offset``: after a power loss, new appends
    reuse the lost offsets, and a cursor claiming them as acked would
    silently skip those records.
    """

    def __init__(self, host: Any,
                 event_log: Optional[EventLog] = None,
                 cursors: Optional[CursorStore] = None,
                 stats: Optional[PipelineStats] = None,
                 ack_cap: Optional[Callable[[], int]] = None,
                 retain_unacked: bool = False):
        self.host = host
        self.event_log = event_log
        self.cursors = cursors
        self.stats = stats if stats is not None else PipelineStats()
        self.retain_unacked = retain_unacked
        self.tracker = AckTracker(getattr(host, "peer_id", "pipeline"),
                                  advance=self.advance, cap=ack_cap)
        if event_log is not None and cursors is not None:
            event_log.on_fsync = cursors.sync
            cursors.before_checkpoint = event_log.sync
            cursors.clamp(event_log.next_offset)
        self._update_retention_floor()

    @property
    def enabled(self) -> bool:
        return self.event_log is not None and self.cursors is not None

    # -- appending --------------------------------------------------------

    def append_payload(self, payload: bytes, origin: str) -> Optional[int]:
        """Durably log one already-encoded batch envelope before any
        fan-out; returns the record's offset (``None`` without a log)."""
        if self.event_log is None:
            return None
        return self.event_log.append(payload, origin=origin)

    # -- cursor advancement ------------------------------------------------

    def advance(self, cursor_name: str, target: int,
                touch: bool = True) -> None:
        """The single gate every cursor advance goes through: capped
        below any known-undelivered offset, and a no-op for retired
        cursors — an ack racing an unsubscribe must not resurrect a
        removed cursor as a zombie entry.  ``touch=False`` marks a
        *mechanical* advance (replay skipping a record nothing was
        delivered for): it moves the offset without refreshing the
        idleness stamp :meth:`prune_cursors` reads."""
        if self.cursors is None or cursor_name not in self.cursors:
            return
        block = self.tracker.blocks.get(cursor_name)
        if block is not None:
            target = min(target, block)
        before = self.cursors.get(cursor_name)
        if self.cursors.advance(cursor_name, target, touch=touch):
            # The floor is the min over all cursors: it can only move
            # when the cursor that advanced WAS the floor — skip the
            # recompute for every other ack on the hot path.
            if self.retain_unacked and self.event_log is not None \
                    and (self.event_log.retention_floor is None
                         or before <= self.event_log.retention_floor):
                self._update_retention_floor()

    def advance_if_idle(self, cursor_name: str, target: int,
                        touch: bool = True) -> None:
        """Advance a cursor past a record nothing was sent for.

        Safe only while no issued-but-unacknowledged token exists for the
        cursor: acks are cumulative, so jumping ahead of an in-flight
        delivery would mark it acked before the subscriber confirmed it.
        When tokens are outstanding, the next ack covers the skipped
        record anyway."""
        if not self.tracker.has_inflight(cursor_name):
            self.advance(cursor_name, target, touch=touch)

    def settle_local(self, local_acks: Dict[str, bool],
                     log_offset: Optional[int]) -> None:
        """Advance local durable cursors once per *record*, and only when
        every one of the record's values was handled — a handler that
        crashed on value 2 after accepting value 1 must leave the whole
        record unacked so replay redelivers it (at-least-once)."""
        if log_offset is None:
            return
        for cursor_name, all_ok in local_acks.items():
            if all_ok:
                self.advance(cursor_name, log_offset + 1)

    def register_cursor(self, cursor_name: str,
                        peer_id: Optional[str] = None,
                        description: Optional[str] = None,
                        touch: bool = True,
                        origin: Optional[str] = None,
                        base: Optional[str] = None) -> int:
        """Create/refresh a cursor through the stage, so a brand-new slow
        cursor starts pinning the retention floor immediately.
        ``touch=False`` is the recovery path: mechanical re-registration
        must not reset the idleness stamp :meth:`prune_cursors` reads.
        ``origin``/``base`` register a fetch cursor in a sibling shard's
        offset space (see :meth:`CursorStore.register`)."""
        offset = self.cursors.register(cursor_name, peer_id=peer_id,
                                       description=description, touch=touch,
                                       origin=origin, base=base)
        self._update_retention_floor()
        return offset

    def forget_cursor(self, cursor_name: str) -> None:
        self.tracker.forget_cursor(cursor_name)

    def remove_cursor(self, cursor_name: str) -> None:
        """Retire a cursor entirely (explicit unsubscribe): persisted
        entry, in-flight windows, retention pin — and any per-sibling
        fetch cursors derived from it — all go."""
        if self.cursors is not None:
            for derived in self.cursors.derived(cursor_name):
                self.cursors.remove(derived)
                self.tracker.forget_cursor(derived)
            self.cursors.remove(cursor_name)
        self.tracker.forget_cursor(cursor_name)
        self._update_retention_floor()

    # -- retention / GC / compaction --------------------------------------

    def _update_retention_floor(self) -> None:
        if not self.retain_unacked or self.event_log is None \
                or self.cursors is None:
            return
        self.event_log.set_retention_floor(self.cursors.min_offset())

    def prune_cursors(self, max_idle_incarnations: int) -> List[str]:
        """Expire cursors of subscribers that never returned; pruned
        cursors stop gating retention's slowest-cursor floor."""
        if self.cursors is None:
            return []
        pruned = self.cursors.prune(max_idle_incarnations)
        for name in pruned:
            self.tracker.forget_cursor(name)
        if pruned:
            self._update_retention_floor()
        return pruned

    def slowest_cursor(self) -> Optional[int]:
        if self.cursors is None:
            return None
        return self.cursors.min_offset()

    def compact(self, key_of=None) -> Dict[str, object]:
        """Key-aware compaction bounded by the slowest cursor: records a
        durable subscriber has not acknowledged are never rewritten away,
        however stale their keys."""
        if self.event_log is None:
            return {}
        return self.event_log.compact(retain_from=self.slowest_cursor(),
                                      key_of=key_of)

    def close(self) -> None:
        """Checkpoint and close the cursor store (the checkpoint syncs
        the log first), then close the log."""
        if self.cursors is not None:
            self.cursors.close()
        if self.event_log is not None:
            self.event_log.close()


# ---------------------------------------------------------------------------
# cross-shard replication
# ---------------------------------------------------------------------------


class ReplicationStage:
    """Streams durably appended *origin* records to follower shards.

    Hooked directly after :class:`DurabilityStage` in the pipeline: every
    record this shard appends as the admitting (home) broker is buffered
    per follower and drained — alongside the
    :class:`BufferedDelivery` buffers, on the same flush cycle — as ONE
    ``replicate`` message per follower per drain, however many records it
    covers.  Followers store the records in per-origin replica logs *at
    the origin's offsets*, so a re-sent batch is idempotently absorbed
    (:meth:`~repro.persistence.log.EventLog.append_at`).

    The coverage protocol is watermark-based, Kafka style: each batch
    claims ``[from, last record)`` contiguity in the origin's offset
    space.  A follower whose replica high-water is below ``from`` has a
    gap (a dropped earlier batch) and rejects the whole message; either
    way it answers with a one-way ``replicate_ack`` carrying its
    high-water.  An ack below what this stage already claimed triggers a
    rebuild of the follower's queue straight from the event log
    (:meth:`acknowledge`), so a lossy fabric converges instead of
    silently leaving holes.  Forwarded-in records (payloads carrying a
    ``home`` attribute — some *other* shard's origin records) are never
    re-replicated: exactly one shard is authoritative for each record.
    """

    def __init__(self, host: Any, event_log: EventLog,
                 stats: Optional[PipelineStats] = None):
        self.host = host
        self.event_log = event_log
        self.stats = stats if stats is not None else PipelineStats()
        self.followers: List[str] = []
        #: follower -> records (offset, origin, payload) queued for the
        #: next flush, in offset order.
        self._queues: Dict[str, List[Tuple[int, str, bytes]]] = {}
        #: follower -> high edge of the contiguous coverage claimed so
        #: far (the ``from`` of the next batch).  First populated at the
        #: first enqueue — a fresh incarnation must not claim coverage of
        #: records it never sent.
        self.sent: Dict[str, int] = {}
        #: follower -> high-water the follower last acknowledged: the
        #: replication watermark, below which the follower's replica log
        #: is known to hold every surviving origin record.
        self.acked: Dict[str, int] = {}
        self.batches_sent = 0
        self.records_sent = 0

    def set_followers(self, followers: Sequence[str]) -> None:
        self.followers = [follower for follower in followers
                          if follower != self.host.peer_id]

    def record_appended(self, offset: int, origin: str,
                        payload: bytes) -> None:
        """Queue one just-appended origin record for every follower."""
        if not self.followers:
            return
        for follower in self.followers:
            if follower not in self.sent:
                self.sent[follower] = offset
            self._queues.setdefault(follower, []).append(
                (offset, origin, payload))
        self.stats.records_replicated += 1

    def pending(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def flush(self) -> int:
        """One ``replicate`` message per follower with queued records;
        returns the number of messages enqueued on the fabric."""
        sent = 0
        for follower, queue in self._queues.items():
            if not queue:
                continue
            message = self.host._wire_codec.serialize({
                "from": self.sent[follower],
                "records": [
                    {"offset": offset, "origin": origin, "payload": payload}
                    for offset, origin, payload in queue
                ],
            })
            try:
                self.host.post_async(follower, KIND_REPLICATE, message)
            except UnknownPeerError:
                # The follower is off the fabric (mid-restart): keep the
                # queue — the next flush retries, and the watermark
                # protocol heals whatever its replacement missed.
                self.host.network.stats.record_drop()
                continue
            self.batches_sent += 1
            self.records_sent += len(queue)
            self.sent[follower] = queue[-1][0] + 1
            queue.clear()
            sent += 1
        return sent

    def acknowledge(self, follower: str, watermark: int) -> None:
        """Record a follower's high-water; a watermark below the claimed
        coverage means the follower missed a batch — rebuild its queue
        from the log so the hole is re-sent (at-least-once; the replica
        log absorbs the duplicates).  The comparison uses the monotonic
        ``acked`` high-water, not the raw incoming value: one-way acks
        can reorder on the fabric, and a stale ack arriving after a newer
        one must not trigger a spurious full-range resend."""
        self.acked[follower] = max(self.acked.get(follower, 0), watermark)
        claimed = self.sent.get(follower)
        if claimed is None or self.acked[follower] >= claimed:
            return
        watermark = self.acked[follower]
        self.stats.replication_resends += 1
        self._queues[follower] = [
            (record.offset, record.origin, record.payload)
            for record in own_records(self.event_log, watermark)]
        self.sent[follower] = watermark

    def ensure_coverage(self) -> int:
        """Probe every follower this incarnation has not replicated to
        yet; returns the number of probes queued.

        A membership change (or a follower-set reshuffle after one) can
        assign a follower that holds none — or only part — of this
        shard's history.  Queuing an empty batch claiming
        ``[next_offset, next_offset)`` makes that follower answer with
        its actual high-water; if it is behind, :meth:`acknowledge`
        rebuilds its queue from the log and the normal gap-resend
        protocol backfills exactly what it is missing.  Followers already
        tracked in ``sent`` need no probe — their coverage claims are
        live and self-healing.
        """
        probes = 0
        for follower in self.followers:
            if follower in self.sent:
                continue
            claim = self.event_log.next_offset
            message = self.host._wire_codec.serialize(
                {"from": claim, "records": []})
            try:
                self.host.post_async(follower, KIND_REPLICATE, message)
            except UnknownPeerError:
                # Off the fabric (mid-restart): leave it unprobed so a
                # later ensure_coverage pass retries.
                self.host.network.stats.record_drop()
                continue
            self.sent[follower] = claim
            self._queues.setdefault(follower, [])
            self.batches_sent += 1
            probes += 1
        return probes

    def watermarks(self) -> Dict[str, Dict[str, int]]:
        """Per-follower replication positions (the observability surface).

        ``lag`` is the follower's total replication debt: records queued
        but not yet sent, plus the sent-but-unacknowledged in-flight
        depth (``sent - acked``, an offset-space upper bound).  A stalled
        follower shows a growing ``lag`` even when its queue is empty —
        the depth the plain sent/acked/queued triple left invisible.
        """
        out: Dict[str, Dict[str, int]] = {}
        for follower in self.followers:
            sent = self.sent.get(follower, 0)
            acked = self.acked.get(follower, 0)
            queued = len(self._queues.get(follower, ()))
            out[follower] = {
                "sent": sent,
                "acked": acked,
                "queued": queued,
                "lag": max(0, sent - acked) + queued,
            }
        return out


# ---------------------------------------------------------------------------
# delivery disciplines
# ---------------------------------------------------------------------------


class BufferedDelivery:
    """Per-destination frame buffers drained into ONE message each — the
    data plane of every network broker.  Routing a record only queues its
    frame for each destination peer (and, via :meth:`buffer_forward`,
    each sibling shard); :meth:`flush` joins every destination's frames
    into one network message, however many records and matching
    subscriptions it covers.  No value is decoded or re-encoded: a
    subscriber frame is the record's frame less ``keys`` and ``home``
    (one splice per record, shared by every destination, or one per
    message when it also takes the ack token), and a forward is the
    frame with a ``home`` stamp."""

    isolate_failures = True

    def __init__(self, host: Any, durability: Optional[DurabilityStage],
                 forward_kind: Optional[str] = None):
        self.host = host
        self.durability = durability
        self.forward_kind = forward_kind
        #: Destination peer -> (frame bytes, value count, ack ranges,
        #: trace id) per record; the ack ranges are the durable-cursor
        #: ``[start, end)`` offsets the record covers for that peer.
        self._outgoing: Dict[str, List[Tuple[bytes, int,
                                             Dict[str, List[int]],
                                             Optional[str]]]] = {}
        #: Sibling shard -> (frame bytes, value count, home-record
        #: offset) per record — the offset travels as the envelope's
        #: ``home`` attribute so the receiving shard's stored copy stays
        #: attributable to this shard's log record.
        self._forwards: Dict[str, List[Tuple[bytes, int,
                                             Optional[int]]]] = {}
        self.batch_events = 0
        self.forwards_sent = 0
        self.forward_events = 0

    def begin(self, batch: Any, origin: Optional[str],
              log_offset: Optional[int], payload: Optional[bytes],
              trace: Optional[str]) -> dict:
        return {"payload": payload, "count": len(batch),
                "frame_acks": None, "trace": trace}

    def remote(self, ctx: dict, subscription: Any, batch: Any, index: int,
               log_offset: Optional[int]) -> bool:
        """Queue the record's frame for a destination peer; answers
        whether the record travels to ``subscription``.  The flush sends
        it as a :func:`subscriber_frame`.

        The whole record travels once per peer however many of its values
        (or the peer's subscriptions) match — the receiver's own admission
        gate filters per value, header-only.
        """
        cursor = cursor_name_of(subscription)
        if log_offset is not None and cursor is not None \
                and self.durability is not None \
                and self.durability.tracker.blocks.get(cursor) is not None:
            # The cursor is pinned below a once-failed (undelivered)
            # range.  Delivering this later record now would either let
            # its cumulative ack strand the gap or double-deliver it
            # under the replay that fills the gap — the record is in the
            # log, so the blocked-cursor replay redelivers it in order
            # instead (see MeshShard.retry_stalled_replays).
            return False
        frame_acks = ctx["frame_acks"]
        if frame_acks is None:
            frame_acks = ctx["frame_acks"] = {}
        peer_acks = frame_acks.get(subscription.peer_id)
        if peer_acks is None:
            peer_acks = frame_acks[subscription.peer_id] = {}
        if log_offset is not None and cursor is not None:
            window = peer_acks.get(cursor)
            if window is None:
                peer_acks[cursor] = [log_offset, log_offset + 1]
            else:
                window[0] = min(window[0], log_offset)
                window[1] = max(window[1], log_offset + 1)
        return True

    def finish(self, ctx: dict) -> None:
        frame_acks = ctx.get("frame_acks")
        if not frame_acks:
            return
        payload = ctx["payload"]
        count = ctx["count"]
        for peer_id, acks in frame_acks.items():
            self._outgoing.setdefault(peer_id, []).append(
                (payload, count, acks, ctx["trace"]))

    def buffer_forward(self, shard_id: str, payload: bytes, count: int,
                       log_offset: Optional[int] = None) -> None:
        """Queue one record's frame for a sibling shard — forwarded
        verbatim (plus a ``home`` stamp at flush), zero value decodes."""
        self._forwards.setdefault(shard_id, []).append(
            (payload, count, log_offset))

    def pending(self) -> int:
        return (sum(len(frames) for frames in self._outgoing.values())
                + sum(len(frames) for frames in self._forwards.values()))

    def flush(self) -> int:
        """Enqueue ONE message per buffered destination.

        Returns the number of network messages enqueued.  A destination
        with several buffered records gets their frames joined into a
        single multi-frame container.  One ack token covers every
        durable window in the message; stamping it splices a single
        frame's header, never a payload.
        """
        codec = self.host.codec
        sent = 0
        tracker = self.durability.tracker if self.durability else None
        # One subscriber frame per record, shared across destinations.
        stripped: Dict[int, bytes] = {}
        for dst, buffered in self._outgoing.items():
            frames: List[bytes] = []
            events = 0
            acks: Dict[str, List[int]] = {}
            traces: List[str] = []
            for payload, count, record_acks, trace in buffered:
                frames.append(payload)
                events += count
                _merge_ack_windows(acks, record_acks)
                if trace is not None:
                    traces.append(trace)
            # A message covering durable subscriptions carries an ack that
            # advances their cursors through the logged offset ranges.
            ranges = tuple((name, window[0], window[1])
                           for name, window in sorted(acks.items())) \
                if acks else ()
            if not send_frames(self.host, tracker, dst, frames, events,
                               ranges, traces, stripped):
                continue  # the destination left
            self.batch_events += events
            sent += 1
        self._outgoing.clear()
        # One home-stamped copy per record (a pure header rewrite),
        # shared across sibling shards.
        stamped: Dict[int, bytes] = {}
        for shard_id, buffered in self._forwards.items():
            frames = []
            events = 0
            for payload, count, log_offset in buffered:
                out = stamped.get(id(payload))
                if out is None:
                    if log_offset is not None:
                        out = codec.reframe(payload, home=encode_home(
                            self.host.peer_id, [log_offset] * count))
                    else:
                        out = payload
                    stamped[id(payload)] = out
                frames.append(out)
                events += count
            try:
                self.host.post_async(shard_id, self.forward_kind,
                                     codec.join_frames(frames))
            except UnknownPeerError:
                self.host.network.stats.record_drop()
                continue
            self.forwards_sent += 1
            self.forward_events += events
            sent += 1
        self._forwards.clear()
        return sent


class LocalDelivery:
    """In-process delivery only (the :class:`LocalBroker` adapter): no
    network, no durability, and handler exceptions propagate to the
    publisher exactly as a direct function call would."""

    isolate_failures = False

    def begin(self, batch, origin, log_offset, payload, trace) -> dict:
        return {}

    def remote(self, ctx, subscription, batch, index, log_offset) -> bool:
        raise NetworkError("local pipeline cannot deliver to remote "
                           "subscription %r" % (subscription,))

    def finish(self, ctx) -> None:
        pass


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


class DeliveryPipeline:
    """Admission -> conformance -> durable append -> dispatch -> ack.

    One instance per broker; ``process()`` is the single code path every
    admitted record travels, live or forwarded, and ``replay()`` drives a
    durable subscription's backlog through the same conformance check and
    ack machinery as live traffic.
    """

    def __init__(self, index: RoutingIndex,
                 delivery: Any,
                 durability: Optional[DurabilityStage] = None,
                 admission: Optional[AdmissionStage] = None,
                 stats: Optional[PipelineStats] = None,
                 forwarder: Optional[Callable[
                     [Any, Optional[str], Optional[int], Optional[bytes]],
                     None]] = None,
                 host: Any = None,
                 replication: Optional[ReplicationStage] = None,
                 tracer: Any = None):
        self.index = index
        self.delivery = delivery
        self.durability = durability
        self.admission = admission
        self.stats = stats if stats is not None else PipelineStats()
        self.forwarder = forwarder
        self.host = host
        self.replication = replication
        #: Optional per-shard span ring (:class:`repro.obs.tracing
        #: .TraceBuffer`); spans are recorded only for records whose
        #: envelope carries a trace id, so untraced records pay one
        #: attribute read.
        self.tracer = tracer

    # -- live path --------------------------------------------------------

    def process(self, batch: Any, origin: Optional[str],
                payload: Optional[bytes] = None,
                log_offset: Optional[int] = None,
                pre_logged: bool = False,
                forward: bool = False,
                trace: Optional[str] = None) -> Processed:
        """Run one admitted record through every stage.

        ``batch`` exposes ``len``, ``root_type(i)`` and ``value(i)``
        (a :class:`~repro.serialization.envelope.LazyBatch` or a
        :class:`ValueBatch`): targets come from the root types, and a
        value is materialized only when an in-process handler receives
        it.  ``payload`` is the record's frame, which a network broker
        always has: it is appended to the log when durability is enabled
        — unless ``pre_logged`` marks it already appended (the forward
        path logs *before* it loads code, so a transient code-fetch
        failure cannot lose the record) with ``log_offset`` carrying the
        record's offset — and it is what replication, forwarding and
        remote delivery send.  ``forward`` routes the record through the
        pipeline's forwarder hook (the mesh shard's summary-gated
        cross-shard buffering).  ``trace`` is the record's trace id.
        """
        tracer = self.tracer
        if tracer is None:
            trace = None
        if not pre_logged and self.durability is not None:
            log_offset = self.durability.append_payload(payload,
                                                        origin or "")
        if trace is not None and log_offset is not None:
            tracer.record(trace, "append", {"offset": log_offset})
        if not pre_logged and log_offset is not None \
                and self.replication is not None:
            # Replication covers exactly the records this shard is the
            # home of — forwarded-in copies arrive ``pre_logged`` and are
            # some other shard's responsibility.  The payload bytes go as
            # they are: zero value decodes.
            self.replication.record_appended(log_offset, origin or "",
                                             payload)
            if trace is not None and self.replication.followers:
                tracer.record(trace, "replicate", {
                    "offset": log_offset,
                    "followers": list(self.replication.followers),
                })
        self.stats.records_processed += 1
        if trace is not None:
            tracer.record(trace, "route", {"records": len(batch)})
        local_acks: Dict[str, bool] = {}
        ctx = self.delivery.begin(batch, origin, log_offset, payload, trace)
        deliveries = self._fan_out(ctx, batch, origin, log_offset, local_acks)
        if trace is not None:
            tracer.record(trace, "dispatch", {"deliveries": deliveries})
        if forward and self.forwarder is not None:
            self.forwarder(batch, origin, log_offset, payload)
        self.delivery.finish(ctx)
        if self.durability is not None:
            self.durability.settle_local(local_acks, log_offset)
        return Processed(log_offset, deliveries)

    def _fan_out(self, ctx: dict, batch: Any, origin: Optional[str],
                 log_offset: Optional[int],
                 local_acks: Dict[str, bool]) -> int:
        """Route a record's values, in record order, to every conforming
        subscription (the single fan-out loop all three brokers share),
        deciding once per record and root type: the values of one root
        type share one route pass, and a remote subscription is asked to
        send the record once.  Counts stay per value.  When a handler
        changes the routing index, the record's later values re-route, as
        they would on their own.

        Between the first values of the record's root types, the values
        of types already routed are counted per root type, not walked one
        by one, whenever walking them could only count (see
        :meth:`_settled`)."""
        if len(batch) == 1:
            event_type = batch.root_type(0)
            if event_type is None:
                return 0  # admission guarantees resolvability; defensive
            return self._fan_out_value(ctx, batch, 0,
                                       self.index.route(event_type),
                                       None, origin, log_offset, local_acks)
        roots = batch.root_keys()
        firsts = distinct_roots(batch)
        #: Root key -> (routing stamp, the recorded route pass, and the
        #: live member table of each of its groups).
        passes: Dict[Any, Tuple[Any, List[Tuple[RouteEntry, List[Any]]],
                                List[Dict[int, Any]]]] = {}
        #: Ids of the remote subscriptions the record travelled to.
        sent: Set[int] = set()
        deliveries = 0
        for first, stop in zip(firsts, list(firsts[1:]) + [len(roots)]):
            deliveries += self._fan_out_values(
                ctx, batch, roots, first, first + 1, passes, sent, origin,
                log_offset, local_acks)
            if stop == first + 1:
                continue
            run = Counter(roots[first + 1:stop])
            settled = [(count, self._settled(passes.get(key), sent, origin))
                       for key, count in run.items()]
            if any(counted is None for _, counted in settled):
                deliveries += self._fan_out_values(
                    ctx, batch, roots, first + 1, stop, passes, sent, origin,
                    log_offset, local_acks)
                continue
            for count, counted in settled:
                for subscription in counted:
                    subscription.delivered += count
                self.stats.events_routed += count * len(counted)
                deliveries += count * len(counted)
        return deliveries

    def _fan_out_values(self, ctx: dict, batch: Any, roots: Sequence[Any],
                        start: int, stop: int, passes: Dict[Any, Any],
                        sent: Set[int], origin: Optional[str],
                        log_offset: Optional[int],
                        local_acks: Dict[str, bool]) -> int:
        """Fan out values ``start`` to ``stop - 1`` one by one, reusing
        and recording route passes in ``passes``."""
        routing_index = self.index
        deliveries = 0
        for index in range(start, stop):
            key = roots[index]
            stamp = routing_index.stamp
            recorded = passes.get(key)
            if recorded is not None and recorded[0] == stamp:
                targets = recorded[1]
                if len(targets) > 1:
                    # A handler could change the index between entries.
                    targets = self._replayed(targets, recorded[2], stamp)
                deliveries += self._fan_out_value(
                    ctx, batch, index, targets, sent, origin, log_offset,
                    local_acks)
                continue
            event_type = batch.root_type(index)
            if event_type is None:
                continue
            record: List[Tuple[RouteEntry, List[Any]]] = []
            members: List[Dict[int, Any]] = []
            deliveries += self._fan_out_value(
                ctx, batch, index, self._recorded(event_type, record, members),
                sent, origin, log_offset, local_acks)
            if routing_index.stamp == stamp:
                passes[key] = (stamp, record, members)
        return deliveries

    def _settled(self, recorded: Any, sent: Set[int],
                 origin: Optional[str]) -> Optional[List[Any]]:
        """The subscriptions one more value of a routed root type counts
        for, or ``None`` when walking that value could do more than count:
        the routing index moved since its pass, or a subscription of the
        pass is not in ``sent`` — an in-process handler (which is never
        sent to) or a remote subscription the record did not travel to
        (it is asked again)."""
        if recorded is None or recorded[0] != self.index.stamp:
            return None
        counted = []
        for _, subscriptions in recorded[1]:
            for subscription in subscriptions:
                if origin is not None and subscription.peer_id == origin:
                    continue
                if subscription.subscription_id not in sent:
                    return None
                counted.append(subscription)
        return counted

    def _recorded(self, event_type: Any,
                  record: List[Tuple[RouteEntry, List[Any]]],
                  members: List[Dict[int, Any]]):
        """One route pass, appended to ``record`` as it goes, with each
        group's live member table in ``members`` (the pass is reused only
        if the index did not change under it, so those are the tables
        the pass read)."""
        routing_index = self.index
        for target in routing_index.route(event_type):
            record.append(target)
            members.append(routing_index.group_members(target[0].expected))
            yield target

    def _replayed(self, record: List[Tuple[RouteEntry, List[Any]]],
                  members: List[Dict[int, Any]], stamp: Any):
        """Yield a recorded route pass again.  Should a handler change the
        routing index part-way, each later group's subscriptions are read
        when it is reached, as a pass of this value's own would read
        them."""
        routing_index = self.index
        for position, target in enumerate(record):
            if routing_index.stamp != stamp:
                target = (target[0], list(members[position].values()))
            yield target

    def _fan_out_value(self, ctx: dict, batch: Any, index: int,
                       targets: Any, sent: Optional[Set[int]],
                       origin: Optional[str], log_offset: Optional[int],
                       local_acks: Dict[str, bool]) -> int:
        """Deliver value ``index`` to ``targets`` (``(entry,
        subscriptions)`` pairs).  The value is materialized only for
        in-process handlers (final local delivery — the one paid
        decode); remote subscribers get the record's frame, asked for
        once per record when ``sent`` keeps the ids it travelled to."""
        deliveries = 0
        value: Any = None
        for entry, subscriptions in targets:
            view: Any = _UNBUILT
            for subscription in subscriptions:
                if origin is not None and subscription.peer_id == origin:
                    continue  # do not echo events back to their publisher
                if subscription.handler is not None:
                    if view is _UNBUILT:
                        # Built once per entry and shared by its whole
                        # group: proxies are stateless translators.
                        if value is None:
                            value = batch.value(index)
                        view = entry.view(value, self.index.checker)
                    ok = self._deliver_local(subscription, view, log_offset)
                    if log_offset is not None:
                        cursor = cursor_name_of(subscription)
                        if cursor is not None:
                            local_acks[cursor] = (local_acks.get(cursor, True)
                                                  and ok)
                    if not ok:
                        continue  # failures must not abort the fan-out
                elif sent is None or subscription.subscription_id not in sent:
                    if not self.delivery.remote(ctx, subscription, batch,
                                                index, log_offset):
                        continue
                    if sent is not None:
                        sent.add(subscription.subscription_id)
                subscription.delivered += 1
                self.stats.events_routed += 1
                deliveries += 1
        return deliveries

    def _deliver_local(self, subscription: Any, view: Any,
                       log_offset: Optional[int],
                       cursor: Optional[str] = None) -> bool:
        """Run one in-process handler on ``view``.  With ``isolate_failures`` the
        handler's exceptions are counted and contained — and, for durable
        subscriptions, the cursor is pinned below the failed record until
        a replay succeeds.  ``cursor`` overrides which cursor the failure
        block lands on (foreign replay pins the fetch cursor, whose
        offset space ``log_offset`` then belongs to)."""
        if not self.delivery.isolate_failures:
            subscription.handler(view)
            return True
        try:
            subscription.handler(view)
            return True
        except Exception:
            self.stats.delivery_failures += 1
            if cursor is None:
                cursor = cursor_name_of(subscription)
            if log_offset is not None and cursor is not None \
                    and self.durability is not None:
                self.durability.tracker.block(cursor, log_offset)
            return False

    # -- replay path ------------------------------------------------------

    def replay(self, subscription: Any, fresh: bool = False) -> int:
        """Replay retained records in ``[cursor, log end)`` to one durable
        subscription (see :meth:`_replay_pass`); returns the number of
        conforming values delivered."""
        durability = self.durability
        log = durability.event_log
        cursor_offset = durability.cursors.get(subscription.cursor_name)
        start = max(cursor_offset, log.first_offset)
        if start > cursor_offset and not fresh:
            # Retention dropped records this (pre-existing) subscriber
            # never received — surface the gap instead of silently
            # clamping past it.  A brand-new cursor starting on an aged
            # log missed nothing; it simply begins at the retained head.
            self.stats.retention_lost_records += start - cursor_offset
        return self._replay_pass(subscription, subscription.cursor_name,
                                 log.replay(start, log.next_offset))

    def replay_foreign(self, subscription: Any, origin_shard: str,
                       records: Any, upto: Optional[int] = None,
                       seen: Any = None, floor: int = 0,
                       ceiling: Optional[int] = None) -> int:
        """Deliver another shard's origin records to one durable
        subscription, tracked by the per-``(cursor, origin shard)`` fetch
        cursor — offsets here live in ``origin_shard``'s space, never the
        local log's.  Delivered values count as ``events_fetched``.

        ``records`` is a stream of that shard's records (from the local
        replica log, or a conformance-filtered ``backlog_fetch``
        response); ``upto`` is the position the stream scanned through
        (consumed even when the last records were filtered out);
        ``seen`` maps ``(shard, offset)`` home ids already present in
        the local log to the local offset of the forwarded-in copy —
        records that were forwarded here at publish time replay through
        the *local* path and must not arrive twice.

        ``floor``/``ceiling`` bound the local offsets the subscription's
        LOCAL replay path actually covers — only copies inside
        ``[floor, ceiling)`` count as seen; anything outside must be
        delivered by this foreign pass rather than skipped.  An
        *adopted* subscription's base cursor starts at the adoption-time
        log end (``floor`` — copies below it are invisible to its local
        replay); a subscription being HANDED OFF stops its local
        delivery at the settled cursor frontier (``ceiling`` — copies at
        or above it were logged after deactivation and never
        delivered).  The defaults (0, unbounded) make every local copy
        count as seen — the ordinary-subscription behavior.
        """
        seen = seen or {}

        def already_seen(record):
            local = seen.get((origin_shard, record.offset))
            return (local is not None and local >= floor
                    and (ceiling is None or local < ceiling))

        return self._replay_pass(
            subscription,
            foreign_cursor_name(subscription.cursor_name, origin_shard),
            records, skip=already_seen, tail=upto, counter="events_fetched")

    def conforming_from_record(self, record: Any, fallback_src: str,
                               expected: Any
                               ) -> Optional[Tuple[Any, List[Tuple[int, Any]]]]:
        """The record's batch and the ``(index, route entry)`` of each of
        its values conforming to ``expected``, decided on root types
        through the cached routing verdicts at zero value decodes, once
        the code of its types is loaded.  ``None`` (after counting the
        failure): unservable right now, halt the pass."""
        batch = self.admission.admit_record(record, fallback_src)
        if batch is None:
            return None
        lookup = self.index.lookup
        matched = []
        for index in range(len(batch)):
            entry = lookup(batch.root_type(index), expected)
            if entry is not None:
                matched.append((index, entry))
        return batch, matched

    def _replay_pass(self, subscription: Any, cursor: str, records: Any,
                     skip: Optional[Callable[[Any], bool]] = None,
                     tail: Optional[int] = None,
                     counter: str = "events_replayed") -> int:
        """Replay stored ``records`` (the local log, a replica log, a
        fetched page: any offset-ordered stream) to one durable
        subscription, acked against ``cursor``; returns the conforming
        values delivered, also counted under the :class:`PipelineStats`
        slot ``counter``.

        A remote subscription gets each matching record's
        :func:`subscriber_frame` — the stored frame less ``keys`` and
        ``home``, trace id and encoding intact — up to
        :data:`REPLAY_BATCH_RECORDS` frames per message under ONE
        cumulative ack token.  A record that mixes in other values
        travels whole, as on the live path; the receiver rejects those
        from the header.  An in-process handler gets its matched values
        (the only decodes) and acks record by record.

        A record with nothing to deliver (non-conforming, self-origin,
        ``skip``-ped) is consumed, and so is everything below ``tail``,
        how far the source scanned.  A failure (unservable record,
        handler crash, unreachable subscriber) halts the pass: going on
        would let a later cumulative ack mark the failed record acked.
        """
        durability = self.durability
        tracker = durability.tracker
        stats = self.stats
        checker = self.index.checker
        fallback_src = subscription.peer_id or self.host.peer_id
        replayed = 0
        frames: List[bytes] = []
        values = matched = start = end = 0
        # Where a run of skipped records lets the cursor move while no
        # message is open: one advance (one cursor-file write) per run,
        # made before the next token is issued, not one per record.
        idle_target: Optional[int] = None

        def count(delivered: int) -> None:
            nonlocal replayed
            subscription.delivered += delivered
            setattr(stats, counter, getattr(stats, counter) + delivered)
            replayed += delivered

        def flush() -> bool:
            nonlocal values, matched, idle_target
            if idle_target is not None:
                durability.advance_if_idle(cursor, idle_target, touch=False)
                idle_target = None
            if not frames:
                return True
            sent = send_frames(self.host, tracker, subscription.peer_id,
                               frames, values, ((cursor, start, end),))
            frames.clear()
            if not sent:
                # No route to the subscriber right now (it may simply not
                # have dialed this shard yet — e.g. a freshly adopted
                # subscription on a just-joined shard).  The discarded
                # token blocks the cursor below the message, so a later
                # retry redelivers instead of cumulatively acking the
                # records away.
                stats.replay_unreachable += 1
                return False
            # A once-failed (blocked) record inside this message went back
            # out: lift the block so the coming ack can advance past it.
            tracker.clear_block_through(cursor, end - 1)
            count(matched)
            values = matched = 0
            return True

        def consume(offset: int) -> None:
            """Fold a record with nothing to send into the open message's
            ack range, or ack it directly when nothing is in flight —
            never re-scanned forever, never skipping an in-flight
            delivery."""
            nonlocal end, idle_target
            # A skipped record needs no delivery, so a block pinned at it
            # (a once-failed range whose records were since consumed
            # elsewhere — e.g. delivered through the local path) must not
            # hold the cursor forever.
            tracker.clear_block_through(cursor, offset)
            if frames:
                end = offset + 1
            else:
                idle_target = offset + 1

        for record in records:
            if (skip is not None and skip(record)) or (
                    record.origin and record.origin == subscription.peer_id):
                consume(record.offset)  # own events are never echoed
                continue
            found = self.conforming_from_record(record, fallback_src,
                                                subscription.expected)
            if found is None:
                # Deliver what already accumulated (its ack stops below
                # the failed record), then halt the pass.
                flush()
                return replayed
            batch, conforming = found
            if not conforming:
                consume(record.offset)
                continue
            if subscription.handler is not None:
                flush()  # the skipped run before this record is acked
                for index, entry in conforming:
                    try:
                        value = batch.value(index)
                    except SerializationError:
                        # The header promised a value the body cannot
                        # yield: a corrupt record is unservable, exactly
                        # like one whose code cannot be fetched.
                        stats.replay_failures += 1
                        return replayed
                    if not self._deliver_local(
                            subscription, entry.view(value, checker),
                            record.offset, cursor=cursor):
                        return replayed  # unacked: the pass stops here
                    count(1)
                tracker.clear_block_through(cursor, record.offset)
                durability.advance(cursor, record.offset + 1)
                continue
            if len(frames) >= REPLAY_BATCH_RECORDS and not flush():
                return replayed
            if not frames:
                start = record.offset
            frames.append(record.payload)
            values += len(batch)
            matched += len(conforming)
            end = record.offset + 1
        if tail is not None:
            consume(tail - 1)  # records the source filtered out
        flush()
        return replayed
