"""Sharded broker mesh with batched, queue-driven event delivery.

The paper's TPS vision (Section 8) needs event dissemination that scales
past one broker.  The single :class:`~repro.apps.tps.broker.TpsBroker`
is one peer sending one message per subscriber peer per inbound publish
— every publish costs O(subscribers) messages, each carrying the
record's frame again.  The mesh refactors that data plane:

- **Sharding** — N broker shards on one fabric; each publisher and
  subscriber has a *home shard* chosen by rendezvous (highest-random-
  weight) hashing, so placement is deterministic, uniform, and stable
  when shards are added or removed.
- **Summaries** — a shard's summary is the set of expected types its
  subscriptions expect (GUID and description each).  It announces the
  whole set to every sibling when the set changes, and a sibling
  replaces what it held for that shard.  A publish is forwarded only to
  shards hosting at least one *conforming* subscriber: each shard keeps
  a second :class:`~repro.apps.tps.routing.RoutingIndex` over the
  summaries, so the forward decision reuses the same cached conformance
  verdicts as local routing.  An event nobody else wants crosses zero
  shard boundaries.
- **Batched, queue-driven delivery** — routing a record *buffers* its
  frame per destination; nothing is sent inside the publisher's call
  stack.  Draining the mesh joins, per destination, the buffered frames
  into ONE network message, however many records and matching
  subscriptions it covers; the frames are never decoded or re-encoded,
  and a subscriber gets each less its ``keys`` and ``home`` attributes
  (one header splice per record).
- **Mesh-wide replay** — a durable subscriber's backlog is completed
  from this shard's log, its replica logs of siblings and pages fetched
  from siblings (``backlog_fetch``, which serves stored frames whole);
  every source is a plain stream of stored records fed to the
  pipeline's one replay pass, which relays their frames the same way.

A shard is the same :class:`~repro.apps.tps.pipeline.DeliveryPipeline`
as the single broker, with the same
:class:`~repro.apps.tps.pipeline.BufferedDelivery` dispatch, plus a
summary-gated forwarder hook that buffers cross-shard copies.  Only
when the buffers drain differs: the single broker sends before its
inbound message's handler returns, a shard when the mesh pumps it.
Control-plane traffic (subscribe/unsubscribe, summary announcements, the
description/code fetches of Figure 1) stays on the synchronous request
path, exactly as in the paper; only the one-way event fan-out is queued.
"""

from __future__ import annotations

import os
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)
from urllib.parse import quote, unquote

from ...describe.xml_codec import description_bytes, description_type
from ...net.network import (
    MessageDropped,
    NetworkError,
    SimulatedNetwork,
    UnknownPeerError,
)
from ...obs.bridge import register_mesh_shard_metrics
from ...persistence import EventLog
from ...persistence.log import LogRecord
from ...serialization.envelope import decode_home, envelope_home, split_frames
from ...transport.protocol import (
    KIND_BACKLOG_FETCH,
    KIND_PUBLISH_ACK,
    KIND_REPLICA_PULL,
    KIND_REPLICATE,
    KIND_REPLICATE_ACK,
)
from .broker import DurableSubscription, Subscription, TpsBroker
from .pipeline import (
    AdmissionStage,
    BufferedDelivery,
    DeliveryPipeline,
    PipelineStats,
    ReplicationStage,
    distinct_roots,
    foreign_cursor_name,
    own_records,
)
from .routing import RoutingIndex
from .topology import (
    MeshConfig,
    Topology,
    removal_topology,
    rendezvous_rank,
    rendezvous_shard,
)

__all__ = [
    "BrokerMesh",
    "MeshShard",
    "ReplicaSet",
    "Topology",
    "rendezvous_rank",
    "rendezvous_shard",
    "KIND_MESH_FORWARD",
    "KIND_MESH_SUMMARY",
    "KIND_MESH_SYNC",
    "KIND_MESH_HANDOFF",
    "mesh_stats",
]

KIND_MESH_FORWARD = "mesh_forward"
KIND_MESH_SUMMARY = "mesh_summary"
KIND_MESH_SYNC = "mesh_sync"
#: Durable-subscription migration: the leaving shard asks the new home
#: to adopt one subscription (cursor name, owner, type description, and
#: the per-origin cursor position vector).
KIND_MESH_HANDOFF = "mesh_handoff"


def _page_records(message: Dict[str, Any]) -> Iterator[LogRecord]:
    """The stored records a ``replicate`` message or a record server's
    page carries (see :meth:`MeshShard._records_reply`)."""
    return (LogRecord(item["offset"], item["origin"], item["payload"])
            for item in message["records"])


class ReplicaSet:
    """The per-origin replica logs one shard keeps for its siblings.

    Each origin shard that replicates here gets its own
    :class:`~repro.persistence.EventLog` under ``root/<origin>/``,
    holding that origin's records *at the origin's offsets* — the
    directory's ``next_offset`` doubles as the per-origin high-water mark
    that makes re-sent replication batches idempotent.  Logs are opened
    lazily (first batch received, or first replay over a directory a
    previous incarnation left behind).
    """

    def __init__(self, root: str):
        self.root = root
        self._logs: Dict[str, EventLog] = {}

    def _directory(self, origin: str) -> str:
        return os.path.join(self.root, quote(origin, safe=""))

    def log_for(self, origin: str, create: bool = True) -> Optional[EventLog]:
        log = self._logs.get(origin)
        if log is None:
            if not create and not os.path.isdir(self._directory(origin)):
                return None
            log = self._logs[origin] = EventLog(self._directory(origin))
        return log

    def origins(self) -> List[str]:
        found = set(self._logs)
        if os.path.isdir(self.root):
            found.update(unquote(name) for name in os.listdir(self.root))
        return sorted(found)

    def high_water(self, origin: str) -> int:
        log = self.log_for(origin, create=False)
        return log.next_offset if log is not None else 0

    def stats(self) -> Dict[str, Dict[str, int]]:
        snapshot = {}
        for origin in self.origins():
            log = self.log_for(origin, create=False)
            if log is not None:
                snapshot[origin] = {
                    "records": log.record_count,
                    "first_offset": log.first_offset,
                    "next_offset": log.next_offset,
                    "bytes": log.size_bytes,
                }
        return snapshot

    def close(self) -> None:
        for log in self._logs.values():
            log.close()
        self._logs.clear()


class MeshShard(TpsBroker):
    """One broker shard: routes locally, forwards by summary, sends in
    batches.

    Publishes (``object`` messages from publishers) are routed into
    per-destination buffers instead of being posted inline; forwarded
    events arriving from sibling shards (``mesh_forward``) are routed the
    same way but never re-forwarded, so an event crosses at most one
    shard boundary and forwarding loops are impossible.
    """

    def __init__(self, peer_id: str, network: SimulatedNetwork,
                 replication_factor: int = 0, **kwargs):
        if replication_factor < 0:
            raise ValueError("replication_factor must be non-negative")
        #: Set before ``super().__init__`` — the pipeline build hook runs
        #: inside it and wires the replication stage from these.
        self._replication_factor = replication_factor
        log_dir = kwargs.get("log_dir")
        self.replicas: Optional[ReplicaSet] = (
            ReplicaSet(os.path.join(log_dir, "replicas"))
            if log_dir is not None else None)
        self.replication: Optional[ReplicationStage] = None
        super().__init__(peer_id, network, **kwargs)
        self._siblings: List[str] = []
        #: The membership epoch this shard last committed (see
        #: :meth:`set_topology`); ``None`` until a topology is applied.
        self.topology: Optional[Topology] = None
        #: Summaries of sibling shards' subscriptions: one entry per
        #: (shard, expected-type GUID), indexed for routing.
        self.summary_index = RoutingIndex(self.checker, self.runtime.registry)
        self._summaries: Dict[Tuple[str, str], Subscription] = {}
        self._next_summary_id = 1
        #: The expected-type GUIDs every sibling acknowledged last (see
        #: :meth:`_announce`); ``None`` until then, or after a sibling
        #: missed an announcement.
        self._announced: Optional[frozenset] = None
        self.forwards_received = 0
        self.gossip_failures = 0
        #: Cached home ids of forwarded-in records mapped to the local
        #: offset their copy sits at (see :meth:`_home_ids_in_log`),
        #: maintained incrementally as forwards arrive; the stamp
        #: invalidates it whenever retention or compaction removed
        #: records.
        self._home_ids: Optional[Dict[Tuple[str, int], int]] = None
        self._home_ids_stamp: Optional[Tuple[int, int, int]] = None
        #: Elastic-membership counters: durable subscriptions handed to a
        #: new home shard / adopted from their previous home.
        self.handoffs = 0
        self.adoptions = 0
        #: Adopted subscriptions whose backlog replay could not reach the
        #: subscriber (no transport route yet — clients dial shards, and
        #: nothing has dialed a just-joined shard until it publishes or
        #: resubscribes), mapped to their dual-routing bounds.  Retried
        #: from the delivery pump until a pass completes with the
        #: subscriber reachable (see :meth:`retry_stalled_replays`).
        self._stalled_replays: Dict[str, Dict[str, int]] = {}
        self.replica_records = 0
        self.replica_rejects = 0
        self.fetches_served = 0
        self.fetch_records_served = 0
        self.fetch_failures = 0
        self.healed_records = 0
        self.on(KIND_MESH_FORWARD, self._handle_forward)
        self.on(KIND_MESH_SUMMARY, self._handle_summary)
        self.on(KIND_MESH_SYNC, self._handle_sync)
        self.on(KIND_MESH_HANDOFF, self._handle_handoff)
        self.on(KIND_REPLICATE, self._handle_replicate)
        self.on(KIND_REPLICATE_ACK, self._handle_replicate_ack)
        self.on(KIND_BACKLOG_FETCH, self._handle_backlog_fetch)
        self.on(KIND_REPLICA_PULL, self._handle_replica_pull)
        register_mesh_shard_metrics(self.metrics, self)

    def _build_pipeline(self, stats: PipelineStats) -> DeliveryPipeline:
        """Same stages as the single broker, with buffered dispatch, the
        summary-gated cross-shard forwarder, and (with a log and a
        positive ``replication_factor``) the replication stage hooked
        after the durable append."""
        if self.durability.event_log is not None \
                and self._replication_factor > 0:
            self.replication = ReplicationStage(
                self, self.durability.event_log, stats=stats)
        return DeliveryPipeline(
            index=self.index,
            delivery=BufferedDelivery(self, self.durability,
                                      forward_kind=KIND_MESH_FORWARD),
            durability=self.durability,
            admission=AdmissionStage(self, stats),
            stats=stats,
            forwarder=self._buffer_forwards,
            host=self,
            replication=self.replication,
            tracer=self.tracer,
        )

    @property
    def batch_events(self) -> int:
        return self.delivery.batch_events

    @property
    def forwards_sent(self) -> int:
        return self.delivery.forwards_sent

    @property
    def forward_events(self) -> int:
        return self.delivery.forward_events

    def set_topology(self, topology: Topology) -> bool:
        """Commit a membership view: adopt its sibling list (follower
        placement recomputes deterministically) and drop summaries of
        shards that are no longer live.  Epoch-gated — a stale topology
        (epoch at or below the committed one) is ignored, so reordered
        membership announcements cannot roll the shard backwards.
        Returns whether the commit happened."""
        if self.topology is not None and topology.epoch <= self.topology.epoch:
            return False
        self.topology = topology
        self._siblings = [sid for sid in topology.shard_ids
                          if sid != self.peer_id]
        if self.replication is not None:
            # Followers: the shard's rendezvous preference list over its
            # siblings — deterministic, so a restarted incarnation (and
            # every other shard) recomputes the same placement.
            self.replication.set_followers(rendezvous_rank(
                self.peer_id, self._siblings)[:self._replication_factor])
        departed = {key[0] for key in self._summaries} \
            - set(topology.shard_ids)
        for shard_id in departed:
            self._apply_summary(shard_id, {})
        return True

    @property
    def epoch(self) -> int:
        """The committed membership epoch (0 until the first commit)."""
        return self.topology.epoch if self.topology is not None else 0

    @property
    def followers(self) -> List[str]:
        """The sibling shards this shard replicates its records to."""
        return list(self.replication.followers) \
            if self.replication is not None else []

    def ensure_replica_coverage(self) -> int:
        """Probe any follower this incarnation never replicated to (see
        :meth:`ReplicationStage.ensure_coverage`): a membership change
        reassigns followers, and the probe's ack round-trip makes the
        existing gap-resend protocol backfill exactly what the new
        follower is missing."""
        if self.replication is None:
            return 0
        return self.replication.ensure_coverage()

    def _code_fallback_sources(self, src: str) -> List[str]:
        """Siblings stand in for an unreachable publisher.  Every peer
        re-serves the assemblies it downloads, so records this shard
        archived without ever admitting them — replica backfill after a
        join, or a departed shard's history — stay servable even when
        their origin has no transport link to this shard (real sockets,
        unlike the simulator, only reach peers that dialed us)."""
        sources = super()._code_fallback_sources(src)
        sources += [sid for sid in self._siblings if sid != src]
        return sources

    def _replication_target(self) -> int:
        """One past the last *own* (non-forwarded) record in the log —
        the watermark every follower must reach before this shard's
        history is safe without it.  Forwarded-in copies at the log tail
        never replicate, so the raw ``next_offset`` can be unreachable."""
        if self.event_log is None:
            return 0
        target = 0
        for record in own_records(self.event_log):
            target = record.offset + 1
        return target

    def replication_covered(self) -> bool:
        """Is every own record acknowledged by every follower?  The
        retirement gate: a leaving shard may only be torn down once this
        holds (its whole history then lives on in its followers' replica
        logs)."""
        target = self._replication_target()
        if target == 0:
            return True
        if self.replication is None or not self.replication.followers:
            return False
        marks = self.replication.watermarks()
        return all(mark["acked"] >= target for mark in marks.values())

    # -- subscription summaries --------------------------------------------

    def _subscriptions_changed(self) -> None:
        self._announce()

    def _summary(self) -> Dict[str, Any]:
        """This shard's summary: the description of each expected type of
        its subscriptions, by GUID.  An announcement and a sync reply
        both carry it."""
        return {"summaries": {
            str(guid): description_bytes(expected)
            for guid, expected in self.index.expected_types().items()}}

    def _announce(self, force: bool = False) -> Dict[str, int]:
        """Send this shard's summary to every sibling if its set of
        expected types changed since every sibling last acknowledged one
        (always with ``force``).  Returns each answering sibling's log
        end as of applying it (see :meth:`_handle_summary`).

        Announcements ride the synchronous control plane.  A sibling
        that misses one keeps a stale forwarding filter, so failures are
        counted, not fatal; the set then stays unrecorded, and the next
        subscribe or unsubscribe sends it again."""
        guids = frozenset(self.index.expected_types())
        if guids == self._announced and not force:
            return {}
        payload = self._wire_codec.serialize(self._summary())
        bounds: Dict[str, int] = {}
        for shard_id in self._siblings:
            try:
                response = self.request(shard_id, KIND_MESH_SUMMARY, payload,
                                        retries=self.max_retries)
            except (MessageDropped, NetworkError):
                self.gossip_failures += 1
                continue
            bounds[shard_id] = int(
                self._wire_codec.deserialize(response)["next_offset"])
        self._announced = guids if len(bounds) == len(self._siblings) \
            else None
        return bounds

    def _handle_summary(self, payload: bytes, src: str) -> bytes:
        """Apply a sibling's announced summary.  The response carries
        this shard's log end (``next_offset``) *as of applying it*: for
        a subscription adoption's announcement this is the exact
        dual-routing bound — every record this shard admits after
        answering is forwarded to the new home live, so the adopter's
        backlog fetch stops below it (handlers run serially per shard,
        making the partition gapless and overlap-free)."""
        self._apply_summary(
            src, self._wire_codec.deserialize(payload)["summaries"])
        next_offset = self.event_log.next_offset \
            if self.event_log is not None else 0
        return self._wire_codec.serialize({"next_offset": next_offset})

    def _apply_summary(self, shard_id: str,
                       summaries: Dict[str, Any]) -> int:
        """Replace the entries held for ``shard_id`` with its
        ``summaries`` (see :meth:`_summary`); returns the entries
        added."""
        for key in [key for key in self._summaries
                    if key[0] == shard_id and key[1] not in summaries]:
            self.summary_index.remove(
                self._summaries.pop(key).subscription_id)
        added = 0
        for guid, description in summaries.items():
            key = (shard_id, guid)
            if key in self._summaries:
                continue
            expected = description_type(description, self.runtime.registry)
            summary = Subscription(expected, None, self._next_summary_id,
                                   peer_id=shard_id)
            self._next_summary_id += 1
            self.summary_index.add(summary)
            self._summaries[key] = summary
            added += 1
        return added

    def summaries(self) -> List[Subscription]:
        """The sibling-subscription summaries this shard currently holds."""
        return self.summary_index.subscriptions()

    # -- crash recovery ----------------------------------------------------

    def _handle_sync(self, payload: bytes, src: str) -> bytes:
        """Serve this shard's summary to a restarted or joining sibling."""
        return self._wire_codec.serialize(self._summary())

    def _sync_summaries(self) -> int:
        """Rebuild the forwarding filter (after a restart or a join) from
        every sibling's summary; returns the entries added."""
        synced = 0
        for shard_id in self._siblings:
            try:
                response = self.request(shard_id, KIND_MESH_SYNC, b"",
                                        retries=self.max_retries)
            except (MessageDropped, NetworkError):
                self.gossip_failures += 1
                continue
            synced += self._apply_summary(
                shard_id, self._wire_codec.deserialize(response)["summaries"])
        return synced

    def recover(self) -> List[DurableSubscription]:
        """Bring a freshly restarted shard back into the mesh.

        Rebuilds the sibling-summary forwarding filter, announces this
        shard's (still empty) summary so siblings drop their stale view
        of it, heals the shard's own log from its followers' replicated
        copies (the catch-up phase — a wiped or truncated log directory
        gets its record set back before anything replays from it),
        re-registers every persisted remote durable subscription (which
        announces the summary again as its types return), and replays
        each one's unacknowledged backlog.  Replay batches ride the
        queued one-way path — drain the mesh to deliver them.
        """
        self._sync_summaries()
        self._announce(force=True)
        self._catch_up_from_followers()
        return self.recover_durable_subscriptions()

    def _catch_up_from_followers(self) -> int:
        """Pull the replicated copy of this shard's own records back from
        its followers and re-append whatever the local log is missing
        (idempotent at-offset appends).  Sequential pulls share one
        advancing ``from``: each follower only serves what the previous
        ones could not."""
        if self.event_log is None or self.replication is None:
            return 0
        healed = 0
        for follower in self.replication.followers:
            try:
                response = self.request(
                    follower, KIND_REPLICA_PULL,
                    self._wire_codec.serialize(
                        {"from": self.event_log.next_offset}),
                    retries=self.max_retries)
            except (MessageDropped, NetworkError):
                self.fetch_failures += 1
                continue
            for record in _page_records(self._wire_codec.deserialize(
                    response)):
                if self.event_log.append_at(record.offset, record.payload,
                                            record.origin) is not None:
                    healed += 1
        self.healed_records += healed
        return healed

    # -- routing (buffered by the pipeline's dispatch stage) ---------------

    def _buffer_forwards(self, batch: Any, origin: Optional[str],
                         log_offset: Optional[int],
                         payload: bytes) -> None:
        """The pipeline's forwarder hook: buffer the record's frame once
        per sibling shard hosting at least one conforming subscriber,
        targeted on the record's distinct root types (one summary route
        each, reusing cached conformance verdicts) — forwarding
        costs zero value decodes.  ``log_offset`` — the record's offset
        here — travels as the forward's ``home`` id, keeping the
        receiving shard's copy attributable to this shard's log.
        """
        targets = set()
        for index in distinct_roots(batch):
            event_type = batch.root_type(index)
            if event_type is None:
                continue
            for entry, summaries in self.summary_index.route(event_type):
                for summary in summaries:
                    targets.add(summary.peer_id)
        for shard_id in sorted(targets):
            self.delivery.buffer_forward(shard_id, payload, len(batch),
                                         log_offset)

    def _handle_forward(self, payload: bytes, src: str) -> bytes:
        for frame in split_frames(payload):
            self._apply_forward(frame if isinstance(frame, bytes)
                                else bytes(frame), src)
        self.forwards_received += 1
        return b"OK"

    def _apply_forward(self, payload: bytes, src: str) -> None:
        envelope = self.codec.parse(payload)
        origin = envelope.origin or src
        if self.tracer is not None and envelope.trace is not None:
            self.tracer.record(envelope.trace, "admit",
                               {"src": src, "origin": origin,
                                "via": "forward", "bytes": len(payload)})
        # Forwarded-in events are logged too — BEFORE loading code: this
        # shard's log is the full local-delivery history, and a transient
        # code-fetch failure below must not lose the record (the sender
        # will not resend; replay retries the fetch later).
        log_offset = self.durability.append_payload(payload, origin)
        if self._home_ids is not None and envelope.home is not None \
                and log_offset is not None:
            # Keep the home-id cache exact without a rescan; a retention
            # drop this append may have triggered changes the removal
            # stamp, which forces the rebuild on the next read.
            decoded = decode_home(envelope.home)
            if decoded is not None:
                for offset in set(decoded[1]):
                    if offset is None:
                        continue
                    key = (decoded[0], offset)
                    if self._home_ids.get(key, -1) < log_offset:
                        self._home_ids[key] = log_offset
        # Zero-copy ingest: route on the header, deliver the frame; the
        # code of a type unknown here is fetched first.
        batch = self.pipeline.admission.admit(envelope, src)
        # Never re-forwarded: an event crosses at most one shard boundary.
        self.pipeline.process(batch, origin, payload=payload,
                              log_offset=log_offset,
                              pre_logged=True, forward=False,
                              trace=envelope.trace)

    # -- cross-shard replication (follower side) ---------------------------

    def _handle_replicate(self, payload: bytes, src: str) -> bytes:
        """Apply one replication batch from origin shard ``src`` into its
        replica log, or reject it whole when it would leave a loss hole
        (its ``from`` claim starts above our high-water: an earlier batch
        was dropped).  Either way the origin learns our high-water via a
        one-way ``replicate_ack`` — the trigger for its gap resend."""
        if self.replicas is None:
            return b"OK"
        message = self._wire_codec.deserialize(payload)
        replica = self.replicas.log_for(src)
        if message["from"] > replica.next_offset:
            self.replica_rejects += 1
        else:
            for record in _page_records(message):
                if replica.append_at(record.offset, record.payload,
                                     record.origin) is not None:
                    self.replica_records += 1
        try:
            self.post_async(src, KIND_REPLICATE_ACK, self._wire_codec.serialize(
                {"watermark": replica.next_offset}))
        except UnknownPeerError:  # origin mid-restart
            self.network.stats.record_drop()
        return b"OK"

    def _handle_replicate_ack(self, payload: bytes, src: str) -> bytes:
        if self.replication is not None:
            message = self._wire_codec.deserialize(payload)
            self.replication.acknowledge(src, message["watermark"])
        return b"OK"

    # -- backlog fetch (serving side) --------------------------------------

    def _handle_backlog_fetch(self, payload: bytes, src: str) -> bytes:
        """Serve this shard's own records, conformance-filtered through
        the routing index against the requester's expected type, so only
        matching records cross the wire.  Forwarded-in copies are never
        served (their home shard is authoritative).  ``upto`` reports how
        far the scan got — the requester consumes through it so filtered
        records are not re-fetched forever.

        Two elastic-membership extensions ride the same request shape: a
        requester's ``upto`` clamps the scan (an adoption fetch stops at
        the dual-routing bound — everything above arrives by live
        forward), and ``origin`` names a *departed* shard whose archived
        records should be served from this shard's replica log of it
        instead of the local event log (the archivist path — a removed
        shard's history outlives it in its followers)."""
        request = self._wire_codec.deserialize(payload)
        origin = request.get("origin") or self.peer_id
        log = self._held_log(origin)
        if log is None:
            return self._records_reply(0, ())
        expected = description_type(request["description"],
                                    self.runtime.registry)
        self.fetches_served += 1
        upto = log.next_offset
        clamp = request.get("upto")
        if clamp is not None:
            upto = min(upto, int(clamp))
        records = []
        for record in self._held_records(origin, request["from"], upto):
            found = self.pipeline.conforming_from_record(record, src,
                                                         expected)
            if found is None:
                # Unservable right now (code unavailable): stop the scan
                # short of it so the requester retries later instead of
                # consuming past a record it never saw.
                upto = record.offset
                break
            if found[1]:
                records.append(record)
        self.fetch_records_served += len(records)
        # Retention may have dropped records the requester never fetched
        # — ``first`` reports how far the retained log actually starts,
        # so the requester can surface the gap instead of skipping it.
        return self._records_reply(upto, records, first=log.first_offset)

    def _handle_replica_pull(self, payload: bytes, src: str) -> bytes:
        """Serve the replicated copy of ``src``'s own records back to it —
        the recovery catch-up path of a shard whose log was lost."""
        replica = self._held_log(src)
        if replica is None:
            return self._records_reply(0, ())
        upto = replica.next_offset
        return self._records_reply(upto, self._held_records(
            src, self._wire_codec.deserialize(payload)["from"], upto))

    def _records_reply(self, upto: int, records: Iterable[LogRecord],
                       first: Optional[int] = None) -> bytes:
        """A page of stored records, as both record servers answer it:
        ``upto`` is how far the scan got; :func:`_page_records` reads the
        records back."""
        reply: Dict[str, Any] = {"upto": upto}
        if first is not None:
            reply["first"] = first
        reply["records"] = [{"offset": record.offset, "origin": record.origin,
                             "payload": record.payload} for record in records]
        return self._wire_codec.serialize(reply)

    def _held_log(self, origin: str) -> Optional[EventLog]:
        """The log holding ``origin``'s records here: this shard's event
        log for its own, its replica log of a sibling's (``None`` without
        one)."""
        if origin == self.peer_id:
            return self.event_log
        if self.replicas is None:
            return None
        return self.replicas.log_for(origin, create=False)

    def _held_records(self, origin: str, start: int,
                      end: int) -> Iterator[LogRecord]:
        """``origin``'s records in ``[start, end)`` of :meth:`_held_log`.
        The own log's forwarded-in copies are skipped: their home shard
        is authoritative.  Replica logs hold only the origin's records."""
        if origin == self.peer_id:
            return own_records(self.event_log, start, end)
        return self._held_log(origin).replay(start, end)

    # -- mesh-wide durable replay (requesting side) ------------------------

    def _log_removal_stamp(self) -> Tuple[int, int, int]:
        """Changes whenever records LEFT the local log (retention drop or
        compaction) — the only events that can invalidate the home-id
        cache beyond the incremental adds ``_handle_forward`` makes."""
        log = self.event_log
        return (log.dropped_segments, log.retention_dropped_records,
                log.compactions)

    def _home_ids_in_log(self) -> Dict[Tuple[str, int], int]:
        """The ``(home shard, home offset)`` id of every forwarded-in
        record retained in the local log, mapped to the local offset its
        copy sits at — records the local replay path already covers,
        which replica replay and backlog fetch must not deliver a second
        time.  The local offset is what makes the skip *floor-aware*: an
        adopted subscription replays locally only from its adoption
        floor, so a copy lying below the floor does NOT cover it (see
        :meth:`~repro.apps.tps.pipeline.DeliveryPipeline.replay_foreign`).

        Built by scanning the log once, then maintained incrementally
        (each forwarded-in append adds its ids); a retention drop or
        compaction pass rebuilds, so an id whose record is gone stops
        suppressing a re-fetch."""
        if self.event_log is None:
            return {}
        stamp = self._log_removal_stamp()
        if self._home_ids is not None and stamp == self._home_ids_stamp:
            return self._home_ids
        seen: Dict[Tuple[str, int], int] = {}
        for record in self.event_log.replay():
            home = envelope_home(record.payload)
            if home is None:
                continue
            shard_id, offsets = home
            for offset in offsets:
                if offset is not None:
                    key = (shard_id, offset)
                    if seen.get(key, -1) < record.offset:
                        seen[key] = record.offset
        self._home_ids = seen
        self._home_ids_stamp = stamp
        return seen

    def _cursor_floor(self, cursor_name: str) -> int:
        """An adopted subscription's local replay floor (0 otherwise):
        the log end captured when this shard adopted the cursor.  Local
        replay starts at the floor; everything below it reaches the
        subscriber through the foreign passes — including the *self*
        pass over this shard's own pre-adoption records."""
        if self.cursors is None:
            return 0
        entry = self.cursors.entry(cursor_name)
        return int(entry.get("floor", 0)) if entry else 0

    def _replay_mesh(self, subscription: DurableSubscription,
                     description: bytes, recovering: bool = False,
                     bounds: Optional[Dict[str, int]] = None,
                     ceiling: Optional[int] = None) -> int:
        """Complete a durable subscription's backlog mesh-wide: for each
        sibling, replay its replica log (records replication already
        pulled here), then ``backlog_fetch`` whatever lies above the
        replica high-water — so the subscriber's backlog is complete
        regardless of which shard admitted the events, even when a
        sibling is unreachable for everything replication got here first.
        Progress is tracked per ``(cursor, sibling)`` fetch cursor in the
        sibling's offset space; records forwarded here at publish time
        replay through the local path and are skipped by home id.

        Elastic membership adds three passes on the same machinery: an
        *adopted* subscription (non-zero floor) first replays this
        shard's OWN pre-adoption records from the handed self-position
        (the local path only covers the log from the floor up); each
        *departed* shard's records are fetched from its old followers'
        replica archives (the archivist path, tried in the departed
        shard's rendezvous preference order); and during adoption each
        live sibling's pass is clamped to its dual-routing bound
        (``bounds``) — records above the bound arrive by live forward.
        ``ceiling`` is the handoff catch-up form (see
        :meth:`_handoff_subscription`): forwarded-in copies logged at or
        above it were never delivered locally, so the foreign passes
        must deliver them instead of skip-consuming.
        """
        if self.event_log is None:
            return 0
        seen = self._home_ids_in_log()
        floor = self._cursor_floor(subscription.cursor_name)
        total = 0
        origins = list(self._siblings) + [
            shard_id for shard_id in
            (self.topology.departed if self.topology is not None else ())
            if shard_id != self.peer_id]
        if floor > 0:
            origins.insert(0, self.peer_id)  # the self pass
        for origin in origins:
            cursor = foreign_cursor_name(subscription.cursor_name, origin)
            fresh_fetch = cursor not in self.cursors
            self.durability.register_cursor(
                cursor, peer_id=subscription.peer_id,
                touch=not recovering,
                origin=origin, base=subscription.cursor_name)
            start = self.cursors.get(cursor)
            if origin == self.peer_id:
                # ``local=True``: this fetch cursor tracks the LOCAL log, so
                # unlike its sibling-space kin it must pin the retention
                # floor until its pass drains.
                self.cursors.annotate(cursor, local=True)
                end = bound = floor
            else:
                replica = self._held_log(origin)
                end = 0 if replica is None else replica.next_offset
                bound = None if bounds is None else bounds.get(origin)
                if bound is not None:
                    end = min(end, bound)
            if end > start:
                total += self.pipeline.replay_foreign(
                    subscription, origin,
                    self._held_records(origin, start, end),
                    upto=end, seen=seen, floor=floor, ceiling=ceiling)
                start = end
            if bound is not None and start >= bound:
                continue
            request = {"description": description, "from": start}
            if bound is not None:
                request["upto"] = bound
            if origin in self._siblings:
                servers = [origin]
            else:
                # The departed shard's records survive in its old
                # followers' replica logs; any live shard may hold one.
                request["origin"] = origin
                servers = rendezvous_rank(origin, self._siblings)
            reply = None
            for server in servers:
                try:
                    response = self.request(
                        server, KIND_BACKLOG_FETCH,
                        self._wire_codec.serialize(request),
                        retries=self.max_retries)
                except (MessageDropped, NetworkError):
                    # Unreachable: the subscriber got what the replica
                    # log held; the rest arrives on a later replay.
                    self.fetch_failures += 1
                    continue
                candidate = self._wire_codec.deserialize(response)
                if candidate["upto"] <= start and len(servers) > 1:
                    continue  # no (new) archive here: try the next one
                reply = candidate
                break
            if reply is None:
                continue
            if not fresh_fetch and reply.get("first", 0) > start:
                # The server's retention dropped records this cursor
                # never fetched: surface the gap, exactly like the local
                # replay path does (a brand-new fetch cursor on an aged
                # log missed nothing — it begins at the retained head).
                self.pipeline.stats.retention_lost_records += \
                    reply["first"] - start
            total += self.pipeline.replay_foreign(
                subscription, origin, _page_records(reply),
                upto=reply["upto"], seen=seen, floor=floor,
                ceiling=ceiling)
        return total

    # -- elastic membership (handoff / adoption) ---------------------------

    def _handle_handoff(self, payload: bytes, src: str) -> bytes:
        message = self._wire_codec.deserialize(payload)
        description = message["description"]
        if isinstance(description, str):
            description = description.encode("utf-8")
        try:
            result = self.adopt_subscription(
                message["cursor"], message["peer_id"], description,
                {origin: int(offset)
                 for origin, offset in message["positions"].items()})
        except (ValueError, NetworkError) as exc:
            return self._wire_codec.serialize({"ok": False,
                                               "error": str(exc)})
        return self._wire_codec.serialize(result)

    def adopt_subscription(self, cursor: str, peer_id: str,
                           description: bytes,
                           positions: Dict[str, int]) -> Dict[str, Any]:
        """Become the home of a durable subscription handed off by its
        previous home shard.

        The *floor* — this shard's log end at adoption — is the seam
        between histories: the base cursor starts there, so the local
        replay path covers exactly the records admitted here from now
        on, while everything before reaches the subscriber through the
        per-origin foreign passes resumed from the handed ``positions``
        (including the *self* pass over this shard's own pre-adoption
        records, handed under this shard's id).  Live deliveries begin
        the moment the subscription enters the index; handlers run
        serially, so nothing can append between the floor capture and
        that registration — the seam is exact.

        Siblings learn of the adoption from this shard's summary,
        announced even when its set of types did not change; each
        sibling's reply (its log end) bounds the fetch from that sibling
        (see :meth:`_handle_summary`).
        """
        if self.event_log is None or self.cursors is None:
            raise NetworkError("shard %s has no event log; cannot adopt "
                               "durable cursor %r" % (self.peer_id, cursor))
        if cursor in self.cursors:
            # A retried handoff whose first attempt landed (the ok
            # response was lost): adopting is idempotent.
            return {"ok": True, "already": True,
                    "floor": self._cursor_floor(cursor)}
        expected = description_type(description, self.runtime.registry)
        floor = self.event_log.next_offset
        subscription = DurableSubscription(expected, None, self._next_id,
                                           peer_id=peer_id,
                                           cursor_name=cursor)
        self._next_id += 1
        self.index.add(subscription)
        self.durability.register_cursor(cursor, peer_id=peer_id,
                                        description=description.decode(
                                            "utf-8"))
        self.cursors.advance(cursor, floor, touch=False)
        self.cursors.annotate(cursor, floor=floor)
        # Resume the previous home's consumed-through marks: each handed
        # position becomes a fetch cursor in that origin's offset space.
        # A position keyed by THIS shard is the old home's fetch progress
        # over us — the self pass (``local=True`` pins local retention
        # until it drains).
        for origin in sorted(positions):
            fetch = foreign_cursor_name(cursor, origin)
            self.durability.register_cursor(fetch, peer_id=peer_id,
                                            origin=origin, base=cursor)
            self.cursors.advance(fetch, positions[origin], touch=False)
            if origin == self.peer_id:
                self.cursors.annotate(fetch, local=True)
        # Records a sibling admitted before applying the announcement
        # can only arrive through this adoption's bounded fetch; records
        # after it are forwarded here live.  A sibling that missed it
        # gives no bound, so the fetch from it runs unbounded.  The old
        # home keeps its summary until the handoff completes
        # (add-before-remove), so no publish falls between the two homes.
        bounds = self._announce(force=True)
        self.adoptions += 1
        unreachable = self.pipeline.stats.replay_unreachable
        self._replay_mesh(subscription, description, bounds=bounds)
        if self.pipeline.stats.replay_unreachable > unreachable:
            # The subscriber has no route to this shard yet, so part of
            # the adopted backlog could not go out (its cursors stay
            # blocked below the undelivered records).  Park the pass for
            # the delivery pump to retry once a route appears.
            self._stalled_replays[cursor] = bounds
        return {"ok": True, "floor": floor}

    def handoff_durable_subscriptions(
            self, topology: Topology,
            pump: Optional[Callable[[], Any]] = None) -> List[str]:
        """Migrate every remote durable subscription whose subscriber
        re-homes away from this shard under ``topology``; returns the
        moved cursor names.  ``pump`` drives the fabric while in-flight
        ack windows settle (the mesh runner passes its flush loop).
        Local-handler durable subscriptions cannot migrate — their
        handler lives in this process — so they stay put; :meth:`retire`
        refuses to remove a shard that holds one."""
        moved: List[str] = []
        if self.event_log is None:
            return moved
        for subscription in list(self.index.subscriptions()):
            if not isinstance(subscription, DurableSubscription) \
                    or subscription.peer_id is None:
                continue
            new_home = topology.shard_for(subscription.peer_id)
            if new_home == self.peer_id:
                continue
            self._handoff_subscription(subscription, new_home, pump)
            moved.append(subscription.cursor_name)
        return moved

    def retire(self, survivors: Topology, pump: Callable[[], Any],
               rounds: int) -> List[str]:
        """The leaving shard's half of a removal, run by every mesh
        runner: refuse while a durable subscription's handler is pinned
        here, gate on full replica coverage of this shard's own history
        (pumping the fabric at most ``rounds`` times), then hand every
        durable subscription to its home under ``survivors``.  Returns
        the moved cursor names; any raise leaves the shard live."""
        for subscription in self.index.subscriptions():
            if isinstance(subscription, DurableSubscription) \
                    and subscription.peer_id is None:
                raise ValueError(
                    "durable cursor %r has a local handler pinned to "
                    "shard %s; detach it before removing the shard"
                    % (subscription.cursor_name, self.peer_id))
        if self.event_log is not None and self._replication_target() > 0:
            if self._replication_factor < 1:
                raise ValueError(
                    "shard %r holds durable records but the mesh does not "
                    "replicate (replication_factor=0); its history would "
                    "be lost" % self.peer_id)
            self.ensure_replica_coverage()
            for _ in range(rounds):
                if self.replication_covered():
                    break
                pump()
            if not self.replication_covered():
                raise NetworkError(
                    "shard %r's history is not fully replicated to its "
                    "followers; aborting the removal" % self.peer_id)
        return self.handoff_durable_subscriptions(survivors, pump=pump)

    def _handoff_subscription(self, subscription: DurableSubscription,
                              new_home: str,
                              pump: Optional[Callable[[], Any]]) -> None:
        """Hand one durable subscription to ``new_home``: deactivate it
        here, settle its in-flight ack windows so the cursor family holds
        exact consumed-through marks, ship the position vector, and —
        only once the new home confirmed adoption — retire the cursors
        and announce the summary, which closes the dual-routing window
        unless another subscription here expects the type.  Any failure
        reactivates the subscription here: the membership operation
        aborts with the subscription still live at its old home."""
        cursor = subscription.cursor_name
        self.index.remove(subscription.subscription_id)
        try:
            self._settle_cursor_family(cursor, pump)
            # Catch-up pass: a handed fetch position must be a contiguous
            # consumed prefix of its origin's offsets, but consumption of
            # live-FORWARDED records is tracked in the LOCAL offset space
            # (the base cursor + home-id skip), not the fetch cursors.
            # Re-running the mesh replay with the settled base frontier as
            # the ceiling advances every fetch cursor across that gap:
            # copies delivered here skip-consume, copies logged after
            # deactivation (at or above the frontier, hence never
            # delivered) go out to the subscriber now.
            frontier = self.cursors.get(cursor)
            description = description_bytes(subscription.expected)
            self._replay_mesh(subscription, description, ceiling=frontier)
            self._settle_cursor_family(cursor, pump)
            floor = self._cursor_floor(cursor)
            selfpass = foreign_cursor_name(cursor, self.peer_id)
            if floor and selfpass in self.cursors \
                    and self.cursors.get(selfpass) < floor:
                # Chained adoption whose own-history pass has not drained
                # even after the catch-up: the handed self-position would
                # be non-contiguous with the base cursor.  Abort loudly.
                raise NetworkError(
                    "cursor %r's adoption replay on shard %s has not "
                    "drained; cannot hand it off" % (cursor, self.peer_id))
            positions = {self.peer_id: self.cursors.get(cursor)}
            for name in self.cursors.derived(cursor):
                entry = self.cursors.entry(name)
                origin = entry.get("origin")
                if origin and origin != self.peer_id:
                    positions[origin] = int(entry["offset"])
            response = self.request(
                new_home, KIND_MESH_HANDOFF,
                self._wire_codec.serialize({
                    "cursor": cursor,
                    "peer_id": subscription.peer_id,
                    "description": description,
                    "positions": positions,
                }),
                retries=self.max_retries)
            reply = self._wire_codec.deserialize(response)
            if not reply.get("ok"):
                raise NetworkError("shard %s refused handoff of %r: %s"
                                   % (new_home, cursor,
                                      reply.get("error")))
        except (MessageDropped, NetworkError):
            self.index.add(subscription)
            raise
        self._forget_cursor_tokens(cursor)
        self.durability.remove_cursor(cursor)
        self._stalled_replays.pop(cursor, None)
        self.handoffs += 1
        self._announce()

    def _settle_cursor_family(self, base: str,
                              pump: Optional[Callable[[], Any]],
                              max_rounds: int = 1000) -> bool:
        """Drive the fabric until no ack window is in flight for ``base``
        or any of its derived fetch cursors — the precondition for the
        cursor offsets to be exact consumed-through marks.  Returns
        whether everything settled (an unreachable subscriber leaves
        windows open; the at-least-once contract covers the redelivery
        the stale positions then cause)."""
        family = [base] + (self.cursors.derived(base)
                           if self.cursors is not None else [])

        def inflight() -> bool:
            return any(self.durability.tracker.has_inflight(name)
                       for name in family)

        for _ in range(max_rounds):
            self.flush_delivery()
            if not inflight():
                return True
            if pump is None:
                break
            pump()
        return not inflight()

    # -- draining ----------------------------------------------------------

    def pending_deliveries(self) -> int:
        pending = self.delivery.pending()
        if self.replication is not None:
            pending += self.replication.pending()
        return pending

    def _send_buffered(self) -> None:
        """Leave an inbound message's buffered frames to the pump, which
        joins them with other messages' (:meth:`flush_delivery`)."""

    def flush_delivery(self) -> int:
        """Encode and enqueue one batch message per buffered destination
        (see :meth:`repro.apps.tps.pipeline.BufferedDelivery.flush`),
        plus one replication batch per follower with queued records."""
        sent = self.delivery.flush()
        if self.replication is not None:
            sent += self.replication.flush()
        sent += self.retry_stalled_replays()
        return sent

    def retry_stalled_replays(self) -> int:
        """Re-deliver durable backlog that stalled on an unreachable
        subscriber; returns the number of records delivered.

        Two stall sources feed the candidate set: adoption-time replays
        parked in ``_stalled_replays`` (the subscriber had no route to
        this freshly joined shard), and any remote durable cursor whose
        family carries an undelivered-range *block* — a live delivery
        that failed the same way.  A blocked cursor also suppresses
        further live sends (see ``BufferedDelivery.remote``), so this
        replay is the only path that moves it again.

        Each retry waits for the subscriber to become routable (cheap
        check, no RPCs while it is not) and for every in-flight ack
        window of the cursor family to land — re-sending a range whose
        ack is merely late would double-deliver it.  Every retry replays
        the local log from the base cursor, which covers suppressed live
        deliveries: forwarded-in records are appended here before
        delivery, so live-path blocks only ever form in the base
        cursor's (local) offset space.  Only a *parked* entry re-runs
        the per-origin mesh passes, under its stored dual-routing
        bounds — an unbounded sibling fetch would race forwards still in
        flight and double-deliver them.  A mesh pass that completes
        without hitting an unreachable subscriber retires the parked
        entry: whatever remains undelivered is covered by in-flight acks
        and the cursor blocks."""
        if self.cursors is None:
            return 0
        tracker = self.durability.tracker
        candidates: Dict[str, Optional[Dict[str, int]]] = \
            dict(self._stalled_replays)
        if tracker.blocks:
            for sub in self.index.subscriptions():
                if not isinstance(sub, DurableSubscription) \
                        or sub.peer_id is None or sub.cursor_name is None \
                        or sub.cursor_name in candidates:
                    continue
                family = [sub.cursor_name] \
                    + self.cursors.derived(sub.cursor_name)
                if any(name in tracker.blocks for name in family):
                    candidates[sub.cursor_name] = None
        if not candidates:
            return 0
        delivered = 0
        can_route = getattr(self.network, "can_route", None)
        for cursor, bounds in candidates.items():
            subscription = next(
                (sub for sub in self.index.subscriptions()
                 if isinstance(sub, DurableSubscription)
                 and sub.cursor_name == cursor), None)
            if subscription is None:
                # Deactivated (unsubscribe or an in-progress handoff):
                # keep any parked entry — a resumed or reactivated
                # subscription still owes the backlog; a completed
                # handoff drops it.
                continue
            if can_route is not None and not can_route(subscription.peer_id):
                continue
            family = [cursor] + self.cursors.derived(cursor)
            if any(tracker.has_inflight(name) for name in family):
                continue
            unreachable = self.pipeline.stats.replay_unreachable
            delivered += self.pipeline.replay(subscription)
            if cursor in self._stalled_replays:
                delivered += self._replay_mesh(subscription, description_bytes(
                    subscription.expected), bounds=bounds)
                if self.pipeline.stats.replay_unreachable == unreachable:
                    del self._stalled_replays[cursor]
        return delivered

    # -- observability -----------------------------------------------------

    def _extra_stats(self) -> dict:
        snapshot = {
            "batches_sent": self.transport_stats.batches_sent,
            "batch_events": self.batch_events,
            "forwards_sent": self.forwards_sent,
            "forward_events": self.forward_events,
            "forwards_received": self.forwards_received,
            "gossip_failures": self.gossip_failures,
            "summary_types": len(self._summaries),
            "pending_deliveries": self.pending_deliveries(),
            "epoch": self.epoch,
            "handoffs": self.handoffs,
            "adoptions": self.adoptions,
        }
        if self.replication is not None:
            snapshot["replication"] = {
                "factor": self._replication_factor,
                "followers": self.replication.watermarks(),
                "records_replicated": self.pipeline.stats.records_replicated,
                "batches_sent": self.replication.batches_sent,
                "resends": self.pipeline.stats.replication_resends,
            }
        if self.replicas is not None:
            snapshot["replicas"] = self.replicas.stats()
            snapshot["replica_records"] = self.replica_records
            snapshot["replica_rejects"] = self.replica_rejects
            snapshot["healed_records"] = self.healed_records
        if self.event_log is not None:
            snapshot["events_fetched"] = self.pipeline.stats.events_fetched
            snapshot["fetches_served"] = self.fetches_served
            snapshot["fetch_records_served"] = self.fetch_records_served
            snapshot["fetch_failures"] = self.fetch_failures
        return snapshot

    def close(self) -> None:
        super().close()
        if self.replicas is not None:
            self.replicas.close()


#: The counters a mesh's ``stats()`` totals over its shards' ``stats()``
#: (a key a shard does not report — no log, no replica store — counts 0).
_MESH_TOTALS = ("events_routed", "forwards_sent", "forward_events",
                "batch_events", "gossip_failures", "events_replayed",
                "replay_failures", "events_fetched", "replica_records",
                "healed_records")


def mesh_stats(epoch: int, per_shard: Dict[str, dict]) -> dict:
    """The mesh-wide stats snapshot from per-shard ``stats()`` dicts —
    one aggregation for every runner, whether it reads its shards in
    place or over the control plane."""
    snapshot: Dict[str, Any] = {"shards": per_shard, "epoch": epoch}
    for key in _MESH_TOTALS:
        snapshot[key] = sum(stats.get(key, 0) for stats in per_shard.values())
    snapshot["records_replicated"] = sum(
        (stats.get("replication") or {}).get("records_replicated", 0)
        for stats in per_shard.values())
    return snapshot


class BrokerMesh:
    """N broker shards cooperating as one logical TPS broker.

    Peers pick their home shard with :meth:`shard_for` (rendezvous hash
    of their peer id), subscribe there, and publish there; the mesh
    forwards between shards only when a conforming subscriber lives
    remotely.  Call :meth:`run_until_idle` to drain queued publishes,
    forwards and deliveries to quiescence.

    Membership, draining and stats are fabric-neutral: this is the one
    membership controller of every runner.  The fabric is reached only
    through the hooks under "the fabric" below, which run on the
    simulated network here;
    :class:`~repro.apps.tps.procmesh.SocketMesh` overrides them to run
    the same mesh over real sockets, and
    :class:`~repro.apps.tps.procmesh.ProcessMesh` to run it over shard
    processes.
    """

    def __init__(self, network: SimulatedNetwork, *,
                 topology: Optional[Topology] = None,
                 name: str = "mesh", log_root: Optional[str] = None,
                 replication_factor: int = 0,
                 **broker_kwargs):
        config = MeshConfig(topology=topology, name=name, log_root=log_root,
                            replication_factor=replication_factor,
                            broker_kwargs=broker_kwargs)
        self.network = network
        self._build(config)

    def _build(self, config: MeshConfig) -> None:
        #: The committed membership view; every live membership change
        #: goes through :meth:`add_shard` / :meth:`remove_shard`, which
        #: replace it with the next epoch.
        self.topology = config.topology
        self.name = config.topology.name
        #: With a ``log_root``, every shard gets a durable event log under
        #: ``log_root/<shard id>`` — the precondition for durable
        #: subscriptions and :meth:`restart_shard` crash recovery.
        self.log_root = config.log_root
        #: Each shard streams its appended records to this many
        #: rendezvous-chosen follower shards (0 = no replication); see
        #: :class:`~repro.apps.tps.pipeline.ReplicationStage`.
        self.replication_factor = config.replication_factor
        self._broker_kwargs = config.broker_kwargs
        self.shards: List[MeshShard] = [
            self._spawn_shard(shard_id) for shard_id in config.shard_ids
        ]
        self._by_id = {shard.peer_id: shard for shard in self.shards}
        self._commit_topology(self.topology)

    def followers_of(self, shard_id: str) -> List[str]:
        """The follower shards replicating ``shard_id``'s records."""
        return self._by_id[shard_id].followers

    @property
    def shard_ids(self) -> List[str]:
        return [shard.peer_id for shard in self.shards]

    def shard_for(self, peer_id: str) -> str:
        """The home shard id for a peer (deterministic rendezvous hash)."""
        return self.topology.shard_for(peer_id)

    def home(self, peer_id: str) -> MeshShard:
        return self._by_id[self.shard_for(peer_id)]

    def shard(self, shard_id: str) -> MeshShard:
        return self._by_id[shard_id]

    @property
    def epoch(self) -> int:
        return self.topology.epoch

    # -- the fabric --------------------------------------------------------

    def _spawn_shard(self, shard_id: str,
                     network: Optional[Any] = None) -> MeshShard:
        """A fresh shard on ``network`` — by default the fabric endpoint
        a joining shard gets; a restart passes the old shard's."""
        kwargs = dict(self._broker_kwargs)
        if self.log_root is not None:
            kwargs["log_dir"] = os.path.join(self.log_root, shard_id)
        return MeshShard(shard_id,
                         network if network is not None else self.network,
                         replication_factor=self.replication_factor, **kwargs)

    def _discard_shard(self, shard: MeshShard) -> None:
        """Tear down a shard that left the mesh or failed to join."""
        shard.close()

    def _crash_shard(self, shard_id: str) -> Optional[Any]:
        """Drop a shard as a crash would; returns the endpoint its
        replacement takes over (None: a fresh one at the same address)."""
        shard = self._by_id[shard_id]
        shard.close()  # unregisters from the fabric, closes the log
        return shard.network

    def _commit_topology(self, topology: Topology) -> None:
        self.topology = topology
        for shard in self.shards:
            shard.set_topology(topology)

    def _pump_fabric(self) -> int:
        """Move queued messages once; returns the messages processed."""
        return self.network.flush()

    def _fabric_idle(self) -> bool:
        return not self.network.pending()

    def _fabric_nodes(self) -> List[Any]:
        """Every fabric endpoint, for queue depths and stall counts."""
        return [self.network]

    # -- elastic membership ------------------------------------------------

    def add_shard(self, shard_id: Optional[str] = None) -> MeshShard:
        """Grow the mesh by one live shard (epoch + 1).

        The new shard is spawned, told the proposed topology, and
        resynchronised against every sibling's subscription summaries
        BEFORE the survivors commit — so the instant an existing shard
        learns the new epoch, the newcomer is already routable and
        forwarding-aware.  If the newcomer cannot come up, it is torn
        down and the epoch stays unchanged: a failed join leaves no
        trace.  Existing durable subscriptions stay where they are until
        :meth:`rebalance` moves the re-homed ones.
        """
        proposed = self.topology.with_shard(shard_id)
        new_id = [sid for sid in proposed.shard_ids
                  if sid not in self.topology][0]
        shard = self._spawn_shard(new_id)
        try:
            shard.set_topology(proposed)
            shard._sync_summaries()
        except Exception:
            self._discard_shard(shard)
            raise
        self.shards.append(shard)
        self._by_id[new_id] = shard
        self._commit_topology(proposed)
        # Follower sets shifted with the membership: probe any follower
        # a shard never replicated to so the gap-resend protocol
        # backfills its history onto the new placement.
        for existing in self.shards:
            existing.ensure_replica_coverage()
        return shard

    def remove_shard(self, shard_id: str,
                     coverage_rounds: int = 1000) -> Topology:
        """Retire one shard for good (epoch + 1), losing nothing.

        The leaving shard's own records must first be fully replicated
        (``replication_covered`` — its history then survives in its
        followers' replica logs, where the archivist fetch path serves
        it), then every durable subscription homed there is handed to
        its new rendezvous home (:meth:`MeshShard.retire`).  Only after
        both gates pass does the topology commit and the shard close;
        any failure before that aborts with the epoch unchanged and the
        shard still live.
        """
        proposed = removal_topology(self.topology, shard_id,
                                    self.replication_factor)
        leaving = self._by_id[shard_id]
        self.run_until_idle()
        leaving.retire(proposed, self.flush, coverage_rounds)
        self.run_until_idle()
        # Point of no return: commit, purge the leaver from routing
        # state (set_topology drops its summaries on every survivor),
        # and close it.
        self.shards.remove(leaving)
        del self._by_id[shard_id]
        self._commit_topology(proposed)
        self._discard_shard(leaving)
        for shard in self.shards:
            shard.ensure_replica_coverage()
        return proposed

    def rebalance(self) -> Dict[str, Any]:
        """Move every durable subscription to its rendezvous home under
        the committed topology (after :meth:`add_shard`, the ~1/N of
        subscribers whose home moved onto the newcomer).  Returns the
        moved cursor names per source shard."""
        moved: Dict[str, List[str]] = {}
        for shard in list(self.shards):
            cursors = shard.handoff_durable_subscriptions(self.topology,
                                                          pump=self.flush)
            if cursors:
                moved[shard.peer_id] = cursors
        self.run_until_idle()
        return {"epoch": self.topology.epoch, "moved": moved}

    # -- crash recovery ----------------------------------------------------

    def restart_shard(self, shard_id: str) -> MeshShard:
        """Crash-restart one shard — the one restart of every runner: crash
        it through the fabric (:meth:`_crash_shard`; a
        :class:`~repro.apps.tps.procmesh.ProcessMesh` SIGKILLs the shard
        process), respawn it over its durable state, and reconnect it.
        Frames in flight to a killed process are lost (counted in
        ``frames_lost``); ``TpsPeer.republish_unacked`` resends the
        durable publishes among them.

        The replacement shard reopens the same event log (running the
        torn-tail recovery scan), reloads its remote durable
        subscriptions from the cursor store, resynchronises sibling
        summaries, and replays each durable subscription's
        unacknowledged backlog — acked-past events are never resent,
        unacked ones go out again (at-least-once).  Non-durable
        subscriptions die with the old shard, exactly like a real broker
        crash.  The old incarnation's buffered deliveries die with it;
        messages already queued on an in-process fabric under the
        shard's peer id are delivered to the NEW incarnation at drain
        time (a stale forward is logged and delivered — a possible
        duplicate the at-least-once contract allows; a stale ack misses
        the empty pending table and is ignored).

        Drain the mesh afterwards to deliver the replayed backlog.
        """
        old = self._by_id.get(shard_id)
        if old is None:
            raise ValueError("no shard %r in this mesh" % shard_id)
        position = self.shards.index(old)
        shard = self._spawn_shard(shard_id, self._crash_shard(shard_id))
        shard.set_topology(self.topology)
        self.shards[position] = shard
        self._by_id[shard_id] = shard
        shard.recover()
        return shard

    # -- draining ----------------------------------------------------------

    def flush(self) -> int:
        """One mesh round: drain queued network messages, then buffered
        shard deliveries.  Returns messages processed + enqueued."""
        progressed = self._pump_fabric()
        for shard in self.shards:
            progressed += shard.flush_delivery()
        return progressed

    def run_until_idle(self, max_rounds: int = 10_000) -> int:
        """Pump rounds until no queued message and no buffered event
        remain; returns the total activity count.

        Exhausting ``max_rounds`` with work still pending records a
        ``stalled`` count in every fabric node's :class:`NetworkStats`
        and raises — a stuck mesh must be loud, not silently
        half-drained.
        """
        total = 0
        for _ in range(max_rounds):
            progressed = self.flush()
            total += progressed
            if not progressed and self._fabric_idle():
                return total
        buffered = sum(shard.pending_deliveries() for shard in self.shards)
        if self._fabric_idle() and not buffered:
            return total  # the final round drained the mesh: not a stall
        nodes = self._fabric_nodes()
        for node in nodes:
            node.stats.record_stall()
        raise NetworkError("mesh did not go idle in %d rounds "
                           "(%d messages queued, %d deliveries buffered)"
                           % (max_rounds,
                              sum(node.pending() for node in nodes),
                              buffered))

    # -- observability -----------------------------------------------------

    def events_routed(self) -> int:
        return sum(shard.events_routed for shard in self.shards)

    def all_idle(self) -> bool:
        """No queued fabric message and no buffered delivery anywhere."""
        return self._fabric_idle() and not any(
            shard.pending_deliveries() for shard in self.shards)

    def stats(self) -> dict:
        """Aggregate + per-shard observability snapshot."""
        return mesh_stats(self.topology.epoch,
                          {shard.peer_id: shard.stats()
                           for shard in self.shards})

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "BrokerMesh":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
