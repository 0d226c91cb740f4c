"""Type-based publish/subscribe with type interoperability.

"One obvious application of type interoperability is type-based
publish/subscribe (TPS).  With TPS, subscribers express their interest in
events of a given type ...  The main issue with TPS is that the subscribers
and the publishers must agree a priori on the types they want to
transfer/receive.  Enhancing TPS with type interoperability would simply
alleviate this problem." (Section 8)

Two broker flavours:

- :class:`LocalBroker` — in-process TPS: subscriptions are expected types,
  published events are routed to every subscription whose type the event's
  type *conforms to* (implicitly or explicitly), delivered through a
  translating dynamic proxy when needed.
- :class:`TpsBroker` — a network broker peer: publishers ``send()`` events
  to it over the optimistic protocol; subscriber peers register their
  expected type (as an XML description) and receive matching events
  re-published to them, code travelling on demand all the way.

Both are thin adapters over one shared
:class:`~repro.apps.tps.pipeline.DeliveryPipeline`: the brokers own the
subscription control plane (subscribe/unsubscribe, durable-cursor
registration, crash recovery) and delegate every admitted event to the
pipeline's admission → conformance → durable-append → dispatch → ack
stages.  :class:`TpsBroker` buffers a record's frame per destination
peer and sends one message per peer before the inbound message's
handler returns, however many of the peer's subscriptions match; for
sharded delivery batched across publishes see :mod:`repro.apps.tps.mesh`,
whose shards drain the same buffers on the mesh's pump instead.
"""

from __future__ import annotations

import itertools
import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...core.context import ConformanceOptions
from ...core.rules import ConformanceChecker
from ...cts.registry import TypeRegistry
from ...cts.types import TypeInfo
from ...describe.xml_codec import description_bytes, description_type
from ...net.network import NetworkError, SimulatedNetwork, UnknownPeerError
from ...obs.bridge import (
    register_broker_metrics,
    register_local_broker_metrics,
)
from ...obs.metrics import MetricsRegistry
from ...obs.tracing import TraceBuffer, TraceIdSource
from ...persistence import CursorStore, EventLog
from ...serialization.envelope import EnvelopeCodec, split_frames
from ...serialization.errors import UnknownTypeError
from ...transport.protocol import (
    KIND_DELIVERY_ACK,
    KIND_PUBLISH_ACK,
    InteropPeer,
)
from .pipeline import (
    AdmissionStage,
    BufferedDelivery,
    DeliveryPipeline,
    DurabilityStage,
    LocalDelivery,
    PipelineStats,
    ValueBatch,
)
from .routing import RoutingIndex

KIND_TPS_SUBSCRIBE = "tps_subscribe"
KIND_TPS_UNSUBSCRIBE = "tps_unsubscribe"
KIND_TPS_SUBSCRIBE_DURABLE = "tps_subscribe_durable"

#: Bound on outstanding (issued, unacknowledged) delivery tokens; read at
#: issue time so tests (and operators) can lower it on a live broker.
_MAX_PENDING_ACKS = 4096

#: Publisher-side sequence for durable-publish tokens.
_PUBLISH_SEQ = itertools.count(1)

Handler = Callable[[Any], None]


class Subscription:
    """One subscriber's expressed interest."""

    __slots__ = ("expected", "handler", "subscription_id", "peer_id", "delivered")

    def __init__(self, expected: TypeInfo, handler: Optional[Handler],
                 subscription_id: int, peer_id: Optional[str] = None):
        self.expected = expected
        self.handler = handler
        self.subscription_id = subscription_id
        self.peer_id = peer_id
        self.delivered = 0

    def __repr__(self) -> str:
        who = self.peer_id or "local"
        return "Subscription(#%d %s -> %s)" % (
            self.subscription_id, self.expected.full_name, who,
        )


class DurableSubscription(Subscription):
    """A subscription backed by a named replay cursor.

    The broker replays the retained backlog below the cursor's log end at
    subscribe time, then keeps delivering live events; every delivery to a
    remote durable subscriber carries an ack token, and the cursor only
    advances when the subscriber echoes it back (at-least-once).  Local
    (in-process handler) durable subscriptions advance their cursor as
    soon as the handler returns.
    """

    __slots__ = ("cursor_name",)

    def __init__(self, expected: TypeInfo, handler: Optional[Handler],
                 subscription_id: int, peer_id: Optional[str] = None,
                 cursor_name: str = ""):
        super().__init__(expected, handler, subscription_id, peer_id=peer_id)
        self.cursor_name = cursor_name

    def __repr__(self) -> str:
        who = self.peer_id or "local"
        return "DurableSubscription(#%d %s -> %s, cursor=%r)" % (
            self.subscription_id, self.expected.full_name, who,
            self.cursor_name,
        )


class LocalBroker:
    """In-process type-based publish/subscribe (a local-dispatch pipeline).

    Constructed with a ``runtime``, the broker also accepts *encoded*
    publishes (:meth:`publish_frame`): routing then runs on the frame
    header through the same :class:`~repro.serialization.envelope.LazyBatch`
    matching the mesh uses, so a publish that matches no local handler
    decodes zero values.
    """

    def __init__(self, checker: Optional[ConformanceChecker] = None,
                 registry: Optional[TypeRegistry] = None,
                 runtime: Any = None):
        self.checker = checker if checker is not None else ConformanceChecker(
            options=ConformanceOptions.pragmatic()
        )
        if runtime is not None and registry is None:
            registry = runtime.registry
        self.index = RoutingIndex(self.checker, registry)
        self.codec = EnvelopeCodec(runtime) if runtime is not None else None
        self.pipeline = DeliveryPipeline(
            index=self.index,
            delivery=LocalDelivery(),
        )
        self._next_id = 1
        self.published = 0
        self.metrics = MetricsRegistry()
        register_local_broker_metrics(self.metrics, self)

    def publish_frame(self, payload: Any) -> int:
        """Route one encoded batch frame; returns the number of deliveries.

        Header-driven, like every broker: the frame's type section
        decides which local subscriptions match, and a value is
        deserialized only at the moment a matching handler actually
        receives it — a no-match publish touches the header and nothing
        else.  This broker has no peer to fetch code from, so a frame
        naming a type this runtime cannot resolve raises
        :class:`~repro.serialization.errors.UnknownTypeError`.
        """
        if self.codec is None:
            raise TypeError("publish_frame requires LocalBroker(runtime=...)")
        batch = self.codec.lazy_batch(self.codec.parse(payload))
        missing = batch.missing()
        if missing is not None:
            raise UnknownTypeError(missing.name, missing.guid_text)
        self.published += len(batch)
        return self.pipeline.process(batch, origin=None).deliveries

    @property
    def delivered(self) -> int:
        return self.pipeline.stats.events_routed

    def subscribe(self, expected: TypeInfo, handler: Handler) -> Subscription:
        subscription = Subscription(expected, handler, self._next_id)
        self._next_id += 1
        self.index.add(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        self.index.remove(subscription.subscription_id)

    def subscriptions(self) -> List[Subscription]:
        return self.index.subscriptions()

    def stats(self) -> dict:
        """Observability snapshot: per-subscription delivery counts plus
        the routing cache's hit/miss breakdown."""
        return {
            "published": self.published,
            "delivered": self.delivered,
            "subscriptions": {
                subscription.subscription_id: subscription.delivered
                for subscription in self.index.subscriptions()
            },
            "routing": self.index.stats.as_dict(),
        }

    def publish(self, event: Any) -> int:
        """Route one event; returns the number of deliveries."""
        type_getter = getattr(event, "_repro_type", None)
        if type_getter is None:
            raise TypeError("event %r does not expose a CTS type" % (event,))
        type_getter()  # events must carry a resolvable CTS type
        self.published += 1
        return self.pipeline.process(ValueBatch([event]),
                                     origin=None).deliveries


class TpsBroker(InteropPeer):
    """A broker peer: receives events, re-publishes to matching subscribers.

    The broker declares no interests of its own (it accepts every event,
    downloading code on demand), checks each remote subscription's expected
    type against the event type, and forwards the event over the optimistic
    protocol — subscribers then fetch descriptions/code *from the broker*,
    which re-serves what it downloaded.
    """

    def __init__(self, peer_id: str, network: SimulatedNetwork,
                 log_dir: Optional[str] = None,
                 log_kwargs: Optional[dict] = None,
                 retain_unacked: bool = False,
                 tracing: bool = True,
                 trace_capacity: int = 512, **kwargs):
        kwargs.setdefault("options", ConformanceOptions.pragmatic())
        super().__init__(peer_id, network, **kwargs)
        self.index = RoutingIndex(self.checker, self.runtime.registry)
        self._next_id = 1
        #: Durability: with a ``log_dir``, every admitted event batch is
        #: appended to the event log *before* fan-out, and durable
        #: subscriptions replay from named cursors.
        #: ``log_kwargs`` passes rotation/retention/fsync knobs straight
        #: to :class:`~repro.persistence.EventLog` (``segment_max_bytes``,
        #: ``max_segments``, ``max_bytes``, ``fsync_every_n``,
        #: ``fsync_interval_ms``, ``compact_on_retention``); the cursor
        #: journal is group-committed under the same fsync policy (see
        #: :class:`~repro.persistence.CursorStore`) and checkpointed by
        #: :meth:`close`.
        #: ``retain_unacked`` gates retention on the slowest cursor: a
        #: segment holding records a durable subscriber has not acked is
        #: pinned instead of dropped (see :meth:`prune_cursors` for how
        #: abandoned cursors stop pinning).
        event_log: Optional[EventLog] = None
        cursors: Optional[CursorStore] = None
        self.log_dir = log_dir
        if log_dir is not None:
            event_log = EventLog(os.path.join(log_dir, "events"),
                                 **(log_kwargs or {}))
            cursors = CursorStore(os.path.join(log_dir, "cursors.json"))
        stats = PipelineStats()
        #: Per-record tracing (see :mod:`repro.obs.tracing`): ids are
        #: minted at origin publish admission, spans land in a bounded
        #: ring buffer.  ``tracing=False`` turns both off (the benchmark
        #: baseline for the tracing-overhead gate).
        self.tracer: Optional[TraceBuffer] = (
            TraceBuffer(peer_id, trace_capacity) if tracing else None)
        self._trace_ids: Optional[TraceIdSource] = (
            TraceIdSource(peer_id) if tracing else None)
        self.durability = DurabilityStage(
            self, event_log, cursors, stats=stats,
            ack_cap=lambda: _MAX_PENDING_ACKS,
            retain_unacked=retain_unacked)
        self.durability.tracker.tracer = self.tracer
        self.pipeline = self._build_pipeline(stats)
        self.on(KIND_TPS_SUBSCRIBE, self._handle_subscribe)
        self.on(KIND_TPS_UNSUBSCRIBE, self._handle_unsubscribe)
        self.on(KIND_TPS_SUBSCRIBE_DURABLE, self._handle_subscribe_durable)
        self.on(KIND_DELIVERY_ACK, self._handle_delivery_ack)
        #: The queryable metrics tree (every ``stats()`` key has a
        #: sampled family here; see :mod:`repro.obs.bridge`).
        self.metrics = MetricsRegistry()
        register_broker_metrics(self.metrics, self)

    def _build_pipeline(self, stats: PipelineStats) -> DeliveryPipeline:
        """The stage composition hook: the mesh shard overrides this to
        add forwarding and replication."""
        return DeliveryPipeline(
            index=self.index,
            delivery=BufferedDelivery(self, self.durability),
            durability=self.durability,
            admission=AdmissionStage(self, stats),
            stats=stats,
            host=self,
            tracer=self.tracer,
        )

    # -- pipeline state, re-exported for observability ---------------------

    @property
    def delivery(self) -> BufferedDelivery:
        return self.pipeline.delivery

    @property
    def event_log(self) -> Optional[EventLog]:
        return self.durability.event_log

    @property
    def cursors(self) -> Optional[CursorStore]:
        return self.durability.cursors

    @property
    def events_routed(self) -> int:
        return self.pipeline.stats.events_routed

    @property
    def events_replayed(self) -> int:
        return self.pipeline.stats.events_replayed

    @property
    def events_fetched(self) -> int:
        return self.pipeline.stats.events_fetched

    @property
    def replay_failures(self) -> int:
        return self.pipeline.stats.replay_failures

    @property
    def delivery_failures(self) -> int:
        return self.pipeline.stats.delivery_failures

    @property
    def retention_lost_records(self) -> int:
        return self.pipeline.stats.retention_lost_records

    @property
    def _pending_by_cursor(self) -> dict:
        return self.durability.tracker.windows

    @property
    def _cursor_blocks(self) -> dict:
        return self.durability.tracker.blocks

    def pending_ack_count(self) -> int:
        return self.durability.tracker.pending_count()

    def _issue_ack_token(self, peer_id: Optional[str],
                         entries: Sequence[Tuple[str, int, int]]) -> str:
        return self.durability.tracker.issue(peer_id, entries)

    def _forget_cursor_tokens(self, cursor_name: str) -> None:
        self.durability.forget_cursor(cursor_name)

    # -- subscription management ------------------------------------------

    def _handle_subscribe(self, payload: bytes, src: str) -> bytes:
        request = self._wire_codec.deserialize(payload)
        expected = description_type(request["description"],
                                    self.runtime.registry)
        subscription = Subscription(expected, None, self._next_id, peer_id=src)
        self._next_id += 1
        self.index.add(subscription)
        self._subscriptions_changed()
        return self._wire_codec.serialize({"id": subscription.subscription_id})

    def _handle_unsubscribe(self, payload: bytes, src: str) -> bytes:
        request = self._wire_codec.deserialize(payload)
        subscription = self.index.get(request["id"])
        if self.index.remove(request["id"], peer_id=src) and subscription is not None:
            if isinstance(subscription, DurableSubscription) \
                    and self.cursors is not None:
                # An explicit unsubscribe retires the cursor: a broker
                # restart must not resurrect a cancelled subscription,
                # and in-flight acks for it become no-ops.
                self.durability.remove_cursor(subscription.cursor_name)
            self._subscriptions_changed()
        return self._wire_codec.serialize({"ok": True})

    def _subscriptions_changed(self) -> None:
        """Hook for subclasses, called after a remote or durable
        subscription was added or removed (the mesh shard announces its
        summary here)."""

    def remote_subscriptions(self) -> List[Subscription]:
        return self.index.subscriptions()

    # -- durable subscriptions ----------------------------------------------

    def _handle_subscribe_durable(self, payload: bytes, src: str) -> bytes:
        request = self._wire_codec.deserialize(payload)
        description_xml = request["description"]
        expected = description_type(description_xml, self.runtime.registry)
        if isinstance(description_xml, bytes):
            description_xml = description_xml.decode("utf-8")
        subscription = self.subscribe_durable(
            expected, None, request["cursor"], peer_id=src,
            description_xml=description_xml,
        )
        return self._wire_codec.serialize({
            "id": subscription.subscription_id,
            "cursor_offset": self.cursors.get(subscription.cursor_name),
        })

    def subscribe_durable(self, expected: TypeInfo,
                          handler: Optional[Handler] = None,
                          cursor: str = "",
                          peer_id: Optional[str] = None,
                          description_xml: Optional[str] = None,
                          _recovering: bool = False) -> DurableSubscription:
        """Register a cursor-backed subscription and replay its backlog.

        ``cursor`` names the durable position: re-subscribing under the
        same name resumes after the last acknowledged record instead of
        replaying from the log's beginning.  The retained backlog below
        the log's *current* end is replayed through the routing index's
        conformance check (so replay admits exactly what live publish
        would), then the subscription keeps receiving live events; events
        appended after this call are live by construction, which is what
        makes the replay/live boundary duplicate-free.

        Remote subscriptions (``peer_id`` set, ``handler`` ``None``) are
        persisted with their type description, so a restarted broker can
        rebuild them (:meth:`recover_durable_subscriptions`); local
        handler subscriptions persist only their cursor offset.
        """
        if self.event_log is None or self.cursors is None:
            raise NetworkError("broker %s has no event log; pass log_dir= "
                               "to enable durable subscriptions" % self.peer_id)
        if not cursor:
            raise ValueError("a durable subscription needs a cursor name")
        if "@" in cursor:
            # "base@sibling" names the per-sibling fetch cursors a mesh
            # shard derives from a durable cursor; a user cursor shaped
            # like one could be silently adopted into another cursor's
            # family (skipped by recovery, retired with the other's
            # unsubscribe).
            raise ValueError("'@' is reserved for derived fetch cursors; "
                             "pick a cursor name without it")
        for existing in self.index.subscriptions():
            if isinstance(existing, DurableSubscription) \
                    and existing.cursor_name == cursor:
                # A reconnect under the same cursor name replaces the old
                # incarnation — two live subscriptions sharing a cursor
                # would double-deliver every event.  Only the owner may
                # replace it: a cursor is not transferable between peers.
                if existing.peer_id != peer_id:
                    raise NetworkError(
                        "cursor %r belongs to %s" % (
                            cursor, existing.peer_id or "a local handler"))
                # The registration below reports the change.
                self.index.remove(existing.subscription_id)
                # The old incarnation's in-flight deliveries are moot: the
                # replay below redelivers everything unacked, so its ack
                # window, undelivered-range block, AND outstanding tokens
                # must all go — a stale token left for cap-eviction would
                # re-install a block nothing ever clears.
                self._forget_cursor_tokens(cursor)
        stored = self.cursors.entry(cursor)
        if stored is not None and stored.get("peer_id") != peer_id:
            # Same ownership rule against the persisted state: a cursor is
            # not transferable — not between peers, and not between a
            # detached local handler (peer_id None, awaiting re-attach)
            # and a remote peer in either direction.
            raise NetworkError("cursor %r belongs to %s"
                               % (cursor,
                                  stored.get("peer_id") or "a local handler"))
        self.runtime.registry.register(expected)
        subscription = DurableSubscription(expected, handler, self._next_id,
                                           peer_id=peer_id, cursor_name=cursor)
        self._next_id += 1
        self.index.add(subscription)
        description = description_bytes(expected) if description_xml is None \
            else description_xml.encode("utf-8")
        if description_xml is None and peer_id is not None:
            description_xml = description.decode("utf-8")
        fresh_cursor = cursor not in self.cursors
        # Recovery's mechanical re-registration must not refresh the
        # cursor's idleness stamp — only the subscriber itself coming
        # back (or acking) counts against prune_cursors.
        self.durability.register_cursor(cursor, peer_id=peer_id,
                                        description=description_xml,
                                        touch=not _recovering)
        self._subscriptions_changed()
        self.pipeline.replay(subscription, fresh=fresh_cursor)
        self._replay_mesh(subscription, description, recovering=_recovering)
        return subscription

    def _replay_mesh(self, subscription: DurableSubscription,
                     description: bytes, recovering: bool = False) -> int:
        """Hook for subclasses: complete a durable subscription's backlog
        with records homed on *other* brokers.  The single broker has no
        siblings — the mesh shard overrides this with replica-log replay
        plus on-demand backlog fetch."""
        return 0

    def recover_durable_subscriptions(self) -> List[DurableSubscription]:
        """Rebuild remote durable subscriptions from the cursor store.

        Called after a broker restart: each persisted cursor with a peer
        id and a type description becomes a live subscription again, and
        its unacknowledged backlog is replayed (at-least-once — a record
        that was delivered but never acked goes out a second time).
        Local handler cursors are left untouched; the owning process
        re-attaches by calling :meth:`subscribe_durable` under the same
        cursor name.
        """
        if self.event_log is None or self.cursors is None:
            return []
        restored = []
        for name in self.cursors.names():
            entry = self.cursors.entry(name)
            peer_id = entry.get("peer_id")
            description = entry.get("description")
            if not peer_id or not description or entry.get("origin"):
                continue  # fetch cursors ride their base subscription
            expected = description_type(description.encode("utf-8"),
                                        self.runtime.registry)
            restored.append(self.subscribe_durable(
                expected, None, name, peer_id=peer_id,
                description_xml=description, _recovering=True))
        return restored

    # -- cursor GC / compaction ---------------------------------------------

    def prune_cursors(self, max_idle_incarnations: int = 3) -> List[str]:
        """Expire cursors whose subscribers never returned (no
        registration or ack for ``max_idle_incarnations`` broker
        incarnations).  A pruned cursor stops pinning the retention floor
        and releases its in-flight ack state; a subscriber that does come
        back later simply starts a fresh cursor at the retained head."""
        return self.durability.prune_cursors(max_idle_incarnations)

    def compact_log(self, key_of=None) -> Dict[str, object]:
        """Run a key-aware compaction pass over the broker's event log,
        bounded by the slowest cursor — records a durable subscriber has
        not acknowledged are never rewritten away.  Returns the
        compaction summary (see :meth:`repro.persistence.EventLog.compact`)."""
        return self.durability.compact(key_of=key_of)

    # -- acknowledgements ---------------------------------------------------

    def _handle_delivery_ack(self, payload: bytes, src: str) -> bytes:
        self.durability.tracker.acknowledge(payload.decode("utf-8"), src)
        return b"OK"

    def stats(self) -> dict:
        """Observability snapshot: routed-event and per-subscription
        delivery counts, routing cache hit/miss, plus whatever counters a
        subclass contributes via :meth:`_extra_stats` (the mesh shard adds
        its batch/forward counters)."""
        snapshot = {
            "events_routed": self.events_routed,
            "subscriptions": {
                subscription.subscription_id: subscription.delivered
                for subscription in self.index.subscriptions()
            },
            "routing": self.index.stats.as_dict(),
            "transport": self.transport_stats.as_dict(),
            "codec": self.codec.stats.as_dict(),
        }
        if self.event_log is not None:
            snapshot["log"] = self.event_log.stats()
            snapshot["cursors"] = self.cursors.as_dict()
            snapshot["events_replayed"] = self.events_replayed
            snapshot["replay_failures"] = self.replay_failures
            snapshot["delivery_failures"] = self.delivery_failures
            snapshot["retention_lost_records"] = self.retention_lost_records
            snapshot["pending_acks"] = self.pending_ack_count()
        snapshot.update(self._extra_stats())
        return snapshot

    def _extra_stats(self) -> dict:
        return {}

    def close(self) -> None:
        super().close()
        self.durability.close()

    # -- publish admission ---------------------------------------------------

    def _handle_object(self, payload: bytes, src: str) -> bytes:
        try:
            self._admit_frame(payload, src, batch=False)
        finally:
            self._send_buffered()
        return b"OK"

    def _handle_object_batch(self, payload: bytes, src: str) -> bytes:
        """Broker-side batch admission: every frame of a (possibly
        multi-frame) message is admitted as its own record."""
        try:
            for frame in split_frames(payload):
                self._admit_frame(frame, src, batch=True)
        finally:
            self._send_buffered()
        return b"OK"

    def _send_buffered(self) -> None:
        """Send what one inbound message buffered, one message per
        destination peer.  A mesh shard overrides this: its pump drains
        the buffers (:meth:`~repro.apps.tps.mesh.MeshShard.flush_delivery`)."""
        self.delivery.flush()

    def _admit_frame(self, payload: Any, src: str, batch: bool) -> None:
        """Admit one publish frame as one record.

        The record is routed on its header's root types and logged (and,
        on a mesh shard, forwarded and replicated) as its *frame* —
        values decode only at final local delivery.  The code of a type
        unknown here is fetched first (:meth:`AdmissionStage.admit`).

        A ``publish_ack`` token marks a *durable publish*: it is
        acknowledged back to the publisher only after the append
        returned (extending at-least-once to the publisher).  A delivery
        ``ack`` token on a batch frame is echoed like any receiver
        echoes it.  Neither token stays in the stored frame.
        """
        envelope = self.codec.parse(payload)
        admitted = self.pipeline.admission.admit(envelope, src)
        token, delivery_ack = envelope.publish_ack, envelope.ack
        origin = envelope.origin or src
        # ONE header rewrite: the stored/forwarded frame names its
        # publisher and carries neither token.  The trace id is minted
        # here, in the same rewrite — it then travels inside the frame
        # bytes through every forward/replicate/replay hop at zero extra
        # cost.
        envelope.origin = origin
        envelope.publish_ack = envelope.ack = None
        if envelope.trace is None and self._trace_ids is not None:
            envelope.trace = self._trace_ids.next()
        stored = self.codec.envelope_to_bytes(envelope)
        if self.tracer is not None and envelope.trace is not None:
            self.tracer.record(envelope.trace, "admit",
                               {"src": src, "origin": origin,
                                "bytes": len(stored)})
        self.transport_stats.objects_received += len(admitted)
        if batch:
            self.transport_stats.batches_received += 1
        self.pipeline.process(admitted, origin, payload=stored, forward=True,
                              trace=envelope.trace)
        if token is not None:
            try:
                self.post_async(src, KIND_PUBLISH_ACK,
                                token.encode("utf-8"))
                self.transport_stats.publish_acks_sent += 1
                self.pipeline.stats.publish_acks_sent += 1
            except UnknownPeerError:
                self.network.stats.record_drop()  # publisher left
        if batch and delivery_ack is not None:
            self._echo_ack(delivery_ack, src)


class TpsSubscriberMixin:
    """Client-side helpers for talking to a :class:`TpsBroker`.

    Mix into (or use via) :class:`TpsPeer`; requires the
    :class:`InteropPeer` surface (notably its shared ``_wire_codec``).
    """

    def _subscribe_at(self, broker_id: str, kind: str, expected: TypeInfo,
                      handler: Handler,
                      extra: Optional[dict] = None,
                      replace_key=None) -> int:
        """Shared subscribe machinery: declare the interest, send the
        description (plus any ``extra`` request fields) under ``kind``,
        and register ``handler`` in the peer's dispatch table under the
        interests it accepts.  Both the plain and the durable subscribe
        paths route through here, so delivery gating can never silently
        diverge between them.

        ``replace_key`` makes a reconnect a table update: a subscribe
        under the same key (the durable path uses ``(broker, cursor)``)
        moves the earlier handler's entries to this one instead of
        stacking a second handler that would run twice per event.
        """
        self.declare_interest(expected)
        request = {"description": description_bytes(expected)}
        if extra:
            request.update(extra)
        response = self.request(
            broker_id, kind,
            self._wire_codec.serialize(request),
            retries=self.max_retries,
        )
        subscription_id = self._wire_codec.deserialize(response)["id"]

        # The admission check credits the FIRST declared interest an event
        # conforms to, so a reconnect's gate must keep accepting the
        # interest objects its earlier incarnations declared.
        key = (broker_id, subscription_id)
        gate = [expected]
        if replace_key is not None:
            reconnects = self.__dict__.setdefault("_reconnect_gates", {})
            previous = reconnects.get(replace_key)
            if previous is not None:
                old_key, old_gate = previous
                self.remove_interest_handler(old_key)
                gate.extend(old_gate)
            reconnects[replace_key] = (key, gate)
        self.add_interest_handler(key, gate, handler)
        return subscription_id

    def subscribe_remote(self, broker_id: str, expected: TypeInfo,
                         handler: Handler) -> int:
        """Declare interest at a broker; matching events arrive as proxied
        views of ``expected`` and are passed to ``handler``."""
        return self._subscribe_at(broker_id, KIND_TPS_SUBSCRIBE, expected,
                                  handler)

    def subscribe_durable_remote(self, broker_id: str, expected: TypeInfo,
                                 handler: Handler, cursor: str) -> int:
        """Durably subscribe at a broker under a named replay cursor.

        The broker replays the retained backlog (events appended before
        this call, above the cursor's acked position) as batch messages,
        then keeps delivering live events; each delivery carries an ack
        token the transport echoes automatically, advancing the cursor.
        Replay and live traffic both travel the queued one-way path —
        drain the network (``run_until_idle``) to receive them.

        An ack means the *peer* admitted the batch (decoded it and ran its
        interest checks), not that this ``handler`` fired: like
        :meth:`subscribe_remote`, the handler is gated on the event
        matching ``expected`` among the peer's declared interests, and
        first-conforming-wins.  A peer that declares several overlapping
        interests should therefore durable-subscribe with the one it
        wants credited to the cursor, or use a dedicated subscriber peer
        per cursor (what every in-repo user does).
        """
        return self._subscribe_at(broker_id, KIND_TPS_SUBSCRIBE_DURABLE,
                                  expected, handler,
                                  extra={"cursor": cursor},
                                  replace_key=(broker_id, cursor))

    def unsubscribe_remote(self, broker_id: str, subscription_id: int) -> None:
        """Cancel a subscription at its broker and drop its handler.  The
        declared interest stays: admission still credits it first."""
        self.request(
            broker_id,
            KIND_TPS_UNSUBSCRIBE,
            self._wire_codec.serialize({"id": subscription_id}),
            retries=self.max_retries,
        )
        self.remove_interest_handler((broker_id, subscription_id))

    def publish(self, broker_id: str, event: Any) -> None:
        self.send(broker_id, event)

    def publish_async(self, broker_id: str, event: Any) -> None:
        """Queue-driven publish: the event is enqueued on the network and
        the broker routes it when the scheduler drains — the broker's (and
        every subscriber's) code never runs inside this call stack."""
        self.send_async(broker_id, event)

    # -- publisher-side durability ------------------------------------------

    def publish_durable(self, broker_id: str, events: Any) -> str:
        """Acked publish: the broker acknowledges the token only after the
        batch is appended to its durable log, extending the at-least-once
        guarantee back to the publisher.

        ``events`` may be one event or a list (a list travels — and is
        logged — as ONE batch record).  Returns the publish token; the
        publish is in flight until the broker's ``publish_ack`` comes back
        (drain the network), after which :meth:`unacked_publishes` no
        longer lists it.  Anything still unacked — the publish or its ack
        lost on a lossy fabric, or the broker crashed before appending —
        can be resent verbatim with :meth:`republish_unacked`; the broker
        logs the duplicate, which at-least-once delivery already covers.

        Against a broker *without* an event log the ack degrades to an
        admission ack — the batch was decoded and routed, but nothing is
        durable and ``republish_unacked`` cannot recover a broker crash.
        Give brokers a ``log_dir`` for the full guarantee.
        """
        values = list(events) if isinstance(events, (list, tuple)) \
            else [events]
        self._wire_publish_acks()
        token = "%s/pub-%d" % (self.peer_id, next(_PUBLISH_SEQ))
        payload = self.codec.encode_batch(values, publish_ack=token)
        self._pending_publishes[token] = (broker_id, payload, len(values))
        self.send_payload_batch(broker_id, payload, len(values))
        return token

    def _wire_publish_acks(self) -> None:
        if "_pending_publishes" not in self.__dict__:
            self._pending_publishes: Dict[str, Tuple[str, bytes, int]] = {}
            self.on(KIND_PUBLISH_ACK, self._handle_publish_ack)

    def _handle_publish_ack(self, payload: bytes, src: str) -> bytes:
        token = payload.decode("utf-8")
        if self._pending_publishes.pop(token, None) is not None:
            self.transport_stats.publishes_acked += 1
        return b"OK"

    def unacked_publishes(self) -> List[str]:
        """Tokens of durable publishes not yet acknowledged by a broker."""
        return list(self.__dict__.get("_pending_publishes", ()))

    def republish_unacked(self) -> int:
        """Resend every unacknowledged durable publish verbatim; returns
        the number of batches resent.  Safe under at-least-once: a batch
        whose ack (rather than the batch itself) was lost is logged and
        delivered a second time, exactly as the contract allows."""
        pending = self.__dict__.get("_pending_publishes")
        if not pending:
            return 0
        resent = 0
        for broker_id, payload, count in list(pending.values()):
            try:
                self.send_payload_batch(broker_id, payload, count)
            except UnknownPeerError:
                self.network.stats.record_drop()  # broker gone right now
                continue
            resent += 1
        return resent


class TpsPeer(TpsSubscriberMixin, InteropPeer):
    """A publisher/subscriber endpoint for broker-mediated TPS."""

    def __init__(self, peer_id: str, network: SimulatedNetwork, **kwargs):
        kwargs.setdefault("options", ConformanceOptions.pragmatic())
        super().__init__(peer_id, network, **kwargs)
