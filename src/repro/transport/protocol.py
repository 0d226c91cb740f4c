"""The optimistic transport protocol (paper Section 3, Figure 1).

    Peer A                                   Peer B
    ------ 1. object (envelope only) ------->
    <----- 2. ask type information ---------
    ------ 3. type description ------------->   rules check
    <----- 4. types conform, ask the code --
    ------ 5. assembly (code) -------------->   object usable

The protocol is optimistic because steps 2-5 happen only when needed: a
known type skips everything, a cached description skips 2-3, and a failed
conformance check *saves* the code transfer entirely.

:class:`InteropPeer` is the full middleware endpoint: runtime + registry,
description cache and resolver, conformance checker, envelope codec, and
the request handlers that let every peer also serve descriptions and
assemblies for the types it hosts.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..cts.assembly import Assembly
from ..cts.identity import Guid
from ..cts.registry import BoundedMemo
from ..cts.types import TypeInfo
from ..core.context import ConformanceOptions
from ..core.result import ConformanceResult
from ..core.rules import ConformanceChecker
from ..describe.cache import DescriptionCache
from ..describe.description import TypeDescription
from ..describe.resolver import DescriptionResolver
from ..describe.xml_codec import description_bytes, deserialize_description
from ..net.codeserver import KIND_GET_ASSEMBLY, KIND_GET_DESCRIPTION
from ..net.network import (
    MessageDropped,
    NetworkError,
    SimulatedNetwork,
    UnknownPeerError,
)
from ..net.peer import Peer, error_response
from ..remoting.dynamic import proxy_class, wrap_with_result
from ..runtime.loader import Runtime
from ..serialization.binary import BinarySerializer
from ..serialization.envelope import (
    EnvelopeCodec,
    LazyBatch,
    ObjectEnvelope,
    split_frames,
)
from ..serialization.errors import SerializationError, WireFormatError

KIND_OBJECT = "object"
KIND_OBJECT_BATCH = "object_batch"
#: One-way acknowledgement for a delivery that carried an ``ack`` token:
#: the receiver echoes the token to the sender, which advances whatever
#: durable replay cursors the token covers.
KIND_DELIVERY_ACK = "delivery_ack"
#: One-way acknowledgement for a *publish* that carried a ``publish_ack``
#: token: a broker echoes the token to the publisher only after the batch
#: was appended to its durable log, extending at-least-once back to the
#: publisher (see ``TpsSubscriberMixin.publish_durable``).
KIND_PUBLISH_ACK = "publish_ack"
#: One-way cross-shard log replication: an origin shard streams batches
#: of its durably appended records to rendezvous-chosen follower shards,
#: which store them in per-origin replica logs at the origin's offsets.
KIND_REPLICATE = "replicate"
#: The follower's one-way answer: its per-origin high-water offset, which
#: the origin uses both as the replication watermark and as the trigger to
#: re-send a range the follower reports missing (a dropped batch).
KIND_REPLICATE_ACK = "replicate_ack"
#: Round-trip backlog fetch: a shard replaying a durable subscription asks
#: a sibling for the sibling's own records (conformance-filtered server
#: side) that the local log and replica set are missing.
KIND_BACKLOG_FETCH = "backlog_fetch"
#: Round-trip recovery catch-up: a restarted shard whose log was lost asks
#: its followers for the replicated copy of its own records.
KIND_REPLICA_PULL = "replica_pull"

#: Safety bound on the code-loading loop (one fetch per unknown type).
_MAX_CODE_FETCHES = 64

#: Bound on the admission memo.  Registered types are few; a provider type
#: rebuilt from a fetched description per receipt would otherwise grow it.
_MAX_VERDICTS = 512

#: What the admission memo holds for an accepted provider type: the first
#: declared interest it conforms to, and that check's result.
_Verdict = Tuple[TypeInfo, ConformanceResult]

#: The admission of every object while no interest is declared: accepted
#: as it is, with no interest and no view wrapper.
_OPEN = (None, None)


class ProtocolError(Exception):
    pass


class TransportStats:
    """Per-peer protocol counters (reported by the Figure-1 benchmarks)."""

    __slots__ = (
        "objects_sent",
        "objects_received",
        "objects_rejected",
        "descriptions_fetched",
        "assemblies_fetched",
        "unknown_type_retries",
        "batches_sent",
        "batches_received",
        "publish_acks_sent",
        "publishes_acked",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return "TransportStats(%s)" % ", ".join(
            "%s=%d" % item for item in self.as_dict().items()
        )


class ReceivedObject:
    """What lands in a receiver's inbox after the protocol completes."""

    __slots__ = ("sender", "type_name", "value", "view", "interest", "result")

    def __init__(
        self,
        sender: str,
        type_name: str,
        value: Any,
        view: Any,
        interest: Optional[TypeInfo],
        result: Optional[ConformanceResult],
    ):
        self.sender = sender
        self.type_name = type_name
        self.value = value          # raw deserialized object (None if rejected)
        self.view = view            # object as the interest type (proxied if needed)
        self.interest = interest    # the matching declared interest, if any
        self.result = result        # conformance result against that interest

    @property
    def accepted(self) -> bool:
        return self.view is not None

    def __repr__(self) -> str:
        state = "accepted" if self.accepted else "rejected"
        return "ReceivedObject(%s from %s, %s)" % (self.type_name, self.sender, state)


class _FetchScope:
    """Scoped rebind of a peer's resolver fetch hook to one sending peer
    (nested member types of rule recursion fetch from the sender)."""

    __slots__ = ("_peer", "_src", "_saved")

    def __init__(self, peer: "InteropPeer", src: str):
        self._peer = peer
        self._src = src

    def __enter__(self) -> "_FetchScope":
        peer, src = self._peer, self._src
        self._saved = peer.resolver.fetch
        peer.resolver.fetch = (
            lambda name, path: peer._obtain_description(src, name, None)
        )
        return self

    def __exit__(self, *exc) -> bool:
        self._peer.resolver.fetch = self._saved
        return False


class InteropPeer(Peer):
    """A middleware endpoint implementing the optimistic protocol."""

    def __init__(
        self,
        peer_id: str,
        network: SimulatedNetwork,
        encoding: str = "binary",
        options: Optional[ConformanceOptions] = None,
        code_source: Optional[str] = None,
        max_retries: int = 0,
    ):
        super().__init__(peer_id, network)
        self.max_retries = max_retries
        self.runtime = Runtime()
        self.cache = DescriptionCache()
        self.resolver = DescriptionResolver(self.runtime.registry, self.cache)
        self.checker = ConformanceChecker(self.resolver, options)
        self.codec = EnvelopeCodec(self.runtime, encoding)
        self.interests: List[TypeInfo] = []
        self.inbox: List[ReceivedObject] = []
        self.transport_stats = TransportStats()
        self.code_source = code_source  # fallback repository peer id
        self._hosted: Dict[str, Assembly] = {}
        self._receive_callbacks: List[Callable[[ReceivedObject], None]] = []
        #: The dispatch table: ``id(interest)`` -> (the interest, its
        #: handlers, their registration keys), in registration order.
        #: Keyed by identity, not by the TypeInfo's guid-based equality:
        #: two declared copies of one type are two distinct interests.
        self._interest_handlers: Dict[
            int, Tuple[TypeInfo, List[Callable[[Any], None]], List[Hashable]]
        ] = {}
        self._handler_gates: Dict[Hashable, List[TypeInfo]] = {}
        #: Admission memo: ``id(provider type)`` -> (that type, its verdict
        #: or ``None`` for a rejection), valid for one type epoch.
        self._verdicts = BoundedMemo(_MAX_VERDICTS, self.runtime.registry)
        #: Shared wire serializer for assembly transfer and control
        #: messages (e.g. TPS subscribe/unsubscribe).  Long-lived and
        #: buffer-reusing: no request path allocates a fresh serializer.
        self._wire_codec = BinarySerializer()
        self.on(KIND_OBJECT, self._handle_object)
        self.on(KIND_OBJECT_BATCH, self._handle_object_batch)
        self.on(KIND_GET_DESCRIPTION, self._serve_description)
        self.on(KIND_GET_ASSEMBLY, self._serve_assembly)

    # ------------------------------------------------------------------
    # local knowledge
    # ------------------------------------------------------------------

    def host_assembly(self, assembly: Assembly) -> None:
        """Load an assembly locally and serve it to other peers."""
        self.runtime.load_assembly(assembly)
        self._hosted[assembly.download_path] = assembly
        self._hosted[assembly.name] = assembly

    def declare_interest(self, info: TypeInfo) -> None:
        """Register a type of interest — received objects whose types
        conform to it are delivered as that type."""
        self.runtime.registry.register(info)
        self.interests.append(info)
        self.runtime.registry.bump()  # verdicts depend on the interests

    def on_receive(self, callback: Callable[[ReceivedObject], None]) -> None:
        """Run ``callback`` for every received object, accepted or not,
        before any interest handler."""
        self._receive_callbacks.append(callback)

    def add_interest_handler(self, key: Hashable, gate: Sequence[TypeInfo],
                             handler: Callable[[Any], None]) -> None:
        """Run ``handler(view)`` for every object accepted as one of the
        declared interests in ``gate`` (matched by identity).  ``key``
        names the registration for :meth:`remove_interest_handler`."""
        unique = list({id(interest): interest for interest in gate}.values())
        for interest in unique:
            entry = self._interest_handlers.get(id(interest))
            if entry is None:
                entry = self._interest_handlers[id(interest)] = (
                    interest, [], [])
            entry[1].append(handler)
            entry[2].append(key)
        self._handler_gates[key] = unique

    def remove_interest_handler(self, key: Hashable) -> List[TypeInfo]:
        """Drop the handler registered under ``key``; returns the
        interests it was registered for (empty when none was)."""
        gate = self._handler_gates.pop(key, [])
        for interest in gate:
            _, handlers, keys = self._interest_handlers[id(interest)]
            index = keys.index(key)
            del handlers[index]
            del keys[index]
            if not keys:
                del self._interest_handlers[id(interest)]
        return gate

    def new_instance(self, type_name: str, args: Optional[List[Any]] = None):
        return self.runtime.new_instance(type_name, args)

    # ------------------------------------------------------------------
    # sending (step 1)
    # ------------------------------------------------------------------

    def send(self, dst: str, value: Any) -> None:
        """Optimistic send: the envelope carries only type names + download
        paths + the serialized object; no description, no code."""
        self.send_payload(dst, self.codec.encode(value))

    def send_payload(self, dst: str, payload: bytes) -> None:
        """Send an already-encoded envelope — the fan-out fast path: a
        broker forwarding one event to many subscribers encodes once and
        posts the same payload to each."""
        self.transport_stats.objects_sent += 1
        self.post(dst, KIND_OBJECT, payload, retries=self.max_retries)

    def send_async(self, dst: str, value: Any) -> None:
        """Optimistic send via the network's queue: nothing executes in
        this call stack; the receiver runs when the scheduler drains."""
        self.transport_stats.objects_sent += 1
        self.post_async(dst, KIND_OBJECT, self.codec.encode(value))

    def send_batch(self, dst: str, values: List[Any]) -> None:
        """Send many values to one peer as a single batch message."""
        self.send_payload_batch(dst, self.codec.encode_batch(values), len(values))

    def send_payload_batch(self, dst: str, payload: bytes, count: int) -> None:
        """Enqueue an already-encoded batch envelope — the mesh fan-out
        fast path: a broker with queued events for a peer encodes the
        batch once and sends ONE network message, however many
        subscriptions it covers.  Delivery is queue-driven: the message
        travels when the network scheduler drains."""
        self.post_async(dst, KIND_OBJECT_BATCH, payload)
        # Count only after the enqueue succeeded (post_async raises for an
        # unknown peer): sent counters stay reconcilable with the network's.
        self.transport_stats.objects_sent += count
        self.transport_stats.batches_sent += 1

    # ------------------------------------------------------------------
    # receiving (steps 2-5)
    # ------------------------------------------------------------------

    def _handle_object(self, payload: bytes, src: str) -> bytes:
        self.receive_envelope(self.codec.parse(payload), src)
        return b"OK"

    def _handle_object_batch(self, payload: bytes, src: str) -> bytes:
        """Receive one batch message — possibly a multi-frame container
        (several records a mesh flush coalesced into one message), each
        frame admitted independently."""
        for frame in split_frames(payload):
            self._receive_batch_frame(frame, src)
        return b"OK"

    def _receive_batch_frame(self, frame, src: str) -> None:
        """Admit one batch frame: load the code of every header type this
        runtime cannot resolve (:meth:`loaded_batch`), then admit its
        values on the header's root types (:meth:`_admit_batch`).

        A broker relays a frame only to a peer with a subscription that
        one of its values matched, so the code comes first, with no
        description round trip.  A mixed record (say Person, Account,
        Person) delivered to a subscriber that holds Person but not
        Account therefore still pays Account's ``get_assembly``, although
        no interest accepts it.
        """
        envelope = self.codec.parse(frame)
        self.transport_stats.batches_received += 1
        self._admit_batch(envelope, src, self.loaded_batch(envelope, src))
        if envelope.ack is not None:
            self._echo_ack(envelope.ack, src)

    def _echo_ack(self, token: str, src: str) -> None:
        """Acknowledge a batch's durable-delivery token on the queued
        one-way path, so cursor advancement flows through the same
        deterministic scheduler as the delivery itself."""
        try:
            self.post_async(src, KIND_DELIVERY_ACK, token.encode("utf-8"))
        except UnknownPeerError:
            self.network.stats.record_drop()  # sender left the fabric

    def receive_envelope(self, envelope: ObjectEnvelope, src: str) -> None:
        """Admit and deliver one directly sent object, as Figure 1 does:
        an unknown root type is decided on its description (steps 2-3),
        and code is fetched only for an accepted object (steps 4-5), so a
        non-conformant object never costs a code download."""
        if envelope.is_batch:
            raise WireFormatError("a batch envelope sent as one object")
        self._admit_batch(envelope, src, None)

    def _admit_batch(self, envelope: ObjectEnvelope, src: str,
                     batch: Optional[LazyBatch]) -> None:
        """Admit and deliver a frame's values, in frame order.  ``batch``
        is the frame with its code loaded, or ``None`` for a direct send
        (see :meth:`receive_envelope`), the only way to reach an unknown
        root type here.

        The interest check runs on the header's root types BEFORE any
        decode, once per run — a stretch of consecutive values with one
        root entry.  An accepted run decodes in one call and builds its
        views from one proxy class; a rejected run decodes nothing.  A
        handler that declares an interest or registers a type part-way
        sends the run's later values through a fresh check, as on their
        own."""
        stats = self.transport_stats
        if batch is None or len(batch) == 1:
            stats.objects_received += 1
            provider_info = (self._described(envelope, src) if batch is None
                             else batch.root_type(0))
            name = provider_info.full_name
            verdict = self._admission(src, provider_info)
            if verdict is None:
                stats.objects_rejected += 1
                self._deliver(ReceivedObject(src, name, None, None, None, None))
                return
            if batch is None:
                batch = self.loaded_batch(envelope, src)
            self._deliver(self._accepted(src, name, verdict, batch.value(0)))
            return
        roots = envelope.batch_roots
        registry, checker = self.runtime.registry, self.checker
        index = 0
        while index < len(roots):
            stop = index + 1
            while stop < len(roots) and roots[stop] == roots[index]:
                stop += 1
            provider_info = batch.root_type(index)
            name = provider_info.full_name
            verdict = self._admission(src, provider_info)
            epoch = registry.epoch
            values = failure = cls = None
            if verdict is not None:
                interest, result = verdict
                if interest is not None and result.needs_proxy:
                    mapping = result.mapping
                    cls = mapping.proxy_class or proxy_class(mapping)
                try:
                    values = batch.decode_to(stop)
                except SerializationError as error:
                    # Deliver what decoded before the bad value, then fail.
                    failure, values = error, batch.decode_to(0)
                    stop = len(values)
            while index < stop:
                stats.objects_received += 1
                if values is None:
                    stats.objects_rejected += 1
                    received = ReceivedObject(src, name, None, None, None, None)
                else:
                    value = values[index]
                    received = ReceivedObject(
                        src, name, value, value if cls is None else
                        cls(value, interest, mapping, checker),
                        interest, result)
                self._deliver(received)
                index += 1
                if registry.epoch != epoch:
                    break
            else:
                if failure is not None:
                    stats.objects_received += 1
                    raise failure

    def _admission(self, src: str,
                   provider_info: TypeInfo) -> Optional[_Verdict]:
        """The verdict every admission shares: the first declared
        interest ``provider_info`` conforms to, ``None`` for a rejection,
        or :data:`_OPEN` when no interest is declared (everything is
        admitted unwrapped)."""
        if not self.interests:
            return _OPEN
        return self._verdict(src, provider_info)

    def _accepted(self, src: str, name: str, verdict: _Verdict,
                  value: Any) -> ReceivedObject:
        interest, result = verdict
        if interest is None:
            return ReceivedObject(src, name, value, value, None, None)
        view = wrap_with_result(value, interest, result, self.checker)
        return ReceivedObject(src, name, value, view, interest, result)

    def _verdict(self, src: str, provider_info: TypeInfo) -> Optional[_Verdict]:
        """First-conforming-wins over the declared interests, memoized per
        provider type (by identity), for one type epoch: declaring an
        interest, registering a type and clearing the checker's cache each
        move it."""
        memo = self._verdicts
        if memo.epoch != self.runtime.registry.epoch:
            memo.fresh()
        hit = memo.get(id(provider_info))
        if hit is not None:
            return hit[1]
        verdict: Optional[_Verdict] = None
        with self._fetching_from(src):
            for candidate in self.interests:
                result = self.checker.conforms(provider_info, candidate)
                if result.ok:
                    verdict = (candidate, result)
                    break
        memo.put(id(provider_info), (provider_info, verdict))
        return verdict

    def _deliver(self, received: ReceivedObject) -> None:
        """Inbox, then every ``on_receive`` callback, then the handlers
        registered for the accepted interest: one table lookup, however
        many subscriptions and interests the peer holds."""
        self.inbox.append(received)
        for callback in self._receive_callbacks:
            callback(received)
        entry = self._interest_handlers.get(id(received.interest))
        if entry is not None:
            view = received.view
            for handler in entry[1]:
                handler(view)

    # -- step 2-3 helpers ---------------------------------------------------

    def _described(self, envelope: ObjectEnvelope, src: str) -> TypeInfo:
        """The root type of a direct send: the local type, else the type
        its description tells (steps 2-3) — of exactly that version."""
        info = self.codec.lazy_batch(envelope).root_type(0)
        if info is not None:
            return info
        root = envelope.root_entry()
        description = self._obtain_description(src, root.name,
                                                Guid.parse(root.guid_text))
        if description is None:
            raise ProtocolError(
                "peer %s cannot describe type %s" % (src, root.name))
        return description.to_type_info()

    def _obtain_description(
        self, src: str, type_name: str, guid: Optional[Guid]
    ) -> Optional[TypeDescription]:
        """The description of ``type_name``, cached or fetched from
        ``src`` (then the fallback sources).  With a ``guid`` only that
        version will do: the cache is searched by GUID, and a fetched
        description of another version cannot describe it.  Without one
        (nested member types) any version of the name will do."""
        if guid is None:
            if self.cache.contains_name(type_name):
                return self.cache.get_by_name(type_name)
        elif self.cache.contains_guid(guid):
            return self.cache.get_by_guid(guid)
        for source in [src] + self._code_fallback_sources(src):
            description = self.fetch_description(source, type_name)
            if description is not None and (guid is None
                                            or description.guid() == guid):
                self.cache.put(description)
                return description
        return None

    def _code_fallback_sources(self, src: str) -> List[str]:
        """Peers to ask for code/descriptions after ``src`` failed.  The
        base peer knows at most one fallback repository; mesh shards
        extend this with their live siblings — peers re-serve every
        assembly they download, so any shard that admitted the type can
        stand in for an unreachable publisher."""
        if self.code_source is not None and self.code_source != src:
            return [self.code_source]
        return []

    def fetch_description(self, source: str, type_name: str) -> Optional[TypeDescription]:
        try:
            data = self.request(source, KIND_GET_DESCRIPTION,
                                type_name.encode("utf-8"), retries=self.max_retries)
        except MessageDropped:
            raise  # loss is not "unknown type"; let the caller retry/report
        except NetworkError:
            return None
        self.transport_stats.descriptions_fetched += 1
        return deserialize_description(data)

    def _fetching_from(self, src: str):
        """Context manager: route the resolver's description fetches to the
        sending peer (nested member types of rule recursion, Section 5.2)."""
        return _FetchScope(self, src)

    # -- step 4-5 helpers ---------------------------------------------------

    def fetch_assembly(self, source: str, path_or_type: str) -> Optional[Assembly]:
        try:
            data = self.request(source, KIND_GET_ASSEMBLY,
                                path_or_type.encode("utf-8"), retries=self.max_retries)
        except MessageDropped:
            raise
        except NetworkError:
            return None
        self.transport_stats.assemblies_fetched += 1
        return Assembly.from_wire(self._wire_codec.deserialize(data))

    def loaded_batch(self, envelope: ObjectEnvelope, src: str) -> LazyBatch:
        """The frame as a :class:`LazyBatch` whose every header type
        resolves here: the code of each type this runtime cannot resolve
        is fetched from ``src`` (then the fallback sources), loaded, and
        re-served to other peers.  One fetch covers every value of the
        frame.  Raises :class:`ProtocolError` when code cannot be had."""
        batch = self.codec.lazy_batch(envelope)
        for _ in range(_MAX_CODE_FETCHES):
            missing = batch.missing()
            if missing is None:
                return batch
            self.transport_stats.unknown_type_retries += 1
            target = missing.download_path or missing.name
            assembly = self.fetch_assembly(src, target)
            if assembly is None:
                for source in self._code_fallback_sources(src):
                    assembly = self.fetch_assembly(source, target)
                    if assembly is not None:
                        break
            if assembly is None:
                raise ProtocolError(
                    "cannot obtain code for type %s (asked %s)"
                    % (missing.name, src)
                )
            # shadow=True: a different *version* of an already-known
            # name coexists under its own identity.
            self.runtime.load_assembly(assembly, shadow=True)
            # Peers propagate code: once downloaded, an assembly is
            # re-served to other peers (needed e.g. by pub/sub brokers).
            self._hosted[assembly.download_path] = assembly
            self._hosted[assembly.name] = assembly
        raise ProtocolError("too many unknown-type retries; giving up")

    # ------------------------------------------------------------------
    # serving (the sender side of steps 2-5)
    # ------------------------------------------------------------------

    def _serve_description(self, payload: bytes, src: str) -> bytes:
        type_name = payload.decode("utf-8")
        info = self.runtime.registry.get(type_name)
        if info is None:
            return error_response("no description for %s" % type_name)
        return description_bytes(info)

    def _serve_assembly(self, payload: bytes, src: str) -> bytes:
        key = payload.decode("utf-8")
        assembly = self._hosted.get(key)
        if assembly is None:
            # The key may be a type name: find the hosting assembly.
            for hosted in self._hosted.values():
                if hosted.find_type(key) is not None:
                    assembly = hosted
                    break
        if assembly is None:
            return error_response("no assembly for %s" % key)
        return self._wire_codec.serialize(assembly.to_wire())
