"""Stage-isolation tests for the unified delivery pipeline.

Each stage of :mod:`repro.apps.tps.pipeline` is exercised on its own,
against stubs where the stage contract allows it — the point of the
refactor is that admission, conformance, durable append, buffering and
ack tracking are individually testable without standing up a broker.
"""

import pytest

from repro.apps.tps.broker import DurableSubscription, Subscription
from repro.apps.tps.pipeline import (
    AckTracker,
    AdmissionStage,
    BufferedDelivery,
    DeliveryPipeline,
    DurabilityStage,
    LocalDelivery,
    ValueBatch,
)
from repro.apps.tps.routing import RoutingIndex
from repro.core.context import ConformanceOptions
from repro.core.rules import ConformanceChecker
from repro.fixtures import account_csharp, person_assembly_pair, person_java
from repro.net.network import NetworkStats, UnknownPeerError
from repro.persistence import CursorStore, EventLog
from repro.runtime.loader import Runtime
from repro.serialization.envelope import (EnvelopeCodec, LazyBatch, encode_home,
                                         split_frames)
from repro.transport.protocol import ProtocolError


def make_runtime():
    runtime = Runtime()
    asm_a, _ = person_assembly_pair()
    runtime.load_assembly(asm_a)
    return runtime


def person(runtime, name):
    return runtime.new_instance("demo.a.Person", [name])


class _StubNetwork:
    def __init__(self):
        self.stats = NetworkStats()


class _StubHost:
    """The slice of the InteropPeer surface the pipeline stages use.
    ``code`` is the assembly ``loaded_batch`` "fetches" (one counted
    fetch) when a frame names a type its runtime cannot resolve."""

    def __init__(self, runtime, code=None):
        self.peer_id = "stub"
        self.runtime = runtime
        self.codec = EnvelopeCodec(runtime)
        self.network = _StubNetwork()
        self.code = code
        self.fetches = 0
        self.batches = []   # (dst, payload, count)
        self.posts = []     # (dst, kind, payload)
        self.gone = set()

    def send_payload_batch(self, dst, payload, count):
        if dst in self.gone:
            raise UnknownPeerError(dst)
        self.batches.append((dst, payload, count))

    def post_async(self, dst, kind, payload):
        if dst in self.gone:
            raise UnknownPeerError(dst)
        self.posts.append((dst, kind, payload))

    def loaded_batch(self, envelope, src):
        batch = self.codec.lazy_batch(envelope)
        if batch.missing() is not None:
            if self.code is None:
                raise ProtocolError("no code source")
            self.fetches += 1
            self.runtime.load_assembly(self.code, shadow=True)
        return batch


class TestAckTracker:
    def make(self, cap=None):
        advanced = []
        tracker = AckTracker("broker",
                             advance=lambda name, to: advanced.append((name, to)),
                             cap=cap)
        return tracker, advanced

    def test_contiguous_prefix_advance(self):
        """An ack for a later batch never advances past an earlier one
        still in flight."""
        tracker, advanced = self.make()
        first = tracker.issue("peer", (("c", 0, 2),))
        second = tracker.issue("peer", (("c", 2, 5),))
        assert tracker.acknowledge(second, "peer")
        assert advanced == []  # the first batch is still in flight
        assert tracker.acknowledge(first, "peer")
        assert advanced == [("c", 5)]  # both batches fold into one advance
        assert not tracker.has_inflight("c")

    def test_ack_from_wrong_peer_is_ignored(self):
        tracker, advanced = self.make()
        token = tracker.issue("peer", (("c", 0, 1),))
        assert not tracker.acknowledge(token, "intruder")
        assert tracker.acknowledge(token, "peer")
        assert advanced == [("c", 1)]

    def test_discard_blocks_cursor_at_range_start(self):
        tracker, advanced = self.make()
        token = tracker.issue("peer", (("c", 3, 7),))
        tracker.discard(token)
        assert tracker.blocks == {"c": 3}
        assert tracker.pending_count() == 0

    def test_cap_evicts_oldest(self):
        tracker, _ = self.make(cap=lambda: 2)
        tokens = [tracker.issue("peer", (("c", i, i + 1),)) for i in range(4)]
        assert tracker.pending_count() == 2
        assert tokens[0] not in tracker.pending
        assert tokens[3] in tracker.pending
        assert tracker.blocks["c"] == 0  # evicted ranges stay unacked

    def test_forget_cursor_retires_tokens_entirely(self):
        """A forgotten cursor's ranges vanish from shared tokens too, so
        later cap eviction cannot re-block it."""
        tracker, _ = self.make()
        shared = tracker.issue("peer", (("a", 0, 1), ("b", 0, 1)))
        solo = tracker.issue("peer", (("a", 1, 2),))
        tracker.forget_cursor("a")
        assert solo not in tracker.pending
        assert tracker.pending[shared][1] == (("b", 0, 1),)
        assert "a" not in tracker.windows and "a" not in tracker.blocks

    def test_epochs_differ_across_trackers(self):
        first, _ = self.make()
        second, _ = self.make()
        assert first.issue("p", (("c", 0, 1),)) != \
            second.issue("p", (("c", 0, 1),))


class _LogHost:
    def __init__(self, runtime):
        self.peer_id = "host"
        self.codec = EnvelopeCodec(runtime)


class TestDurabilityStage:
    def make(self, tmp_path, retain_unacked=False, **log_kwargs):
        runtime = make_runtime()
        log = EventLog(str(tmp_path / "events"), **log_kwargs)
        cursors = CursorStore(str(tmp_path / "cursors.json"))
        stage = DurabilityStage(_LogHost(runtime), log, cursors,
                                retain_unacked=retain_unacked)
        return stage, runtime

    def append(self, stage, runtime, name):
        frame = stage.host.codec.encode_batch([person(runtime, name)],
                                              origin="pub")
        return stage.append_payload(frame, "pub")

    def test_settle_local_requires_every_value_handled(self, tmp_path):
        stage, runtime = self.make(tmp_path)
        stage.cursors.register("good")
        stage.cursors.register("bad")
        offset = self.append(stage, runtime, "x")
        stage.settle_local({"good": True, "bad": False}, offset)
        assert stage.cursors.get("good") == offset + 1
        assert stage.cursors.get("bad") == 0
        stage.close()

    def test_advance_capped_by_block_and_retired_cursor(self, tmp_path):
        stage, _ = self.make(tmp_path)
        stage.cursors.register("c")
        stage.tracker.block("c", 4)
        stage.advance("c", 9)
        assert stage.cursors.get("c") == 4  # capped at the block
        stage.advance("ghost", 7)  # never registered: a no-op
        assert "ghost" not in stage.cursors
        stage.close()

    def test_retention_floor_follows_slowest_cursor(self, tmp_path):
        stage, runtime = self.make(tmp_path, retain_unacked=True)
        stage.cursors.register("slow")
        stage.cursors.register("fast")
        for index in range(4):
            self.append(stage, runtime, "e%d" % index)
        stage.advance("fast", 4)
        assert stage.event_log.retention_floor == 0  # slow pins the floor
        stage.advance("slow", 2)
        assert stage.event_log.retention_floor == 2
        assert stage.prune_cursors(10) == []  # both cursors are active
        stage.close()

    def test_compact_bounded_by_slowest_cursor(self, tmp_path):
        stage, runtime = self.make(tmp_path, segment_max_bytes=600)
        stage.cursors.register("c")
        for index in range(12):
            self.append(stage, runtime, "same-key")
        stage.advance("c", 5)  # records >= 5 are unacked
        stage.compact()
        surviving = [record.offset for record in stage.event_log.replay()]
        assert [o for o in surviving if o >= 5] == list(range(5, 12))
        stage.close()


class TestAdmissionStage:
    def test_materialize_record_roundtrip(self, tmp_path):
        """A stored record of a type new here: ``admit_record`` loads its
        code (one fetch), then decodes nothing until asked."""
        publisher = make_runtime()
        host = _StubHost(Runtime(), code=person_assembly_pair()[0])
        stage = AdmissionStage(host)
        log = EventLog(str(tmp_path))
        offset = log.append(EnvelopeCodec(publisher).encode_batch(
            [person(publisher, "alice")], origin="pub"), origin="pub")
        batch = stage.admit_record(log.read(offset), "pub")
        assert host.fetches == 1
        assert host.codec.stats.decodes == 0
        assert [batch.value(0).GetName()] == ["alice"]
        assert stage.stats.replay_failures == 0
        log.close()

    def test_materialize_failure_is_counted_not_raised(self, tmp_path):
        publisher = make_runtime()
        host = _StubHost(Runtime())  # no code source
        stage = AdmissionStage(host)
        log = EventLog(str(tmp_path))
        offset = log.append(EnvelopeCodec(publisher).encode_batch(
            [person(publisher, "x")], origin="pub"), origin="pub")
        assert stage.admit_record(log.read(offset), "pub") is None
        assert stage.stats.replay_failures == 1
        log.close()


class TestReplayFilter:
    def make(self, tmp_path, known):
        publisher = make_runtime()
        runtime = make_runtime() if known else Runtime()
        host = _StubHost(runtime, code=person_assembly_pair()[0])
        checker = ConformanceChecker(options=ConformanceOptions.pragmatic())
        pipeline = DeliveryPipeline(
            RoutingIndex(checker, runtime.registry),
            LocalDelivery(), admission=AdmissionStage(host), host=host)
        runtime.registry.register(person_java())
        runtime.registry.register(account_csharp())
        log = EventLog(str(tmp_path))
        offset = log.append(EnvelopeCodec(publisher).encode_batch(
            [person(publisher, "a"), person(publisher, "b")], origin="pub"),
            origin="pub")
        return host, pipeline, log, log.read(offset)

    def test_conforming_filters_like_live_publish(self, tmp_path):
        """Replay's filter keeps exactly the values live publish would
        route, on the header's root types at zero decodes — also for a
        record whose type is new here, once admission loaded its code."""
        for known in (True, False):
            host, pipeline, log, record = self.make(tmp_path / str(known),
                                                    known)
            batch, matched = pipeline.conforming_from_record(
                record, "pub", person_java())
            assert [index for index, _ in matched] == [0, 1]
            assert isinstance(batch, LazyBatch)
            assert host.codec.stats.decodes == 0
            assert host.fetches == (0 if known else 1)
            assert [batch.value(index).GetName()
                    for index, _ in matched] == ["a", "b"]
            assert pipeline.conforming_from_record(
                record, "pub", account_csharp())[1] == []
            log.close()


class TestBufferedDelivery:
    def make(self):
        runtime = make_runtime()
        host = _StubHost(runtime)
        delivery = BufferedDelivery(host, durability=None,
                                    forward_kind="mesh_forward")
        return runtime, host, delivery

    def sub(self, sid, peer):
        return Subscription(person_java(), None, sid, peer_id=peer)

    def route(self, delivery, frame, *subscriptions):
        """Route one record's frame to ``subscriptions`` as process() does."""
        batch = delivery.host.codec.lazy_batch(
            delivery.host.codec.parse(frame))
        ctx = delivery.begin(batch, "pub", None, frame, None)
        for subscription in subscriptions:
            assert delivery.remote(ctx, subscription, batch, 0, None)
        delivery.finish(ctx)

    def test_one_message_per_destination(self):
        runtime, host, delivery = self.make()
        frames = [host.codec.encode_batch([person(runtime, name)])
                  for name in ("a", "b")]
        for frame in frames:
            self.route(delivery, frame, self.sub(1, "east"),
                       self.sub(2, "west"))
        assert delivery.pending() == 4
        renders = host.codec.stats.header_renders
        assert delivery.flush() == 2
        assert delivery.pending() == 0
        assert [(dst, count) for dst, _, count in host.batches] == \
            [("east", 2), ("west", 2)]
        # Both destinations get the same subscriber frames: each record's
        # frame less its keys, byte for byte what parse + re-render
        # builds.  The flush joins them and encodes nothing.
        reference = EnvelopeCodec(runtime)
        stripped = []
        for frame in frames:
            envelope = reference.parse(frame)
            assert envelope.keys is not None
            envelope.keys = None
            stripped.append(reference.envelope_to_bytes(envelope))
        for _, payload, _ in host.batches:
            assert [bytes(frame) for frame in split_frames(payload)] == \
                stripped
        assert host.codec.stats.header_renders == renders
        # One splice per record, shared by both destinations.
        assert host.codec.stats.header_splices == 2

    def test_forward_flow_shares_the_encoder(self):
        runtime, host, delivery = self.make()
        frame = host.codec.encode_batch([person(runtime, "f")], origin="pub")
        delivery.buffer_forward("shard-2", frame, 1, 3)
        assert delivery.pending() == 1
        assert delivery.flush() == 1
        (dst, kind, payload), = host.posts
        assert (dst, kind) == ("shard-2", "mesh_forward")
        envelope = host.codec.parse(payload)
        assert envelope.origin == "pub"
        assert envelope.home == encode_home("stub", [3])

    def test_departed_destination_is_a_counted_drop(self):
        runtime, host, delivery = self.make()
        self.route(delivery, host.codec.encode_batch([person(runtime, "x")]),
                   self.sub(1, "ghost"))
        host.gone.add("ghost")
        assert delivery.flush() == 0
        assert host.network.stats.dropped == 1


class TestPipelineProcess:
    def make_pipeline(self, isolate=False):
        runtime = make_runtime()
        checker = ConformanceChecker(options=ConformanceOptions.pragmatic())
        index = RoutingIndex(checker, runtime.registry)
        pipeline = DeliveryPipeline(index=index,
                                    delivery=LocalDelivery())
        return runtime, index, pipeline

    def test_fan_out_counts_and_skips_echo(self):
        runtime, index, pipeline = self.make_pipeline()
        got = []
        index.add(Subscription(person_java(), got.append, 1))
        echo = Subscription(person_java(), got.append, 2, peer_id="pub")
        echo.handler = got.append
        index.add(echo)
        result = pipeline.process(ValueBatch([person(runtime, "n")]),
                                  origin="pub")
        assert result.deliveries == 1  # the publisher's own sub is skipped
        assert pipeline.stats.events_routed == 1
        assert len(got) == 1

    def test_view_shared_across_group(self):
        """One translated view per (entry, value), shared by the group —
        the LocalBroker guarantee, now owned by the pipeline."""
        runtime, index, pipeline = self.make_pipeline()
        views = []
        index.add(Subscription(person_java(), views.append, 1))
        index.add(Subscription(person_java(), views.append, 2))
        pipeline.process(ValueBatch([person(runtime, "shared")]),
                         origin=None)
        assert len(views) == 2
        assert views[0] is views[1]

    def test_local_delivery_propagates_handler_errors(self):
        runtime, index, pipeline = self.make_pipeline()

        def explode(view):
            raise RuntimeError("boom")

        index.add(Subscription(person_java(), explode, 1))
        with pytest.raises(RuntimeError):
            pipeline.process(ValueBatch([person(runtime, "n")]),
                             origin=None)


class TestAckSpliceCounters:
    """The acceptance gate on the durable live path: personalising a
    stored record frame with an ack token is a header byte splice —
    ``header_splices`` counts it, ``header_renders`` stays at zero."""

    def make_durable(self):
        runtime = make_runtime()
        host = _StubHost(runtime)
        return runtime, host, DurabilityStage(host)

    def test_buffered_flush_stamps_ack_without_rerender(self):
        runtime, host, durability = self.make_durable()
        delivery = BufferedDelivery(host, durability=durability,
                                    forward_kind="mesh_forward")
        frame = host.codec.encode_batch([person(runtime, "b")])
        batch = host.codec.lazy_batch(host.codec.parse(frame))
        ctx = delivery.begin(batch, "pub", 9, frame, None)
        sub = DurableSubscription(person_java(), None, 1, peer_id="east",
                                  cursor_name="c-east")
        assert delivery.remote(ctx, sub, batch, 0, 9)
        delivery.finish(ctx)
        stats = host.codec.stats
        stats.header_renders = 0
        stats.header_splices = 0
        assert delivery.flush() == 1
        assert stats.header_renders == 0
        assert stats.header_splices == 1
        (_, payload, _), = host.batches
        stamped = host.codec.parse(payload)
        assert stamped.ack is not None
        assert stamped.payload_bytes() == batch.envelope.payload_bytes()


class TestDurableSubscriptionDuckTyping:
    def test_cursor_name_of(self):
        from repro.apps.tps.pipeline import cursor_name_of
        plain = Subscription(person_java(), None, 1)
        durable = DurableSubscription(person_java(), None, 2,
                                      cursor_name="c")
        assert cursor_name_of(plain) is None
        assert cursor_name_of(durable) == "c"
