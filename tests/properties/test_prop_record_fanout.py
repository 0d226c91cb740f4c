"""Deciding once per record and root type is invisible to handlers.

``DeliveryPipeline`` routes a multi-value record once per root type and
re-routes when a handler changes the routing index.  For generated
records (two root types, any order) and generated handler actions
(subscribe and unsubscribe, triggered by a given handler seeing a given
value), the pipeline's handler calls must equal a test-local reference
that routes every value on its own, lazily, exactly as a per-value
``RoutingIndex.route`` pass reads the index.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.tps import LocalBroker
from repro.apps.tps.pipeline import (AckTracker, BufferedDelivery,
                                     DeliveryPipeline, ValueBatch)
from repro.apps.tps.routing import RoutingIndex
from repro.core.context import ConformanceOptions
from repro.core.rules import ConformanceChecker
from repro.langs.csharp import compile_source as compile_csharp
from repro.net.network import UnknownPeerError
from repro.runtime.loader import Runtime
from repro.serialization.envelope import EnvelopeCodec

QUOTE_SOURCE = """
class Quote {
    private string text;
    public Quote(string t) { this.text = t; }
    public string GetText() { return this.text; }
}
"""

SOURCED_QUOTE_SOURCE = """
class Quote {
    private string text;
    public Quote(string t) { this.text = t; }
    public string GetText() { return this.text; }
    public string GetSource() { return this.text; }
}
"""


def _quote(source, namespace):
    return compile_csharp(source, namespace=namespace,
                          assembly_name=namespace)[0]


FEED = {"plain": _quote(QUOTE_SOURCE, "feed.plain"),
        "sourced": _quote(SOURCED_QUOTE_SOURCE, "feed.sourced")}
#: Expected types: ``any`` takes both feed types, ``sourced`` one.
WANT = {"any": _quote(QUOTE_SOURCE, "want.any"),
        "sourced": _quote(SOURCED_QUOTE_SOURCE, "want.sourced")}
TAGS = ["h%d" % index for index in range(5)]


class World:
    """One broker, its subscriptions by tag and the handler-call log;
    a handler call ``(tag, text)`` runs the actions keyed on it."""

    def __init__(self, initial, actions):
        runtime = Runtime()
        for info in FEED.values():
            runtime.load_type(info)
        self.runtime = runtime
        self.broker = LocalBroker(runtime=runtime)
        self.actions = actions
        self.subs = {}
        self.calls = []
        for tag, want in initial:
            self.subscribe(tag, want)

    def subscribe(self, tag, want):
        if tag not in self.subs:
            self.subs[tag] = self.broker.subscribe(WANT[want],
                                                   self.handler(tag))

    def handler(self, tag):
        def handle(view):
            text = view.GetText()
            self.calls.append((tag, text))
            for op, target, want in self.actions.get((tag, text), ()):
                if op == "subscribe":
                    self.subscribe(target, want)
                elif target in self.subs:
                    self.broker.unsubscribe(self.subs.pop(target))
        return handle

    def values(self, record):
        return [self.runtime.new_instance("feed.%s.Quote" % kind,
                                          ["v%d" % index])
                for index, kind in enumerate(record)]


def reference_fan_out(world, record):
    """Every value routed on its own: one lazy route pass per value."""
    index = world.broker.index
    for value in world.values(record):
        for entry, subscriptions in index.route(value.type_info):
            view = entry.view(value, index.checker)
            for subscription in subscriptions:
                subscription.handler(view)


records = st.lists(st.sampled_from(sorted(FEED)), min_size=1, max_size=8)
initial_subs = st.lists(st.tuples(st.sampled_from(TAGS),
                                  st.sampled_from(sorted(WANT))),
                        max_size=5)
action = st.tuples(st.sampled_from(["subscribe", "unsubscribe"]),
                   st.sampled_from(TAGS), st.sampled_from(sorted(WANT)))
action_tables = st.dictionaries(
    st.tuples(st.sampled_from(TAGS), st.sampled_from(
        ["v%d" % index for index in range(8)])),
    st.lists(action, min_size=1, max_size=2), max_size=6)


@settings(max_examples=300, deadline=None)
@given(record=records, initial=initial_subs, actions=action_tables,
       shape=st.sampled_from(["frame", "values"]))
# While one value fans out, a handler empties a group the value has not
# reached and another handler subscribes that expected type again: the
# value's own pass reads the emptied group, so the new subscription does
# not get that value.
@example(record=["plain", "sourced", "sourced"],
         initial=[("h2", "any"), ("h0", "sourced"), ("h1", "any")],
         actions={("h2", "v2"): [("unsubscribe", "h0", "any")],
                  ("h1", "v2"): [("subscribe", "h0", "sourced")]},
         shape="frame")
def test_record_fan_out_matches_per_value_routing(record, initial, actions,
                                                  shape):
    reference = World(initial, actions)
    reference_fan_out(reference, record)
    world = World(initial, actions)
    values = world.values(record)
    if shape == "frame":
        deliveries = world.broker.publish_frame(
            EnvelopeCodec(world.runtime).encode_batch(values))
    else:
        deliveries = world.broker.pipeline.process(
            ValueBatch(values), origin=None).deliveries
    assert world.calls == reference.calls
    assert deliveries == len(reference.calls) == world.broker.delivered
    assert sorted(world.subs) == sorted(reference.subs)


# ---------------------------------------------------------------------------
# remote-only records: counted per root type, asked once per subscription
# ---------------------------------------------------------------------------
#
# A record no in-process handler sees is counted once per root type: the
# values after the first of each type only add to the counters.  Against a
# test-local fan-out that routes every value on its own (a remote
# subscription is asked once per record, and again while it answers that
# the record did not travel), the counters, the returned count, every
# queued frame with its ack windows, and every send, ack token and drop of
# the flush that follows must be equal.


class RemoteSub:
    """A remote subscription as the pipeline reads one."""

    handler = None

    def __init__(self, subscription_id, peer_id, expected, cursor_name):
        self.subscription_id = subscription_id
        self.peer_id = peer_id
        self.expected = expected
        self.cursor_name = cursor_name
        self.delivered = 0


class Host:
    """What buffered delivery calls on its broker, recorded in call
    order; a peer in ``offline`` is unknown to the network."""

    def __init__(self, offline):
        self.offline = offline
        self.calls = []
        self.codec = SimpleNamespace(
            reframe=lambda payload, **attrs: (
                "reframed", payload, sorted(attrs.items())),
            # Like the codec's: one frame travels as it is.
            join_frames=lambda frames: (frames[0] if len(frames) == 1
                                        else ("joined",) + tuple(frames)))
        self.network = SimpleNamespace(stats=SimpleNamespace(
            record_drop=lambda: self.calls.append(("drop",))))

    def send_payload_batch(self, peer_id, frame, count):
        if peer_id in self.offline:
            raise UnknownPeerError(peer_id)
        self.calls.append(("batch", peer_id, frame, count))


def reference_remote_fan_out(pipeline, ctx, batch, origin, log_offset):
    """Every value routed on its own; the subscriptions the record
    travelled to are kept per record."""
    index = pipeline.index
    sent = set()
    deliveries = 0
    for position in range(len(batch)):
        for _, subscriptions in index.route(batch.root_type(position)):
            for subscription in subscriptions:
                if origin is not None and subscription.peer_id == origin:
                    continue
                if subscription.subscription_id not in sent:
                    if not pipeline.delivery.remote(
                            ctx, subscription, batch, position, log_offset):
                        continue
                    sent.add(subscription.subscription_id)
                subscription.delivered += 1
                pipeline.stats.events_routed += 1
                deliveries += 1
    return deliveries


class RemoteWorld:
    """One pipeline with remote subscriptions only, over buffered
    delivery; blocked cursors answer that the record did not travel, and
    offline peers drop at the flush."""

    def __init__(self, subs, blocked, offline, reference):
        runtime = Runtime()
        for info in FEED.values():
            runtime.load_type(info)
        self.runtime = runtime
        self.index = RoutingIndex(
            ConformanceChecker(options=ConformanceOptions.pragmatic()),
            runtime.registry)
        tracker = AckTracker("shard", lambda cursor, offset: None)
        tracker._epoch = 0  # equal ack tokens in both worlds
        for cursor in blocked:
            tracker.block(cursor, 0)
        durability = SimpleNamespace(tracker=tracker,
                                     settle_local=lambda acks, offset: None)
        self.host = Host(offline)
        self.pipeline = DeliveryPipeline(self.index,
                                         BufferedDelivery(self.host,
                                                          durability),
                                         durability=durability)
        if reference:
            pipeline = self.pipeline
            pipeline._fan_out = \
                lambda ctx, batch, origin, log_offset, local_acks: \
                reference_remote_fan_out(pipeline, ctx, batch, origin,
                                         log_offset)
        self.subs = []
        for number, (peer, want, durable) in enumerate(subs):
            sub = RemoteSub(number + 1, peer, WANT[want],
                            "c%d" % number if durable else None)
            self.index.add(sub)
            self.subs.append(sub)

    def publish(self, record, shape, origin):
        values = [self.runtime.new_instance("feed.%s.Quote" % kind,
                                            ["v%d" % index])
                  for index, kind in enumerate(record)]
        if shape == "frame":
            codec = EnvelopeCodec(self.runtime)
            payload = codec.encode_batch(values)
            batch = codec.lazy_batch(codec.parse(payload))
        else:
            payload = b"frame"
            batch = ValueBatch(values)
        return self.pipeline.process(batch, origin, payload=payload,
                                     log_offset=7, pre_logged=True)

    def outcome(self, deliveries):
        delivery = self.pipeline.delivery
        queued = {peer: list(frames)
                  for peer, frames in delivery._outgoing.items()}
        delivery.flush()
        tracker = self.pipeline.durability.tracker
        return {
            "deliveries": deliveries,
            "delivered": [sub.delivered for sub in self.subs],
            "events_routed": self.pipeline.stats.events_routed,
            "queued": queued,
            "calls": self.host.calls,
            "pending": tracker.pending, "windows": tracker.windows,
            "blocks": tracker.blocks,
        }


PEERS = ["p0", "p1", "p2"]
remote_subs = st.lists(st.tuples(st.sampled_from(PEERS),
                                 st.sampled_from(sorted(WANT)),
                                 st.booleans()), max_size=6)
long_records = st.lists(st.sampled_from(sorted(FEED)), min_size=1,
                        max_size=12)


@settings(max_examples=300, deadline=None)
@given(record=long_records, subs=remote_subs,
       blocked=st.lists(st.sampled_from(["c%d" % n for n in range(6)]),
                        max_size=2),
       offline=st.lists(st.sampled_from(PEERS), max_size=1),
       origin=st.none() | st.sampled_from(PEERS),
       shape=st.sampled_from(["frame", "values"]))
def test_remote_only_record_counts_as_per_value_routing(
        record, subs, blocked, offline, origin, shape):
    outcomes = []
    for reference in (True, False):
        world = RemoteWorld(subs, blocked, offline, reference)
        processed = world.publish(record, shape, origin)
        outcomes.append(world.outcome(processed.deliveries))
    assert outcomes[1] == outcomes[0]
