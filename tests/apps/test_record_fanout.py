"""Per record, not per value: fan-out decisions on multi-value records.

A record's values are routed once per root type, a remote subscription
is asked to send the record once, subscribers check one verdict per root
type of a frame — and every per-value outcome stays what routing each
value on its own gives: which handler sees which value in which order,
the delivery counters, and the subscriber inboxes.  The expected
outcomes below are spelled out value by value.
"""

from collections import Counter

import pytest

from repro.apps.tps import BrokerMesh, LocalBroker, TpsBroker, TpsPeer
from repro.apps.tps.pipeline import ValueBatch
from repro.apps.tps.routing import RoutingIndex
from repro.apps.tps.topology import Topology
from repro.cts.assembly import Assembly
from repro.fixtures import person_assembly_pair, person_java
from repro.langs.csharp import compile_source as compile_csharp
from repro.net.network import SimulatedNetwork
from repro.runtime.loader import Runtime
from repro.serialization.envelope import EnvelopeCodec

#: A quote with a text: ``want.any.Quote`` takes both feed types.
QUOTE_SOURCE = """
class Quote {
    private string text;
    public Quote(string t) { this.text = t; }
    public string GetText() { return this.text; }
}
"""

#: The same plus a source: only ``feed.sourced.Quote`` conforms to
#: ``want.sourced.Quote``.
SOURCED_QUOTE_SOURCE = """
class Quote {
    private string text;
    public Quote(string t) { this.text = t; }
    public string GetText() { return this.text; }
    public string GetSource() { return this.text; }
}
"""

#: The mixed record: (feed type, text) per value, two root types.
RECORD = [("plain", "p0"), ("sourced", "s1"), ("plain", "p2"),
          ("sourced", "s3"), ("sourced", "s4"), ("plain", "p5")]
SOURCED_TEXTS = [text for kind, text in RECORD if kind == "sourced"]
ALL_TEXTS = [text for _, text in RECORD]


def quote_type(source, namespace, assembly_name="feed"):
    return compile_csharp(source, namespace=namespace,
                          assembly_name=assembly_name)[0]


def feed_types():
    return (quote_type(QUOTE_SOURCE, "feed.plain"),
            quote_type(SOURCED_QUOTE_SOURCE, "feed.sourced"))


def want_any():
    return quote_type(QUOTE_SOURCE, "want.any", "want")


def want_sourced():
    return quote_type(SOURCED_QUOTE_SOURCE, "want.sourced", "want")


def record_values(runtime):
    return [runtime.new_instance("feed.%s.Quote" % kind, [text])
            for kind, text in RECORD]


def feed_runtime():
    runtime = Runtime()
    for info in feed_types():
        runtime.load_type(info)
    return runtime


class Log:
    """Handler calls as ``(tag, text)``, in call order."""

    def __init__(self):
        self.calls = []

    def handler(self, tag, action=None):
        def handle(view):
            text = view.GetText()
            self.calls.append((tag, text))
            if action is not None:
                action(text)
        return handle


def publish(broker, runtime, shape):
    """One record of :data:`RECORD` through ``broker``'s pipeline, as a
    lazy frame or as values in hand."""
    values = record_values(runtime)
    if shape == "frame":
        return broker.publish_frame(EnvelopeCodec(runtime).encode_batch(values))
    return broker.pipeline.process(ValueBatch(values), origin=None).deliveries


# ---------------------------------------------------------------------------
# local handlers: order, counters, subscribe/unsubscribe inside a handler
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", ["frame", "values"])
class TestLocalHandlers:
    def test_mixed_record_delivers_value_by_value(self, shape):
        runtime = feed_runtime()
        broker = LocalBroker(runtime=runtime)
        log = Log()
        any_a = broker.subscribe(want_any(), log.handler("any-a"))
        sourced = broker.subscribe(want_sourced(), log.handler("sourced"))
        any_b = broker.subscribe(want_any(), log.handler("any-b"))
        deliveries = publish(broker, runtime, shape)
        expected = []
        for kind, text in RECORD:
            expected += [("any-a", text), ("any-b", text)]
            if kind == "sourced":
                expected.append(("sourced", text))
        assert log.calls == expected
        assert deliveries == len(expected) == broker.delivered
        assert (any_a.delivered, any_b.delivered, sourced.delivered) == (6, 6, 3)

    def test_unsubscribing_a_group_sibling_mid_record(self, shape):
        """The sibling still gets the value being delivered (its group was
        already read), and none of the record's later values."""
        runtime = feed_runtime()
        broker = LocalBroker(runtime=runtime)
        log = Log()
        subs = {}

        def drop_sibling(text):
            if text == "s1":
                broker.unsubscribe(subs["any-b"])

        subs["any-a"] = broker.subscribe(want_any(),
                                         log.handler("any-a", drop_sibling))
        subs["any-b"] = broker.subscribe(want_any(), log.handler("any-b"))
        publish(broker, runtime, shape)
        assert [text for tag, text in log.calls if tag == "any-b"] == \
            ["p0", "s1"]
        assert [text for tag, text in log.calls if tag == "any-a"] == \
            ALL_TEXTS
        assert subs["any-b"].delivered == 2

    def test_unsubscribing_a_later_group_mid_value(self, shape):
        """A subscription in a group the value has not reached yet is read
        when the value gets there: it misses that value too."""
        runtime = feed_runtime()
        broker = LocalBroker(runtime=runtime)
        log = Log()
        subs = {}

        def drop_sourced(text):
            if text == "s3":
                broker.unsubscribe(subs["sourced"])

        subs["any"] = broker.subscribe(want_any(),
                                       log.handler("any", drop_sourced))
        subs["sourced"] = broker.subscribe(want_sourced(),
                                           log.handler("sourced"))
        deliveries = publish(broker, runtime, shape)
        assert [text for tag, text in log.calls if tag == "sourced"] == ["s1"]
        assert deliveries == 6 + 1

    def test_subscribing_mid_record(self, shape):
        """A subscription made by a handler takes the record's later
        values — and, in a group the value has not reached yet, the value
        being delivered."""
        runtime = feed_runtime()
        broker = LocalBroker(runtime=runtime)
        log = Log()

        def add_late(text):
            if text == "p2":
                broker.subscribe(want_any(), log.handler("late-any"))
            if text == "s3":
                broker.subscribe(want_sourced(), log.handler("late-sourced"))

        broker.subscribe(want_any(), log.handler("any", add_late))
        broker.subscribe(want_sourced(), log.handler("sourced"))
        publish(broker, runtime, shape)
        assert [text for tag, text in log.calls if tag == "late-any"] == \
            ["s3", "s4", "p5"]
        assert [text for tag, text in log.calls if tag == "late-sourced"] == \
            ["s3", "s4"]


# ---------------------------------------------------------------------------
# brokers on a network: local and remote subscribers, counters, inboxes
# ---------------------------------------------------------------------------


def make_world(kind, tmp_path, opened):
    """A broker (``direct``: one TpsBroker; ``mesh``: two shards) with a
    publisher of both feed types, local durable handlers and remote
    subscribers of one or both types."""
    network = SimulatedNetwork()
    if kind == "direct":
        broker = opened(TpsBroker("broker", network,
                                  log_dir=str(tmp_path / "broker")))
        homes = [broker.peer_id, broker.peer_id]
        brokers = [broker]
        drain = network.run_until_idle
    else:
        mesh = opened(BrokerMesh(network, topology=Topology.sized(2),
                                 log_root=str(tmp_path / "mesh")))
        homes = mesh.shard_ids
        brokers = mesh.shards
        drain = mesh.run_until_idle
    publisher = TpsPeer("publisher", network)
    publisher.host_assembly(Assembly("feed", list(feed_types())))
    log = Log()
    local = brokers[0]
    local.subscribe_durable(want_any(), log.handler("local-any"), "l-any")
    local.subscribe_durable(want_sourced(), log.handler("local-sourced"),
                            "l-sourced")
    peers = {}
    for name, home, expected, durable in (
            ("any", homes[0], want_any, False),
            ("sourced", homes[1], want_sourced, False),
            ("durable", homes[0], want_sourced, True)):
        peer = TpsPeer(name, network)
        # Known types: the peer admits frames by header (the lazy path).
        peer.runtime.load_assembly(Assembly("feed", list(feed_types())))
        if durable:
            peer.subscribe_durable_remote(home, expected(),
                                          log.handler(name), cursor="c")
        else:
            peer.subscribe_remote(home, expected(), log.handler(name))
        peers[name] = peer
    drain()
    return network, brokers, publisher, peers, log, drain


def delivered_by_cursor(brokers):
    """``{cursor or peer: delivered}`` over every broker's subscriptions
    (summaries of sibling shards excluded)."""
    counts = Counter()
    for broker in brokers:
        for subscription in broker.index.subscriptions():
            name = getattr(subscription, "cursor_name", None) \
                or subscription.peer_id
            counts[name] += subscription.delivered
    return dict(counts)


@pytest.mark.parametrize("kind", ["direct", "mesh"])
def test_mixed_record_across_local_and_remote_subscribers(kind, tmp_path,
                                                          opened):
    network, brokers, publisher, peers, log, drain = make_world(
        kind, tmp_path, opened)
    values = record_values(publisher.runtime)
    publisher.publish_durable(brokers[0].peer_id, values)
    drain()
    # Local handlers run inside the fan-out, value by value; each remote
    # peer then admits the record's frame value by value.
    local = [(tag, text) for tag, text in log.calls if tag.startswith("local")]
    expected_local = []
    for kind_of, text in RECORD:
        expected_local.append(("local-any", text))
        if kind_of == "sourced":
            expected_local.append(("local-sourced", text))
    assert local == expected_local
    for name, texts in (("any", ALL_TEXTS), ("sourced", SOURCED_TEXTS),
                        ("durable", SOURCED_TEXTS)):
        assert [text for tag, text in log.calls if tag == name] == texts
        peer = peers[name]
        assert [(item.type_name, item.accepted) for item in peer.inbox] == [
            ("feed.%s.Quote" % kind_of, name == "any" or kind_of == "sourced")
            for kind_of, _ in RECORD]
        assert peer.transport_stats.objects_received == len(RECORD)
        assert peer.transport_stats.objects_rejected == \
            len(RECORD) - len(texts)
    # A durable remote subscription counts every matching value, on the
    # single broker as on the mesh.
    durable_count = len(SOURCED_TEXTS)
    counts = delivered_by_cursor(brokers)
    assert counts == {"l-any": 6, "l-sourced": 3, "any": 6, "sourced": 3,
                      "c": durable_count}
    assert sum(broker.events_routed for broker in brokers) == \
        6 + 3 + 6 + 3 + durable_count


def test_interest_declared_mid_frame_admits_the_rest(opened):
    """A subscriber decides once per root type of a frame — until one of
    its handlers declares an interest: the frame's later values are then
    checked against the new interests too."""
    network = SimulatedNetwork()
    opened(TpsBroker("broker", network))
    publisher = TpsPeer("publisher", network)
    publisher.host_assembly(Assembly("feed", list(feed_types())))
    peer = TpsPeer("sub", network)
    peer.runtime.load_assembly(Assembly("feed", list(feed_types())))
    log = Log()

    def widen(text):
        if text == "s1":
            peer.declare_interest(want_any())

    peer.subscribe_remote("broker", want_sourced(),
                          log.handler("sourced", widen))
    publisher.send_batch("broker", record_values(publisher.runtime))
    network.run_until_idle()
    assert [item.interest.full_name if item.accepted else None
            for item in peer.inbox] == [
        None, "want.sourced.Quote", "want.any.Quote", "want.sourced.Quote",
        "want.sourced.Quote", "want.any.Quote"]
    assert [text for _, text in log.calls] == SOURCED_TEXTS
    assert peer.transport_stats.objects_rejected == 1


# ---------------------------------------------------------------------------
# the count: route passes per record and root type
# ---------------------------------------------------------------------------


@pytest.fixture
def route_passes(monkeypatch):
    """Counts :meth:`RoutingIndex.route` passes per index object."""
    passes = Counter()
    original = RoutingIndex.route

    def counted(self, event_type):
        passes[id(self)] += 1
        return original(self, event_type)

    monkeypatch.setattr(RoutingIndex, "route", counted)
    return passes


def test_durable_batch_routes_once_per_shard_and_root_type(tmp_path,
                                                           route_passes):
    """A 50-value durable publish on a 4-shard mesh: one route pass per
    shard that fans the record out, per root type, plus one forward
    decision at the home shard."""
    network = SimulatedNetwork()
    with BrokerMesh(network, topology=Topology.sized(4),
                    log_root=str(tmp_path / "mesh"),
                    replication_factor=2) as mesh:
        publisher = TpsPeer("publisher", network)
        publisher.host_assembly(person_assembly_pair()[0])
        got = []
        for index, shard_id in enumerate(mesh.shard_ids):
            TpsPeer("dsub%d" % index, network).subscribe_durable_remote(
                shard_id, person_java(), got.append, cursor="c%d" % index)
        mesh.run_until_idle()
        home = mesh.shard_ids[0]

        def publish_batch(tag):
            publisher.publish_durable(home, [
                publisher.new_instance("demo.a.Person", ["%s%02d" % (tag, i)])
                for i in range(50)])
            mesh.run_until_idle()

        publish_batch("warm")
        route_passes.clear()
        got.clear()
        publish_batch("v")
        assert len(got) == 4 * 50
        for shard in mesh.shards:
            assert route_passes[id(shard.index)] == 1, shard.peer_id
        assert route_passes[id(mesh.shard(home).summary_index)] == 1
        assert sum(route_passes.values()) == 4 + 1


def test_mixed_record_routes_once_per_root_type(tmp_path, opened,
                                                route_passes):
    network, brokers, publisher, peers, log, drain = make_world(
        "mesh", tmp_path, opened)
    for _ in range(2):  # the first record fetches the feed types' code
        route_passes.clear()
        publisher.publish_durable(brokers[0].peer_id,
                                  record_values(publisher.runtime))
        drain()
    assert [route_passes[id(shard.index)] for shard in brokers] == [2, 2]
    assert route_passes[id(brokers[0].summary_index)] == 2


def test_broker_mesh_is_a_context_manager(tmp_path):
    """Leaving the block closes every shard: logs and cursor journals
    are released and the shards leave the network."""
    network = SimulatedNetwork()
    with BrokerMesh(network, topology=Topology.sized(2),
                    log_root=str(tmp_path / "mesh")) as mesh:
        publisher = TpsPeer("publisher", network)
        publisher.host_assembly(person_assembly_pair()[0])
        for shard_id in mesh.shard_ids:
            publisher.publish_durable(shard_id, [
                publisher.new_instance("demo.a.Person", ["x"])])
        mesh.run_until_idle()
        logs = [shard.event_log for shard in mesh.shards]
        assert all(log._active_handle is not None for log in logs)
        assert set(mesh.shard_ids) <= set(network.peers())
    assert all(log._active_handle is None for log in logs)
    assert not set(mesh.shard_ids) & set(network.peers())
