"""Tests for type-based publish/subscribe."""

import pytest

from repro.apps.tps import LocalBroker, TpsBroker, TpsPeer
from repro.core import ConformanceChecker, ConformanceOptions
from repro.cts.assembly import Assembly
from repro.fixtures import (
    account_csharp,
    person_assembly_pair,
    person_csharp,
    person_java,
    person_vb,
)
from repro.net.network import SimulatedNetwork
from repro.runtime.loader import Runtime


@pytest.fixture
def runtime():
    rt = Runtime()
    asm_a, _ = person_assembly_pair()
    rt.load_assembly(asm_a)
    rt.load_assembly(Assembly("bank", [account_csharp()]))
    return rt


class TestLocalBroker:
    def test_conformant_event_delivered_via_proxy(self, runtime):
        broker = LocalBroker()
        got = []
        broker.subscribe(person_java(), got.append)
        event = runtime.new_instance("demo.a.Person", ["News"])
        assert broker.publish(event) == 1
        assert got[0].getPersonName() == "News"

    def test_nonconformant_event_filtered(self, runtime):
        broker = LocalBroker()
        got = []
        broker.subscribe(person_java(), got.append)
        account = runtime.new_instance("demo.bank.Account", ["o", 5])
        assert broker.publish(account) == 0
        assert got == []

    def test_multiple_subscriptions_fan_out(self, runtime):
        broker = LocalBroker()
        a, b = [], []
        broker.subscribe(person_java(), a.append)
        broker.subscribe(person_vb(), b.append)
        broker.publish(runtime.new_instance("demo.a.Person", ["fan"]))
        assert len(a) == 1 and len(b) == 1

    def test_unsubscribe(self, runtime):
        broker = LocalBroker()
        got = []
        sub = broker.subscribe(person_java(), got.append)
        broker.unsubscribe(sub)
        broker.publish(runtime.new_instance("demo.a.Person", ["gone"]))
        assert got == []

    def test_counters(self, runtime):
        broker = LocalBroker()
        sub = broker.subscribe(person_java(), lambda e: None)
        broker.publish(runtime.new_instance("demo.a.Person", ["1"]))
        broker.publish(runtime.new_instance("demo.bank.Account", ["o", 1]))
        assert broker.published == 2
        assert broker.delivered == 1
        assert sub.delivered == 1

    def test_event_must_have_type(self):
        broker = LocalBroker()
        with pytest.raises(TypeError):
            broker.publish(object())

    def test_exact_type_subscription_no_proxy(self, runtime):
        broker = LocalBroker()
        got = []
        provider = runtime.registry.require("demo.a.Person")
        broker.subscribe(provider, got.append)
        event = runtime.new_instance("demo.a.Person", ["same"])
        broker.publish(event)
        assert got[0] is event  # no wrapper needed


class TestDistributedTps:
    @pytest.fixture
    def world(self):
        network = SimulatedNetwork()
        broker = TpsBroker("broker", network)
        publisher = TpsPeer("publisher", network)
        subscriber = TpsPeer("subscriber", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        return network, broker, publisher, subscriber

    def test_remote_subscribe_and_publish(self, world):
        network, broker, publisher, subscriber = world
        events = []
        subscriber.subscribe_remote("broker", person_java(), events.append)
        publisher.publish("broker", publisher.new_instance("demo.a.Person", ["Wire"]))
        network.run_until_idle()
        assert len(events) == 1
        assert events[0].getPersonName() == "Wire"
        assert broker.events_routed == 1

    def test_nonconformant_not_routed(self, world):
        network, broker, publisher, subscriber = world
        publisher.host_assembly(Assembly("bank", [account_csharp()]))
        events = []
        subscriber.subscribe_remote("broker", person_java(), events.append)
        publisher.publish("broker", publisher.new_instance("demo.bank.Account", ["o", 2]))
        network.run_until_idle()
        assert events == []
        assert broker.events_routed == 0

    def test_multiple_subscribers(self, world):
        network, broker, publisher, subscriber = world
        sub2 = TpsPeer("subscriber2", network)
        e1, e2 = [], []
        subscriber.subscribe_remote("broker", person_java(), e1.append)
        sub2.subscribe_remote("broker", person_vb(), e2.append)
        publisher.publish("broker", publisher.new_instance("demo.a.Person", ["both"]))
        network.run_until_idle()
        assert len(e1) == 1 and len(e2) == 1
        assert e1[0].getPersonName() == "both"
        assert e2[0].GetName() == "both"

    def test_unsubscribe_remote(self, world):
        network, broker, publisher, subscriber = world
        events = []
        sid = subscriber.subscribe_remote("broker", person_java(), events.append)
        subscriber.unsubscribe_remote("broker", sid)
        publisher.publish("broker", publisher.new_instance("demo.a.Person", ["x"]))
        network.run_until_idle()
        assert events == []

    def test_unsubscribe_remote_drops_the_handler(self, world):
        """The broker stops forwarding, and the peer forgets the handler
        too: an object sent straight to the peer is still admitted (the
        interest stays declared) but reaches no cancelled subscription,
        while a live one on the same interest still runs."""
        network, broker, publisher, subscriber = world
        expected = person_java()
        gone, kept = [], []
        sid = subscriber.subscribe_remote("broker", expected, gone.append)
        subscriber.subscribe_remote("broker", expected, kept.append)
        subscriber.unsubscribe_remote("broker", sid)
        publisher.send(subscriber.peer_id,
                       publisher.new_instance("demo.a.Person", ["direct"]))
        assert subscriber.inbox[-1].accepted
        assert gone == []
        assert [view.getPersonName() for view in kept] == ["direct"]

    def test_publisher_not_echoed(self, world):
        """A peer that both publishes and subscribes does not receive its
        own events back."""
        network, broker, publisher, subscriber = world
        events = []
        publisher.subscribe_remote("broker", person_java(), events.append)
        publisher.publish("broker", publisher.new_instance("demo.a.Person", ["self"]))
        network.run_until_idle()
        assert events == []

    def test_code_flows_through_broker(self, world):
        """Subscriber never talks to the publisher: descriptions and code
        come from the broker, which re-serves what it downloaded."""
        network, broker, publisher, subscriber = world
        events = []
        subscriber.subscribe_remote("broker", person_java(), events.append)
        publisher.publish("broker", publisher.new_instance("demo.a.Person", ["relay"]))
        network.run_until_idle()
        assert events[0].getPersonName() == "relay"
        # All subscriber traffic went to the broker.
        partners = {dst for (src, dst, kind, size) in network.log if src == "subscriber"}
        assert partners <= {"broker"}


class TestOneRelayPerPeer:
    """A record reaches a subscriber peer in one message, however many of
    the peer's subscriptions it matches, and the peer's handlers run once
    per record, not once per matching subscription."""

    @pytest.mark.parametrize("durable", [(False, True), (True, True)],
                             ids=["plain-and-durable", "two-durable"])
    def test_one_frame_per_record_per_peer(self, durable, tmp_path, opened):
        network = SimulatedNetwork()
        broker = opened(TpsBroker("broker", network,
                                  log_dir=str(tmp_path / "broker")))
        publisher = TpsPeer("publisher", network)
        publisher.host_assembly(person_assembly_pair()[0])
        subscriber = TpsPeer("subscriber", network)
        calls = []
        for number, is_durable in enumerate(durable):
            if is_durable:
                subscriber.subscribe_durable_remote(
                    "broker", person_java(), calls.append,
                    cursor="c%d" % number)
            else:
                subscriber.subscribe_remote("broker", person_java(),
                                            calls.append)
        network.run_until_idle()
        before = len(network.log)
        for index in range(3):
            publisher.publish("broker", publisher.new_instance(
                "demo.a.Person", ["p%d" % index]))
        network.run_until_idle()

        assert [view.getPersonName() for view in calls] == ["p0", "p1", "p2"]
        relays = [kind for src, dst, kind, _ in network.log[before:]
                  if (src, dst) == ("broker", "subscriber")]
        assert relays == ["object_batch"] * 3
        assert subscriber.transport_stats.objects_received == 3
        # Every subscription counts every record, and one ack per message
        # advances each durable cursor to the log end.
        assert list(broker.stats()["subscriptions"].values()) == [3, 3]
        for number, is_durable in enumerate(durable):
            if is_durable:
                assert broker.cursors.get("c%d" % number) == 3
        assert broker.pending_ack_count() == 0


class TestBrokerObservability:
    """Satellite: stats() snapshots on both broker flavours."""

    @pytest.fixture
    def world(self):
        network = SimulatedNetwork()
        broker = TpsBroker("broker", network)
        publisher = TpsPeer("publisher", network)
        subscriber = TpsPeer("subscriber", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        return network, broker, publisher, subscriber

    def test_local_broker_stats(self, runtime):
        broker = LocalBroker()
        keep = broker.subscribe(person_java(), lambda e: None)
        gone = broker.subscribe(person_vb(), lambda e: None)
        broker.publish(runtime.new_instance("demo.a.Person", ["1"]))
        broker.publish(runtime.new_instance("demo.a.Person", ["2"]))
        broker.unsubscribe(gone)
        broker.publish(runtime.new_instance("demo.a.Person", ["3"]))

        snapshot = broker.stats()
        assert snapshot["published"] == 3
        assert snapshot["delivered"] == 5
        assert snapshot["subscriptions"] == {keep.subscription_id: 3}
        routing = snapshot["routing"]
        # Warm publishes hit the verdict cache; the first one missed.
        assert routing["hits"] >= 2
        assert routing["misses"] >= 2
        assert routing["full_checks"] >= 1

    def test_tps_broker_stats(self, world):
        network, broker, publisher, subscriber = world
        subscriber.subscribe_remote("broker", person_java(), lambda e: None)
        publisher.publish("broker", publisher.new_instance("demo.a.Person", ["s"]))
        network.run_until_idle()

        snapshot = broker.stats()
        assert snapshot["events_routed"] == 1
        assert list(snapshot["subscriptions"].values()) == [1]
        assert snapshot["routing"]["misses"] >= 1
        assert snapshot["transport"]["objects_received"] == 1
        assert snapshot["transport"]["objects_sent"] == 1
        # The plain broker neither batches nor forwards; the mesh shard
        # contributes those counters via _extra_stats.
        assert "forwards_sent" not in snapshot

    def test_transport_counters_still_reachable(self, world):
        """The stats() method must not hide the TransportStats counters;
        the deprecated .stats alias finished its cycle and is gone."""
        network, broker, publisher, subscriber = world
        assert not hasattr(publisher, "stats")
        assert publisher.transport_stats.objects_sent == 0
        assert broker.transport_stats.objects_sent == 0
