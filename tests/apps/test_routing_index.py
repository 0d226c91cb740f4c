"""Tests for the TPS routing index: grouping, verdict caching and
invalidation."""

import pytest

from repro.apps.tps import LocalBroker, RoutingIndex, Subscription, TpsBroker, TpsPeer
from repro.core import ConformanceChecker, ConformanceOptions
from repro.cts.builder import TypeBuilder
from repro.cts.registry import TypeRegistry
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
    return rt


@pytest.fixture
def checker():
    return ConformanceChecker(options=ConformanceOptions.pragmatic())


def make_index(checker, registry=None):
    return RoutingIndex(checker, registry)


class TestGrouping:
    def test_same_identity_shares_a_group(self, checker):
        index = make_index(checker)
        # person_java() builds a fresh TypeInfo per call, same identity.
        index.add(Subscription(person_java(), None, 1))
        index.add(Subscription(person_java(), None, 2))
        index.add(Subscription(person_vb(), None, 3))
        assert len(index) == 3
        assert index.group_count == 2

    def test_one_conformance_decision_per_group(self, runtime, checker):
        index = make_index(checker)
        for i in range(10):
            index.add(Subscription(person_java(), None, i + 1))
        event_type = runtime.registry.require("demo.a.Person")
        routed = list(index.route(event_type))
        assert len(routed) == 1
        entry, subs = routed[0]
        assert len(subs) == 10
        assert index.stats.misses == 1  # ten subscribers, one decision

    def test_negative_verdicts_cached(self, runtime, checker):
        index = make_index(checker)
        index.add(Subscription(person_java(), None, 1))
        account_type = account_csharp()
        assert list(index.route(account_type)) == []
        assert list(index.route(account_type)) == []
        assert index.stats.misses == 1
        assert index.stats.hits == 1

    def test_fast_paths_skip_rule_engine(self, runtime, checker):
        index = make_index(checker)
        provider = runtime.registry.require("demo.a.Person")
        index.add(Subscription(provider, None, 1))  # same identity
        # Same structure, different assembly => new identity, equal fingerprint.
        clone = person_csharp(assembly_name="person-clone")
        index.add(Subscription(clone, None, 2))
        index.add(Subscription(person_java(), None, 3))  # needs the rules
        list(index.route(provider))
        assert index.stats.fast_equal == 1
        assert index.stats.fast_equivalent == 1
        assert index.stats.full_checks == 1


class TestRemoval:
    def test_remove_by_id(self, checker):
        index = make_index(checker)
        index.add(Subscription(person_java(), None, 1))
        assert index.remove(1) is True
        assert index.remove(1) is False
        assert len(index) == 0
        assert index.group_count == 0

    def test_remove_checks_peer_ownership(self, checker):
        index = make_index(checker)
        index.add(Subscription(person_java(), None, 1, peer_id="alice"))
        assert index.remove(1, peer_id="mallory") is False
        assert len(index) == 1
        assert index.remove(1, peer_id="alice") is True

    def test_group_survives_partial_removal(self, runtime, checker):
        index = make_index(checker)
        index.add(Subscription(person_java(), None, 1))
        index.add(Subscription(person_java(), None, 2))
        index.remove(1)
        event_type = runtime.registry.require("demo.a.Person")
        (entry, subs), = index.route(event_type)
        assert [s.subscription_id for s in subs] == [2]


class TestInvalidation:
    def test_explicit_invalidate_forces_recheck(self, runtime, checker):
        index = make_index(checker)
        index.add(Subscription(person_java(), None, 1))
        event_type = runtime.registry.require("demo.a.Person")
        list(index.route(event_type))
        index.invalidate()
        list(index.route(event_type))
        assert index.stats.misses == 2
        assert index.stats.invalidations == 1

    def test_invalidate_clears_checker_memo_too(self, runtime, checker):
        """The checker caches negative results definitively; dropping only
        the routing verdicts would read the same stale verdict back."""
        index = make_index(checker)
        index.add(Subscription(person_java(), None, 1))
        event_type = runtime.registry.require("demo.a.Person")
        list(index.route(event_type))
        assert checker.cache_size > 0
        index.invalidate()
        assert checker.cache_size == 0

    def test_registry_change_invalidates(self, runtime, checker):
        registry = TypeRegistry()
        index = make_index(checker, registry)
        index.add(Subscription(person_java(), None, 1))
        event_type = runtime.registry.require("demo.a.Person")
        list(index.route(event_type))
        assert index.stats.misses == 1
        registry.register(account_csharp())  # new knowledge arrives
        list(index.route(event_type))
        assert index.stats.invalidations == 1
        assert index.stats.misses == 2

    def test_quiet_registry_keeps_cache_warm(self, runtime, checker):
        registry = TypeRegistry()
        index = make_index(checker, registry)
        index.add(Subscription(person_java(), None, 1))
        event_type = runtime.registry.require("demo.a.Person")
        for _ in range(5):
            list(index.route(event_type))
        assert index.stats.misses == 1
        assert index.stats.hits == 4


class TestTypeEpoch:
    def test_type_replaced_in_place_is_rechecked(self):
        """A broker whose checker has no registry of its own still drops
        that checker's verdicts when its registry moves: a type replaced
        under the same GUID by a non-conforming structure stops routing."""
        runtime = Runtime()
        person = person_csharp()
        runtime.load_type(person)
        broker = LocalBroker(runtime=runtime)
        got = []
        broker.subscribe(person_java(), got.append)
        broker.publish(runtime.instantiate(person, ["x"]))
        replacement = (TypeBuilder("demo.a.Person").field("age", "int")
                       .build())
        replacement.guid = person.guid
        runtime.load_type(replacement, replace=True)
        broker.publish(runtime.instantiate(replacement))
        assert len(got) == 1


class TestLocalBrokerIntegration:
    def test_subscribers_in_a_group_share_the_view(self, runtime):
        broker = LocalBroker()
        got = []
        broker.subscribe(person_java(), got.append)
        broker.subscribe(person_java(), got.append)
        broker.publish(runtime.new_instance("demo.a.Person", ["shared"]))
        assert len(got) == 2
        assert got[0] is got[1]  # one proxy per (event, expected type)
        assert got[0].getPersonName() == "shared"

    def test_unsubscribe_during_delivery(self, runtime):
        broker = LocalBroker()
        got = []
        holder = {}

        def self_cancelling(view):
            got.append(view)
            broker.unsubscribe(holder["sub"])

        holder["sub"] = broker.subscribe(person_java(), self_cancelling)
        broker.subscribe(person_java(), got.append)
        broker.publish(runtime.new_instance("demo.a.Person", ["1"]))
        broker.publish(runtime.new_instance("demo.a.Person", ["2"]))
        # First publish reaches both; the cancelled one is gone afterwards.
        assert len(got) == 3

    def test_subscribe_during_delivery(self, runtime):
        broker = LocalBroker()
        late = []

        def recruiting(view):
            broker.subscribe(person_vb(), late.append)

        broker.subscribe(person_java(), recruiting)
        broker.publish(runtime.new_instance("demo.a.Person", ["grow"]))
        broker.publish(runtime.new_instance("demo.a.Person", ["grow"]))
        assert len(late) >= 1  # the recruit sees later publishes

    def test_warm_cache_stats_observable(self, runtime):
        broker = LocalBroker()
        broker.subscribe(person_java(), lambda e: None)
        event = runtime.new_instance("demo.a.Person", ["x"])
        broker.publish(event)
        broker.publish(event)
        assert broker.index.stats.misses == 1
        assert broker.index.stats.hits == 1


class TestTpsBrokerIntegration:
    @pytest.fixture
    def world(self):
        network = SimulatedNetwork()
        broker = TpsBroker("broker", network)
        publisher = TpsPeer("publisher", network)
        subscriber = TpsPeer("subscriber", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        return network, broker, publisher, subscriber

    def test_unsubscribe_is_indexed(self, world):
        network, broker, publisher, subscriber = world
        events = []
        sid = subscriber.subscribe_remote("broker", person_java(), events.append)
        assert len(broker.index) == 1
        subscriber.unsubscribe_remote("broker", sid)
        assert len(broker.index) == 0
        publisher.publish("broker", publisher.new_instance("demo.a.Person", ["x"]))
        network.run_until_idle()
        assert events == []

    def test_foreign_peer_cannot_unsubscribe(self, world):
        network, broker, publisher, subscriber = world
        events = []
        sid = subscriber.subscribe_remote("broker", person_java(), events.append)
        # The publisher tries to cancel the subscriber's interest.
        publisher.unsubscribe_remote("broker", sid)
        assert len(broker.index) == 1
        publisher.publish("broker", publisher.new_instance("demo.a.Person", ["kept"]))
        network.run_until_idle()
        assert len(events) == 1

    def test_repeat_publishes_hit_verdict_cache(self, world):
        network, broker, publisher, subscriber = world
        events = []
        subscriber.subscribe_remote("broker", person_java(), events.append)
        for i in range(3):
            publisher.publish(
                "broker", publisher.new_instance("demo.a.Person", ["p%d" % i])
            )
        network.run_until_idle()
        assert len(events) == 3
        assert broker.index.stats.hits >= 1
        assert broker.index.stats.misses <= 2  # at most one re-check after code loads
