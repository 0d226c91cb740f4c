"""TPS routing fast path — publish throughput under subscriber load.

The paper's Section 7 calls the conformance cost "a lower bound" on real
workloads; Section 8 pitches TPS as the flagship application.  These
benchmarks measure the broker hot path the RoutingIndex optimises:
publish throughput against 10/100/1000 subscribers, cold vs warm verdict
cache, and the headline acceptance ratio — warm-cache publish at 1k
subscribers vs the uncached seed routing loop (a full conformance check
per subscription per event).
"""

import time

import pytest

from repro.apps.tps import LocalBroker
from repro.core import ConformanceChecker, ConformanceOptions
from repro.fixtures import (
    person_assembly_pair,
    person_csharp,
    person_java,
    person_vb,
)
from repro.remoting.dynamic import wrap_with_result
from repro.runtime.loader import Runtime
from repro.serialization.binary import BinarySerializer

SUBSCRIBER_COUNTS = [10, 100, 1000]

#: Expected-type factories cycled across subscribers: a rename match, a
#: case-policy match and an identical-structure match (fast path).
EXPECTED_FACTORIES = (person_java, person_vb, person_csharp)


@pytest.fixture
def publish_world():
    runtime = Runtime()
    asm_a, _ = person_assembly_pair()
    runtime.load_assembly(asm_a)
    event = runtime.new_instance("demo.a.Person", ["hot-path"])
    return runtime, event


def build_broker(n_subscribers):
    broker = LocalBroker()
    for i in range(n_subscribers):
        broker.subscribe(EXPECTED_FACTORIES[i % 3](), lambda view: None)
    return broker


def seed_publish(subscriptions, checker, event):
    """The seed broker's routing loop: one full conformance check and one
    wrapper per subscription per event."""
    event_type = event._repro_type()
    deliveries = 0
    for subscription in subscriptions:
        result = checker.conforms(event_type, subscription.expected)
        if not result.ok:
            continue
        view = wrap_with_result(event, subscription.expected, result, checker)
        subscription.handler(view)
        deliveries += 1
    return deliveries


class TestPublishThroughput:
    @pytest.mark.parametrize("n_subscribers", SUBSCRIBER_COUNTS)
    def test_warm_publish(self, benchmark, publish_world, n_subscribers):
        """Steady-state publish: verdicts cached, groups built."""
        runtime, event = publish_world
        broker = build_broker(n_subscribers)
        broker.publish(event)  # warm the verdict cache

        deliveries = benchmark(broker.publish, event)

        benchmark.extra_info["experiment"] = "tps-routing-warm-n%d" % n_subscribers
        benchmark.extra_info["subscribers"] = n_subscribers
        benchmark.extra_info["deliveries_per_publish"] = deliveries
        benchmark.extra_info["routing_stats"] = broker.index.stats.as_dict()
        assert deliveries == n_subscribers

    @pytest.mark.parametrize("n_subscribers", [10, 100])
    def test_cold_publish(self, benchmark, publish_world, n_subscribers):
        """Every publish pays the full conformance cost (cache dropped)."""
        runtime, event = publish_world
        broker = build_broker(n_subscribers)

        def cold_publish():
            # invalidate() drops the routing verdicts and the checker's
            # memo, so every group pays a full conformance check.
            broker.index.invalidate()
            return broker.publish(event)

        deliveries = benchmark(cold_publish)
        benchmark.extra_info["experiment"] = "tps-routing-cold-n%d" % n_subscribers
        benchmark.extra_info["subscribers"] = n_subscribers
        assert deliveries == n_subscribers


class TestAcceptance:
    def test_warm_cache_5x_faster_than_uncached_seed_at_1k(self, publish_world):
        """Acceptance criterion: warm-cache publish at 1000 subscribers is
        at least 5x faster than the seed path with no verdict cache."""
        runtime, event = publish_world
        broker = build_broker(1000)
        broker.publish(event)  # warm

        warm_rounds = 20
        start = time.perf_counter()
        for _ in range(warm_rounds):
            broker.publish(event)
        warm = (time.perf_counter() - start) / warm_rounds

        subscriptions = broker.subscriptions()
        checker = ConformanceChecker(options=ConformanceOptions.pragmatic())
        seed_rounds = 3
        start = time.perf_counter()
        for _ in range(seed_rounds):
            checker.clear_cache()  # the uncached seed path
            assert seed_publish(subscriptions, checker, event) == 1000
        uncached = (time.perf_counter() - start) / seed_rounds

        speedup = uncached / warm
        assert speedup >= 5.0, (
            "warm indexed publish only %.1fx faster than uncached seed path"
            % speedup
        )

    def test_cold_vs_warm_verdict_cache(self, publish_world):
        """A warm publish answers every routing decision from the verdict
        cache; an invalidated one has to decide again.  Counted, not
        timed: the verdict cache's own counters say which path ran."""
        runtime, event = publish_world
        broker = build_broker(300)
        broker.publish(event)
        stats = broker.index.stats

        rounds = 10
        before = stats.as_dict()
        for _ in range(rounds):
            broker.publish(event)
        warm = {name: value - before[name]
                for name, value in stats.as_dict().items()}
        assert warm["misses"] == 0
        assert warm["full_checks"] == 0
        assert warm["hits"] > 0

        before = stats.as_dict()
        for _ in range(rounds):
            broker.index.invalidate()
            broker.publish(event)
        cold = {name: value - before[name]
                for name, value in stats.as_dict().items()}
        assert cold["invalidations"] == rounds
        assert cold["misses"] > 0


class TestWirePayloads:
    def test_v2_homogeneous_list_bytes(self, benchmark, publish_world):
        """Wire v2 interning: a 50-object homogeneous list, encode cost and
        payload bytes vs v1 (reported for EXPERIMENTS.md)."""
        runtime, _ = publish_world
        people = [runtime.new_instance("demo.a.Person", ["p%d" % i])
                  for i in range(50)]
        v2 = BinarySerializer(runtime)
        v1 = BinarySerializer(runtime, version=1)

        data = benchmark(v2.serialize, people)

        v1_bytes = len(v1.serialize(people))
        benchmark.extra_info["experiment"] = "wire-v2-homogeneous-50"
        benchmark.extra_info["v1_bytes"] = v1_bytes
        benchmark.extra_info["v2_bytes"] = len(data)
        benchmark.extra_info["ratio"] = round(len(data) / v1_bytes, 3)
        assert len(data) < v1_bytes
