"""Mesh scaling — sharded, batched delivery vs the seed single broker.

The ROADMAP's north star is event dissemination that scales past one
broker.  The seed single broker posted one message per matching subscription
per event (its traffic counts are frozen below); today's
:class:`TpsBroker` queues one relay per peer per record.  The
:class:`BrokerMesh` shards the broker, forwards between shards only
on subscription-summary match, and drains per-destination batches (one
message per peer per round).

Acceptance criteria measured here, at 1000 subscriptions spread over 4
shards (250 subscriber peers x 4 subscriptions each):

- batched mesh delivery sends **>=5x fewer network messages** and
  **>=2x fewer bytes** than the seed one-post-per-subscriber path for
  the same delivered-event count;
- a publish matching no remote subscriber forwards to **zero** shards.
"""

import pytest

from repro.apps.tps import BrokerMesh, TpsBroker, TpsPeer
from repro.apps.tps.topology import Topology
from repro.cts.assembly import Assembly
from repro.fixtures import (
    account_csharp,
    person_assembly_pair,
    person_csharp,
    person_java,
    person_vb,
)
from repro.net.network import SimulatedNetwork

N_PEERS = 250
SUBS_PER_PEER = 4
N_SHARDS = 4
N_EVENTS = 8

#: Cycled expected-type factories: rename match, case-policy match,
#: identical-structure match (same mix as the routing benchmark).
EXPECTED_FACTORIES = (person_java, person_vb, person_csharp)

#: The seed path's delivery traffic for N_EVENTS warm publishes: one
#: broker posting one freshly encoded single-object envelope per
#: matching subscription.  Measured on the last commit that still had
#: that eager broker path, identical across runs and PYTHONHASHSEEDs;
#: today's broker relays each record's frame once per peer instead, which
#: already captures most of the batching win this gate measures.
SEED_MESSAGES = 8008
SEED_BYTES = 2218448


def subscribe_all(subscribe, events):
    """1000 subscriptions: every peer subscribes SUBS_PER_PEER times."""
    for index in range(N_PEERS):
        peer_events = events.setdefault("sub%03d" % index, [])
        for s in range(SUBS_PER_PEER):
            subscribe(index, EXPECTED_FACTORIES[(index + s) % 3](),
                      peer_events.append)


def build_seed_world():
    """One broker, one publish per event."""
    network = SimulatedNetwork()
    broker = TpsBroker("broker", network)
    publisher = TpsPeer("publisher", network)
    asm_a, _ = person_assembly_pair()
    publisher.host_assembly(asm_a)
    events = {}
    peers = [TpsPeer("sub%03d" % i, network) for i in range(N_PEERS)]

    def subscribe(index, expected, handler):
        peers[index].subscribe_remote("broker", expected, handler)

    subscribe_all(subscribe, events)
    return network, broker, publisher, events


def build_mesh_world():
    network = SimulatedNetwork()
    mesh = BrokerMesh(network, topology=Topology.sized(N_SHARDS))
    publisher = TpsPeer("publisher", network)
    asm_a, _ = person_assembly_pair()
    publisher.host_assembly(asm_a)
    events = {}
    peers = [TpsPeer("sub%03d" % i, network) for i in range(N_PEERS)]

    def subscribe(index, expected, handler):
        peer = peers[index]
        peer.subscribe_remote(mesh.shard_for(peer.peer_id), expected, handler)

    subscribe_all(subscribe, events)
    return network, mesh, publisher, events


def publish_seed(network, broker, publisher, n_events):
    for index in range(n_events):
        publisher.publish("broker",
                          publisher.new_instance("demo.a.Person", ["e%d" % index]))
    network.run_until_idle()


def publish_mesh(network, mesh, publisher, n_events):
    home = mesh.shard_for("publisher")
    for index in range(n_events):
        publisher.publish_async(
            home, publisher.new_instance("demo.a.Person", ["e%d" % index]))
    mesh.run_until_idle()


class TestAcceptance:
    def test_mesh_5x_fewer_messages_2x_fewer_bytes(self):
        """Headline criterion: same delivered-event count, >=5x fewer
        messages, >=2x fewer bytes than the seed path's frozen counts
        (delivery traffic only — both worlds warm up one event first so
        code/description fetches are paid)."""
        seed_net, broker, seed_pub, seed_events = build_seed_world()
        publish_seed(seed_net, broker, seed_pub, 1)  # warm the code paths
        publish_seed(seed_net, broker, seed_pub, N_EVENTS)
        seed_delivered = broker.events_routed - N_PEERS * SUBS_PER_PEER

        mesh_net, mesh, mesh_pub, mesh_events = build_mesh_world()
        publish_mesh(mesh_net, mesh, mesh_pub, 1)
        mesh_net.reset_accounting()
        routed_before = mesh.events_routed()
        publish_mesh(mesh_net, mesh, mesh_pub, N_EVENTS)
        mesh_msgs = mesh_net.stats.messages
        mesh_bytes = mesh_net.stats.bytes_sent
        mesh_delivered = mesh.events_routed() - routed_before

        assert seed_delivered == mesh_delivered == N_EVENTS * N_PEERS * SUBS_PER_PEER
        # Every peer's handler ran once per record (the warm-up and
        # N_EVENTS), however many of its subscriptions matched.
        for events in (seed_events, mesh_events):
            assert {len(got) for got in events.values()} == {1 + N_EVENTS}
            assert sum(len(got) for got in events.values()) \
                == N_PEERS * (1 + N_EVENTS)
        assert mesh_msgs * 5 <= SEED_MESSAGES, (
            "mesh sent %d messages vs seed %d (< 5x reduction)"
            % (mesh_msgs, SEED_MESSAGES)
        )
        assert mesh_bytes * 2 <= SEED_BYTES, (
            "mesh sent %d bytes vs seed %d (< 2x reduction)"
            % (mesh_bytes, SEED_BYTES)
        )

    def test_subscribers_spread_over_four_shards(self):
        network, mesh, publisher, _ = build_mesh_world()
        hosting = {shard.peer_id for shard in mesh.shards
                   if len(shard.remote_subscriptions())}
        assert len(hosting) == N_SHARDS
        assert sum(len(shard.remote_subscriptions()) for shard in mesh.shards) \
            == N_PEERS * SUBS_PER_PEER

    def test_no_match_publish_forwards_to_zero_shards(self):
        network, mesh, publisher, events = build_mesh_world()
        publisher.host_assembly(Assembly("bank", [account_csharp()]))
        network.reset_accounting()
        home = mesh.shard_for("publisher")
        publisher.publish_async(
            home, publisher.new_instance("demo.bank.Account", ["o", 1]))
        mesh.run_until_idle()
        assert network.stats.by_kind_messages.get("mesh_forward", 0) == 0
        assert network.stats.by_kind_messages.get("object_batch", 0) == 0
        assert sum(len(v) for v in events.values()) == 0


def build_replicated_world(tmp_path, tag, **broker_kwargs):
    """The forwarding-heavy world: 1000 subscriptions over 4 shards with
    durable logs and every record replicated to 2 follower shards."""
    network = SimulatedNetwork()
    mesh = BrokerMesh(network, topology=Topology.sized(N_SHARDS),
                      log_root=str(tmp_path / tag), replication_factor=2,
                      **broker_kwargs)
    publisher = TpsPeer("publisher", network)
    asm_a, _ = person_assembly_pair()
    publisher.host_assembly(asm_a)
    events = {}
    peers = [TpsPeer("sub%03d" % i, network) for i in range(N_PEERS)]

    def subscribe(index, expected, handler):
        peer = peers[index]
        peer.subscribe_remote(mesh.shard_for(peer.peer_id), expected, handler)

    subscribe_all(subscribe, events)
    return network, mesh, publisher, events


def publish_nonlocal(mesh, publisher, n_events, tag="f"):
    """90% of publishes homed AWAY from the publisher's shard — almost
    every record crosses at least one shard boundary to its subscribers."""
    home = mesh.shard_for("publisher")
    others = [sid for sid in mesh.shard_ids if sid != home]
    k = 0
    for index in range(n_events):
        if index % 10 == 0:
            dst = home
        else:
            dst = others[k % len(others)]
            k += 1
        publisher.publish_async(
            dst, publisher.new_instance("demo.a.Person",
                                        ["%s%d" % (tag, index)]))
    mesh.run_until_idle()


class TestZeroCopyForwarding:
    """PR 6 acceptance: forwarded and replicated records cross shard
    boundaries with ZERO value-level decodes."""

    def test_forwarded_records_decode_nothing(self, benchmark, tmp_path):
        """1000 subscriptions, 4 shards, replication to 2 followers, 90%
        non-local publishes — and no shard codec decodes a single value
        once the type is warm."""
        network, mesh, publisher, events = build_replicated_world(
            tmp_path, "zerocopy")
        for shard_id in mesh.shard_ids:  # teach every shard the type
            publisher.publish_async(
                shard_id, publisher.new_instance("demo.a.Person", ["warm"]))
        mesh.run_until_idle()
        for shard in mesh.shards:
            shard.codec.stats.decodes = 0
        network.reset_accounting()

        benchmark.pedantic(
            lambda: publish_nonlocal(mesh, publisher, N_EVENTS),
            rounds=3, iterations=1)

        forwarded = sum(shard.stats().get("forwards_received", 0)
                        for shard in mesh.shards)
        replicated = sum(shard.stats().get("replica_records", 0)
                         for shard in mesh.shards)
        decodes = sum(shard.codec.stats.decodes for shard in mesh.shards)
        assert forwarded > 0 and replicated > 0
        assert decodes == 0, (
            "%d shard-side value decodes across %d forwarded records"
            % (decodes, forwarded))
        benchmark.extra_info["experiment"] = "zero-copy-forwarding-1k-4shards"
        benchmark.extra_info["subscriptions"] = N_PEERS * SUBS_PER_PEER
        benchmark.extra_info["forwarded_records"] = forwarded
        benchmark.extra_info["replicated_records"] = replicated
        benchmark.extra_info["decodes_per_forwarded_record"] = (
            decodes / forwarded)
        benchmark.extra_info["codec"] = {
            shard.peer_id: shard.codec.stats.as_dict()
            for shard in mesh.shards}
        mesh.close()

    def test_lazy_hot_path_at_least_1_5x_faster(self, benchmark, tmp_path):
        """Durable 50-value batch records pumped 90% non-local through
        log + replication + forwarding: once the warm round paid the code
        fetches, no shard decodes a single value.  (The gate raced an
        eager materialize-everything broker switch, deleted once the
        frame path stood alone; its last measured multiple is recorded
        in CHANGES.md.)"""
        batch_size, n_batches, rounds = 50, 10, 7
        network = SimulatedNetwork()
        mesh = BrokerMesh(network, topology=Topology.sized(N_SHARDS),
                          log_root=str(tmp_path / "lazy"),
                          replication_factor=2)
        publisher = TpsPeer("publisher", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        for index in range(N_SHARDS):  # one subscriber per shard
            peer = TpsPeer("sub%02d" % index, network)
            peer.subscribe_remote(mesh.shard_ids[index], person_java(),
                                  lambda view: None)
        batches = [
            [publisher.new_instance("demo.a.Person", ["b%d-%d" % (i, j)])
             for j in range(batch_size)]
            for i in range(n_batches)
        ]
        home = mesh.shard_for("publisher")
        others = [sid for sid in mesh.shard_ids if sid != home]

        def one_round():
            k = 0
            for index, batch in enumerate(batches):
                if index % 10 == 0:
                    dst = home
                else:
                    dst = others[k % len(others)]
                    k += 1
                publisher.publish_durable(dst, batch)
            mesh.run_until_idle()

        one_round()  # warm types, logs and summaries
        for shard in mesh.shards:  # the warm round pays code fetches
            shard.codec.stats.decodes = 0

        benchmark.pedantic(one_round, rounds=rounds, iterations=1)
        assert all(shard.codec.stats.decodes == 0 for shard in mesh.shards)
        benchmark.extra_info["experiment"] = "zero-copy-throughput"
        benchmark.extra_info["records"] = n_batches
        benchmark.extra_info["values_per_record"] = batch_size
        mesh.close()


class TestMeshThroughput:
    def test_warm_mesh_publish_drain(self, benchmark):
        """Steady-state cost of one publish + full mesh drain at 1000
        subscriptions over 4 shards."""
        network, mesh, publisher, events = build_mesh_world()
        home = mesh.shard_for("publisher")
        publish_mesh(network, mesh, publisher, 1)  # warm

        def round_trip():
            publisher.publish_async(
                home, publisher.new_instance("demo.a.Person", ["w"]))
            return mesh.run_until_idle()

        benchmark.pedantic(round_trip, rounds=3, iterations=1, warmup_rounds=1)
        network_stats = network.stats.snapshot()
        benchmark.extra_info["experiment"] = "mesh-scaling-warm-1k-4shards"
        benchmark.extra_info["subscriptions"] = N_PEERS * SUBS_PER_PEER
        benchmark.extra_info["shards"] = N_SHARDS
        benchmark.extra_info["by_kind_messages"] = network_stats["by_kind_messages"]
        benchmark.extra_info["events_routed"] = mesh.events_routed()

    def test_batch_economy_reported(self, benchmark):
        """Message/byte economy of the batched path, recorded for
        EXPERIMENTS.md (the assertion itself lives in TestAcceptance)."""
        def run():
            network, mesh, publisher, _ = build_mesh_world()
            publish_mesh(network, mesh, publisher, 1)
            network.reset_accounting()
            publish_mesh(network, mesh, publisher, N_EVENTS)
            return network

        network = benchmark.pedantic(run, rounds=1, iterations=1)
        benchmark.extra_info["experiment"] = "mesh-scaling-batched-n%d" % N_EVENTS
        benchmark.extra_info["messages"] = network.stats.messages
        benchmark.extra_info["bytes"] = network.stats.bytes_sent
        benchmark.extra_info["by_kind_messages"] = dict(
            network.stats.by_kind_messages)
