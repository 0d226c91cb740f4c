"""Tests for the sharded broker mesh (batched, queue-driven delivery)."""

import pytest

from repro.apps.tps import (
    KIND_MESH_SUMMARY,
    BrokerMesh,
    TpsPeer,
    rendezvous_shard,
)
from repro.apps.tps.procmesh import SocketMesh
from repro.apps.tps.topology import Topology
from repro.cts.assembly import Assembly
from repro.fixtures import (
    account_csharp,
    person_assembly_pair,
    person_csharp,
    person_java,
    person_vb,
)
from repro.net.network import MessageDropped, NetworkError, SimulatedNetwork


def make_world(shards=3, n_subscribers=6, drop_rate=0.0, seed=0,
               sockets=False, **broker_kwargs):
    """A mesh with a publisher and subscribers; ``sockets=True`` runs it
    as a SocketMesh, its client peers on one hub node."""
    if sockets:
        mesh = SocketMesh(topology=Topology.sized(shards), **broker_kwargs)
        network = mesh.client_network("clients")
    else:
        network = SimulatedNetwork(drop_rate=drop_rate, seed=seed)
        mesh = BrokerMesh(network, topology=Topology.sized(shards),
                          **broker_kwargs)
    publisher = TpsPeer("publisher", network, **broker_kwargs)
    asm_a, _ = person_assembly_pair()
    publisher.host_assembly(asm_a)
    subscribers = []
    events = {}
    for index in range(n_subscribers):
        peer = TpsPeer("sub%02d" % index, network, **broker_kwargs)
        events[peer.peer_id] = []
        peer.subscribe_remote(mesh.shard_for(peer.peer_id), person_java(),
                              events[peer.peer_id].append)
        subscribers.append(peer)
    return network, mesh, publisher, subscribers, events


class TestRendezvousHash:
    def test_deterministic(self):
        shards = ["s0", "s1", "s2", "s3"]
        for key in ("alice", "bob", "publisher-17"):
            assert rendezvous_shard(key, shards) == rendezvous_shard(key, shards)
            assert rendezvous_shard(key, list(reversed(shards))) == \
                rendezvous_shard(key, shards)

    def test_spread(self):
        shards = ["s0", "s1", "s2", "s3"]
        placed = {rendezvous_shard("peer%03d" % i, shards) for i in range(200)}
        assert placed == set(shards)

    def test_minimal_disruption(self):
        """Removing one shard only moves the keys it owned."""
        shards = ["s0", "s1", "s2", "s3"]
        keys = ["peer%03d" % i for i in range(100)]
        before = {key: rendezvous_shard(key, shards) for key in keys}
        after = {key: rendezvous_shard(key, shards[:-1]) for key in keys}
        for key in keys:
            if before[key] != "s3":
                assert after[key] == before[key]

    def test_empty_shard_list_rejected(self):
        with pytest.raises(ValueError):
            rendezvous_shard("x", [])


class TestMeshDelivery:
    def test_publish_reaches_every_shard_subscriber(self):
        network, mesh, publisher, subscribers, events = make_world()
        home = mesh.shard_for("publisher")
        publisher.publish_async(home, publisher.new_instance("demo.a.Person", ["hello"]))
        assert all(len(v) == 0 for v in events.values())  # queue-driven
        mesh.run_until_idle()
        assert all(len(v) == 1 for v in events.values())
        assert events["sub00"][0].getPersonName() == "hello"
        assert mesh.events_routed() == len(subscribers)

    def test_subscribers_span_multiple_shards(self):
        network, mesh, publisher, subscribers, events = make_world(
            shards=3, n_subscribers=12)
        homes = {mesh.shard_for(peer.peer_id) for peer in subscribers}
        assert len(homes) >= 2  # the hash really spreads peers

    def test_batched_one_message_per_destination(self):
        """Three events published before draining reach each subscriber in
        ONE object_batch message."""
        network, mesh, publisher, subscribers, events = make_world()
        home = mesh.shard_for("publisher")
        for index in range(3):
            publisher.publish_async(
                home, publisher.new_instance("demo.a.Person", ["e%d" % index]))
        network.reset_accounting()
        mesh.run_until_idle()
        batches = network.stats.by_kind_messages.get("object_batch", 0)
        assert batches == len(subscribers)
        assert all([e.getPersonName() for e in v] == ["e0", "e1", "e2"]
                   for v in events.values())

    def test_sync_publish_also_buffers(self):
        """The synchronous publish path still works against a mesh shard:
        routing buffers, draining delivers."""
        network, mesh, publisher, subscribers, events = make_world()
        home = mesh.shard_for("publisher")
        publisher.publish(home, publisher.new_instance("demo.a.Person", ["sync"]))
        assert all(len(v) == 0 for v in events.values())
        mesh.run_until_idle()
        assert all(len(v) == 1 for v in events.values())

    def test_no_conforming_subscriber_forwards_to_zero_shards(self):
        """Acceptance criterion: an event nobody on a remote shard wants
        never crosses a shard boundary."""
        network, mesh, publisher, subscribers, events = make_world()
        publisher.host_assembly(Assembly("bank", [account_csharp()]))
        network.reset_accounting()
        home = mesh.shard_for("publisher")
        publisher.publish_async(
            home, publisher.new_instance("demo.bank.Account", ["o", 1]))
        mesh.run_until_idle()
        assert network.stats.by_kind_messages.get("mesh_forward", 0) == 0
        assert network.stats.by_kind_messages.get("object_batch", 0) == 0
        assert all(len(v) == 0 for v in events.values())

    def test_forwards_only_to_hosting_shards(self):
        """With subscribers on a single shard, a publish from another
        shard's publisher forwards to exactly that one shard."""
        network = SimulatedNetwork()
        mesh = BrokerMesh(network, topology=Topology.sized(4))
        publisher = TpsPeer("publisher", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        home = mesh.shard_for("publisher")
        other = next(sid for sid in mesh.shard_ids if sid != home)
        got = []
        subscriber = TpsPeer("lone-sub", network)
        subscriber.subscribe_remote(other, person_java(), got.append)
        network.reset_accounting()
        publisher.publish_async(home, publisher.new_instance("demo.a.Person", ["f"]))
        mesh.run_until_idle()
        assert network.stats.by_kind_messages.get("mesh_forward", 0) == 1
        assert len(got) == 1

    def test_publisher_not_echoed_across_shards(self):
        """A peer that both publishes and subscribes never receives its
        own event, wherever it is routed."""
        network, mesh, publisher, subscribers, events = make_world()
        mine = []
        publisher.subscribe_remote(mesh.shard_for("publisher"), person_vb(),
                                   mine.append)
        publisher.publish_async(mesh.shard_for("publisher"),
                                publisher.new_instance("demo.a.Person", ["me"]))
        mesh.run_until_idle()
        assert mine == []
        assert all(len(v) == 1 for v in events.values())

    def test_unsubscribe_stops_forwarding(self):
        """When the last conforming subscriber of a shard unsubscribes,
        the summary gossip removes the forward route."""
        network = SimulatedNetwork()
        mesh = BrokerMesh(network, topology=Topology.sized(2))
        publisher = TpsPeer("publisher", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        home = mesh.shard_for("publisher")
        other = next(sid for sid in mesh.shard_ids if sid != home)
        got = []
        subscriber = TpsPeer("remote-sub", network)
        sid = subscriber.subscribe_remote(other, person_java(), got.append)

        publisher.publish_async(home, publisher.new_instance("demo.a.Person", ["a"]))
        mesh.run_until_idle()
        assert len(got) == 1

        subscriber.unsubscribe_remote(other, sid)
        network.reset_accounting()
        publisher.publish_async(home, publisher.new_instance("demo.a.Person", ["b"]))
        mesh.run_until_idle()
        assert network.stats.by_kind_messages.get("mesh_forward", 0) == 0
        assert len(got) == 1

    def test_refcounted_summaries_survive_partial_unsubscribe(self):
        """Two remote subscribers sharing an expected type: removing one
        must keep the forward route alive for the other."""
        network = SimulatedNetwork()
        mesh = BrokerMesh(network, topology=Topology.sized(2))
        publisher = TpsPeer("publisher", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        home = mesh.shard_for("publisher")
        other = next(sid for sid in mesh.shard_ids if sid != home)
        expected = person_java()
        got_a, got_b = [], []
        sub_a = TpsPeer("remote-a", network)
        sub_b = TpsPeer("remote-b", network)
        id_a = sub_a.subscribe_remote(other, expected, got_a.append)
        sub_b.subscribe_remote(other, expected, got_b.append)
        sub_a.unsubscribe_remote(other, id_a)

        publisher.publish_async(home, publisher.new_instance("demo.a.Person", ["x"]))
        mesh.run_until_idle()
        assert got_a == []
        assert len(got_b) == 1

    def test_duplicate_subscriptions_one_message(self):
        """A peer with several matching subscriptions still receives ONE
        batch message per drain (the transport-layer acceptance point)."""
        network = SimulatedNetwork()
        mesh = BrokerMesh(network, topology=Topology.sized(2))
        publisher = TpsPeer("publisher", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        got = []
        subscriber = TpsPeer("multi-sub", network)
        shard = mesh.shard_for("multi-sub")
        for expected in (person_java(), person_vb(), person_csharp()):
            subscriber.subscribe_remote(shard, expected, got.append)
        network.reset_accounting()
        publisher.publish_async(mesh.shard_for("publisher"),
                                publisher.new_instance("demo.a.Person", ["k"]))
        mesh.run_until_idle()
        assert network.stats.by_kind_messages.get("object_batch", 0) == 1
        # Seed parity: one delivery per matching subscription.
        assert mesh.events_routed() == 3


class TestMeshObservability:
    def test_shard_stats_surface_counters(self):
        network, mesh, publisher, subscribers, events = make_world()
        home = mesh.shard_for("publisher")
        for index in range(2):
            publisher.publish_async(
                home, publisher.new_instance("demo.a.Person", ["s%d" % index]))
        mesh.run_until_idle()
        snapshot = mesh.stats()
        assert snapshot["events_routed"] == 2 * len(subscribers)
        assert snapshot["batch_events"] == 2 * len(subscribers)
        home_stats = snapshot["shards"][home]
        assert home_stats["forwards_sent"] >= 1
        assert home_stats["summary_types"] >= 1
        assert home_stats["pending_deliveries"] == 0
        assert home_stats["routing"]["hits"] >= 0
        # Per-subscription delivered counts are exposed on every shard.
        delivered = [count
                     for shard_stats in snapshot["shards"].values()
                     for count in shard_stats["subscriptions"].values()]
        assert sum(delivered) == 2 * len(subscribers)

    def test_mesh_close_unregisters_shards(self):
        network, mesh, publisher, subscribers, events = make_world()
        mesh.close()
        for shard_id in mesh.shard_ids:
            assert shard_id not in network.peers()


class TestLossyFabric:
    """Satellite: fan-out under drop_rate > 0 with a deterministic seed."""

    def test_delivery_counts_and_drop_accounting(self):
        network, mesh, publisher, subscribers, events = make_world(
            shards=3, n_subscribers=8, drop_rate=0.15, seed=42,
            max_retries=20)
        home = mesh.shard_for("publisher")
        n_events = 5
        for index in range(n_events):
            publisher.publish_async(
                home, publisher.new_instance("demo.a.Person", ["l%d" % index]))
        mesh.run_until_idle()

        # Async messages are dropped silently but *accounted*; the control
        # plane (subscribe, gossip, fetches) recovered via retries.
        assert network.stats.dropped > 0
        delivered = sum(len(v) for v in events.values())
        possible = n_events * len(subscribers)
        assert 0 < delivered <= possible
        # Whatever arrived is intact and in per-subscriber FIFO order.
        for got in events.values():
            names = [event.getPersonName() for event in got]
            assert names == sorted(names, key=lambda n: int(n[1:]))

    def test_determinism_same_seed_same_outcome(self):
        outcomes = []
        for _ in range(2):
            network, mesh, publisher, subscribers, events = make_world(
                shards=3, n_subscribers=6, drop_rate=0.2, seed=7,
                max_retries=20)
            home = mesh.shard_for("publisher")
            for index in range(4):
                publisher.publish_async(
                    home,
                    publisher.new_instance("demo.a.Person", ["d%d" % index]))
            mesh.run_until_idle()
            outcomes.append((
                {peer: [e.getPersonName() for e in got]
                 for peer, got in events.items()},
                network.stats.dropped,
                network.stats.messages,
            ))
        assert outcomes[0] == outcomes[1]

    def test_mesh_forwarding_sane_under_loss(self):
        """Forward counters never exceed what was buffered, and nothing
        deadlocks: the mesh always drains to idle."""
        network, mesh, publisher, subscribers, events = make_world(
            shards=4, n_subscribers=10, drop_rate=0.25, seed=13,
            max_retries=20)
        home = mesh.shard_for("publisher")
        for index in range(6):
            publisher.publish_async(
                home, publisher.new_instance("demo.a.Person", ["m%d" % index]))
        mesh.run_until_idle()
        assert network.pending() == 0
        for shard in mesh.shards:
            assert shard.pending_deliveries() == 0
            assert shard.forward_events <= 6 * max(1, len(mesh.shards) - 1)
        # A dropped publish can only shrink deliveries, never duplicate.
        for got in events.values():
            names = [event.getPersonName() for event in got]
            assert len(names) == len(set(names))


class TestGossipRefcountsWithBufferedEvents:
    """Satellite: unsubscribing while events for the subscriber are still
    buffered in shard delivery queues must neither crash delivery nor
    leave a stale summary behind."""

    def test_unsubscribe_while_events_buffered(self):
        network = SimulatedNetwork()
        mesh = BrokerMesh(network, topology=Topology.sized(2))
        publisher = TpsPeer("publisher", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        home = mesh.shard_for("publisher")
        other = next(sid for sid in mesh.shard_ids if sid != home)

        got = []
        subscriber = TpsPeer("buff-sub", network)
        sid = subscriber.subscribe_remote(other, person_java(), got.append)

        publisher.publish_async(
            home, publisher.new_instance("demo.a.Person", ["q0"]))
        publisher.publish_async(
            home, publisher.new_instance("demo.a.Person", ["q1"]))
        network.flush()  # publishes reach the home shard (buffered there)
        for shard in mesh.shards:
            shard.flush_delivery()  # forwards enqueued toward `other`
        network.flush()  # forwards land: events now buffered for buff-sub
        assert mesh.shard(other).pending_deliveries() > 0

        subscriber.unsubscribe_remote(other, sid)
        # The last conforming subscriber left: every summary must be gone
        # even though its events are still sitting in delivery buffers.
        assert all(shard.summaries() == [] for shard in mesh.shards)
        assert all(not shard._summaries for shard in mesh.shards)

        mesh.run_until_idle()  # buffered deliveries drain without crashing
        assert network.stats.handler_errors == 0
        assert all(shard.pending_deliveries() == 0 for shard in mesh.shards)

    def test_refcounts_zero_after_interleaved_unsubscribes(self):
        """Two subscribers sharing a type, unsubscribing at different
        points of the buffered pipeline: the sibling keeps the summary
        until the second one leaves."""
        network = SimulatedNetwork()
        mesh = BrokerMesh(network, topology=Topology.sized(2))
        publisher = TpsPeer("publisher", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        home = mesh.shard_for("publisher")
        other = next(sid for sid in mesh.shard_ids if sid != home)
        expected = person_java()
        summary = (other, str(expected.guid))

        got_a, got_b = [], []
        sub_a = TpsPeer("ref-a", network)
        sub_b = TpsPeer("ref-b", network)
        id_a = sub_a.subscribe_remote(other, expected, got_a.append)
        id_b = sub_b.subscribe_remote(other, expected, got_b.append)
        assert summary in held_summaries(mesh.shard(home))

        publisher.publish_async(
            home, publisher.new_instance("demo.a.Person", ["mid"]))
        network.flush()
        sub_a.unsubscribe_remote(other, id_a)
        assert summary in held_summaries(mesh.shard(home))
        mesh.run_until_idle()
        sub_b.unsubscribe_remote(other, id_b)
        assert summary not in held_summaries(mesh.shard(home))
        assert network.stats.handler_errors == 0
        assert len(got_b) == 1


def held_summaries(shard):
    """The (shard, expected-type GUID) summaries ``shard`` routes by."""
    return {(summary.peer_id, str(summary.expected.guid))
            for summary in shard.summaries()}


def count_summary_requests(network, monkeypatch, drop_first=False):
    """Count the ``mesh_summary`` requests sent on ``network``; with
    ``drop_first`` the first one is lost before its handler runs."""
    sent = []
    request = network.request

    def counting(src, dst, kind, payload):
        if kind == KIND_MESH_SUMMARY:
            sent.append((src, dst))
            if drop_first and len(sent) == 1:
                raise MessageDropped("dropped by the test")
        return request(src, dst, kind, payload)

    monkeypatch.setattr(network, "request", counting)
    return sent


class TestSummaryAnnouncements:
    """A shard announces its whole set of expected types, and only when
    that set changes."""

    def test_lost_announcement_is_sent_again(self, monkeypatch):
        network = SimulatedNetwork()
        mesh = BrokerMesh(network, topology=Topology.sized(2))
        publisher = TpsPeer("publisher", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        home = mesh.shard_for("publisher")
        other = next(sid for sid in mesh.shard_ids if sid != home)
        sent = count_summary_requests(network, monkeypatch, drop_first=True)

        got_a, got_b = [], []
        sub_a = TpsPeer("lost-a", network)
        sub_b = TpsPeer("lost-b", network)
        id_a = sub_a.subscribe_remote(other, person_java(), got_a.append)
        assert mesh.shard(other).gossip_failures == 1
        sub_b.subscribe_remote(other, person_java(), got_b.append)
        sub_a.unsubscribe_remote(other, id_a)
        publisher.publish_async(
            home, publisher.new_instance("demo.a.Person", ["after"]))
        mesh.run_until_idle()
        assert len(got_b) == 1
        assert got_a == []
        # The lost announcement, then the whole set again on b's
        # subscribe; a's unsubscribe leaves the set as it was.
        assert len(sent) == 2

    def test_requests_follow_set_changes_only(self, monkeypatch):
        network = SimulatedNetwork()
        mesh = BrokerMesh(network, topology=Topology.sized(3))
        target = mesh.shard_ids[0]
        sent = count_summary_requests(network, monkeypatch)

        peers = [TpsPeer("same-%d" % index, network) for index in range(5)]
        for peer in peers:
            peer.subscribe_remote(target, person_java(), lambda event: None)
        assert sorted(sent) == [(target, sid) for sid in mesh.shard_ids[1:]]

        del sent[:]
        extra = TpsPeer("same-extra", network)
        sid = extra.subscribe_remote(target, person_java(),
                                     lambda event: None)
        extra.unsubscribe_remote(target, sid)
        assert sent == []
        for shard in mesh.shards[1:]:
            assert held_summaries(shard) == {
                (target, str(person_java().guid))}


def make_durable_world(opened, tmp_path, shards=3, n_subscribers=4,
                       drop_rate=0.0, seed=0, **broker_kwargs):
    network = SimulatedNetwork(drop_rate=drop_rate, seed=seed)
    mesh = BrokerMesh(network, topology=Topology.sized(shards),
                      log_root=str(tmp_path / "mesh-logs"), **broker_kwargs)
    opened(mesh)
    publisher = TpsPeer("publisher", network, **broker_kwargs)
    asm_a, _ = person_assembly_pair()
    publisher.host_assembly(asm_a)
    return network, mesh, publisher


class TestDurableMesh:
    """The persistence tentpole, mesh-side: cursor replay + crash recovery."""

    def test_late_durable_subscriber_gets_backlog_then_live(self, tmp_path,
                                                            opened):
        """Acceptance: a subscriber attached after N published events
        receives exactly the conforming backlog in publish order, then
        live events, with no duplicates across the ack boundary."""
        network, mesh, publisher = make_durable_world(opened, tmp_path)
        home = mesh.shard_for("publisher")
        n_backlog = 6
        for index in range(n_backlog):
            publisher.publish_async(
                home, publisher.new_instance("demo.a.Person", ["e%d" % index]))
        mesh.run_until_idle()

        got = []
        late = TpsPeer("late-sub", network)
        late.subscribe_durable_remote(home, person_java(), got.append,
                                      cursor="late-c")
        assert got == []  # replay is queue-driven, not inline
        mesh.run_until_idle()
        assert [e.getPersonName() for e in got] == \
            ["e%d" % i for i in range(n_backlog)]

        for index in range(n_backlog, n_backlog + 3):
            publisher.publish_async(
                home, publisher.new_instance("demo.a.Person", ["e%d" % index]))
        mesh.run_until_idle()
        names = [e.getPersonName() for e in got]
        assert names == ["e%d" % i for i in range(n_backlog + 3)]
        assert len(names) == len(set(names))  # no duplicates anywhere
        shard = mesh.shard(home)
        assert shard.cursors.get("late-c") == shard.event_log.next_offset
        assert shard.pending_ack_count() == 0

    def test_backlog_includes_events_forwarded_from_other_shards(
            self, tmp_path, opened):
        """A shard logs forwarded-in events too, so a late durable
        subscriber homed there replays events whichever shard admitted
        them first."""
        network, mesh, publisher = make_durable_world(opened, tmp_path,
                                                      shards=2)
        home = mesh.shard_for("publisher")
        other = next(sid for sid in mesh.shard_ids if sid != home)

        # A live subscriber at `other` makes home forward (and other log).
        live = []
        anchor = TpsPeer("anchor-sub", network)
        anchor.subscribe_remote(other, person_java(), live.append)
        for index in range(4):
            publisher.publish_async(
                home, publisher.new_instance("demo.a.Person", ["f%d" % index]))
        mesh.run_until_idle()
        assert len(live) == 4

        got = []
        late = TpsPeer("late-other", network)
        late.subscribe_durable_remote(other, person_java(), got.append,
                                      cursor="late-other-c")
        mesh.run_until_idle()
        assert [e.getPersonName() for e in got] == ["f%d" % i for i in range(4)]

    def test_restart_shard_loses_nothing_acked(self, tmp_path, opened):
        """Acceptance: restarting a shard with a non-empty log loses zero
        acked-past events and the durable subscription keeps working."""
        network, mesh, publisher = make_durable_world(opened, tmp_path)
        home = mesh.shard_for("publisher")
        got = []
        durable = TpsPeer("d-sub", network)
        durable.subscribe_durable_remote(home, person_java(), got.append,
                                         cursor="d-c")
        for index in range(5):
            publisher.publish_async(
                home, publisher.new_instance("demo.a.Person", ["a%d" % index]))
        mesh.run_until_idle()
        assert len(got) == 5

        restarted = mesh.restart_shard(home)
        assert restarted is mesh.shard(home)
        mesh.run_until_idle()
        # Everything was acked: the restart replays nothing.
        assert [e.getPersonName() for e in got] == \
            ["a%d" % i for i in range(5)]

        publisher.publish_async(
            home, publisher.new_instance("demo.a.Person", ["a5"]))
        mesh.run_until_idle()
        assert [e.getPersonName() for e in got][-1] == "a5"

    def test_restart_shard_redelivers_unacked(self, tmp_path, opened):
        """Acceptance: unacked events are redelivered after a crash
        (at-least-once); acked ones are never duplicated."""
        network, mesh, publisher = make_durable_world(opened, tmp_path,
                                                      shards=2)
        home = mesh.shard_for("publisher")
        got = []
        durable = TpsPeer("d-sub", network)
        durable.subscribe_durable_remote(home, person_java(), got.append,
                                         cursor="d-c")
        for index in range(3):
            publisher.publish_async(
                home, publisher.new_instance("demo.a.Person", ["k%d" % index]))
        mesh.run_until_idle()  # k0-k2 delivered AND acked

        publisher.publish_async(
            home, publisher.new_instance("demo.a.Person", ["k3"]))
        publisher.publish_async(
            home, publisher.new_instance("demo.a.Person", ["k4"]))
        mesh.flush()  # events logged + buffered on the shard
        mesh.flush()  # delivered to the subscriber; acks still queued
        mesh.restart_shard(home)  # crash before the acks are processed
        mesh.run_until_idle()

        names = [e.getPersonName() for e in got]
        for acked in ("k0", "k1", "k2"):
            assert names.count(acked) == 1
        for unacked in ("k3", "k4"):
            assert names.count(unacked) >= 1  # at-least-once
        assert set(names) == {"k%d" % i for i in range(5)}

    def test_restart_shard_rebuilds_forwarding_summaries(self, tmp_path,
                                                         opened):
        """A restarted shard re-learns sibling subscriptions (and siblings
        re-learn its durable ones), so cross-shard publish still works."""
        network, mesh, publisher = make_durable_world(opened, tmp_path,
                                                      shards=3)
        home = mesh.shard_for("publisher")
        other = next(sid for sid in mesh.shard_ids if sid != home)
        remote_got = []
        remote = TpsPeer("remote-sub", network)
        remote.subscribe_remote(other, person_java(), remote_got.append)

        mesh.restart_shard(home)
        mesh.run_until_idle()
        assert len(mesh.shard(home).summaries()) >= 1  # resynced from sibling

        publisher.publish_async(
            home, publisher.new_instance("demo.a.Person", ["after"]))
        mesh.run_until_idle()
        assert [e.getPersonName() for e in remote_got] == ["after"]

    def test_restart_shard_lossy_fabric_eventually_delivers(self, tmp_path,
                                                            opened):
        """Acceptance: recovery holds on a lossy fabric — unacked events
        survive crashes and repeated replay converges on full delivery."""
        network, mesh, publisher = make_durable_world(opened, 
            tmp_path, shards=2, drop_rate=0.15, seed=23, max_retries=20)
        home = mesh.shard_for("publisher")
        got = []
        durable = TpsPeer("d-sub", network, max_retries=20)
        durable.subscribe_durable_remote(home, person_java(), got.append,
                                         cursor="d-c")
        wanted = {"l%d" % i for i in range(6)}
        # Publish on the retrying synchronous path: durability begins at
        # the shard's append, so getting INTO the log must not race drops.
        for index in range(6):
            publisher.publish(
                home, publisher.new_instance("demo.a.Person", ["l%d" % index]))
        assert mesh.shard(home).event_log.record_count == 6
        mesh.flush()  # deliveries and acks now race the loss model
        mesh.restart_shard(home)
        mesh.run_until_idle()

        # Replay is at-least-once per restart: a dropped replay batch is
        # simply unacked, so another restart replays it again.
        for _ in range(10):
            if {e.getPersonName() for e in got} == wanted:
                break
            mesh.restart_shard(home)
            mesh.run_until_idle()
        assert {e.getPersonName() for e in got} == wanted
        assert network.stats.dropped > 0  # the fabric really was lossy

    def test_mesh_without_log_root_rejects_durable_subscribe(self, tmp_path):
        network = SimulatedNetwork()
        mesh = BrokerMesh(network, topology=Topology.sized(2))  # no log_root
        peer = TpsPeer("p", network)
        from repro.net.network import NetworkError
        with pytest.raises(NetworkError):
            peer.subscribe_durable_remote(mesh.shard_ids[0], person_java(),
                                          lambda v: None, cursor="c")

    def test_stats_surface_durability_counters(self, tmp_path, opened):
        network, mesh, publisher = make_durable_world(opened, tmp_path)
        home = mesh.shard_for("publisher")
        publisher.publish_async(
            home, publisher.new_instance("demo.a.Person", ["s0"]))
        mesh.run_until_idle()
        got = []
        late = TpsPeer("late", network)
        late.subscribe_durable_remote(home, person_java(), got.append,
                                      cursor="late-c")
        mesh.run_until_idle()
        snapshot = mesh.stats()
        assert snapshot["events_replayed"] == 1
        shard_stats = snapshot["shards"][home]
        assert shard_stats["log"]["records"] >= 1
        assert shard_stats["cursors"]["late-c"] == \
            mesh.shard(home).event_log.next_offset
        assert shard_stats["pending_acks"] == 0


class TestRunUntilIdleBoundary:
    sockets = False

    def stall_counts(self, network, mesh):
        return [network.stats.stalled]

    def test_final_round_draining_is_not_a_stall(self):
        """A drain whose last allowed round leaves the mesh idle must
        return normally, not report a phantom stall."""
        network, mesh, publisher, subscribers, events = make_world(
            shards=2, n_subscribers=2, sockets=self.sockets)
        try:
            # Every round reports work, so the drain spends its whole
            # budget whatever the fabric's timing; the budget is ample,
            # so the mesh is idle when it runs out.
            real_flush = mesh.flush
            mesh.flush = lambda: real_flush() + 1
            publisher.publish_async(
                mesh.shard_for("publisher"),
                publisher.new_instance("demo.a.Person", ["edge"]))
            assert mesh.run_until_idle(max_rounds=200) >= 200
            assert all(len(got) == 1 for got in events.values())
            assert set(self.stall_counts(network, mesh)) == {0}
        finally:
            mesh.close()

    def test_exhausted_budget_is_a_recorded_stall(self):
        """A drain that runs out of rounds with work left raises with
        the queue depths and counts a stall on the fabric."""
        network, mesh, publisher, subscribers, events = make_world(
            shards=2, n_subscribers=2, sockets=self.sockets)
        try:
            publisher.publish_async(
                mesh.shard_for("publisher"),
                publisher.new_instance("demo.a.Person", ["stuck"]))
            with pytest.raises(NetworkError, match="deliveries buffered"):
                mesh.run_until_idle(max_rounds=1)
            assert set(self.stall_counts(network, mesh)) == {1}
        finally:
            mesh.close()


class TestRunUntilIdleBoundaryOverSockets(TestRunUntilIdleBoundary):
    """The same drain boundary on the socket fabric, where a stall is
    counted on every hub node."""

    sockets = True

    def stall_counts(self, network, mesh):
        return [node.stats.stalled for node in mesh.hub.nodes]


class TestMultiValueRecordLocalDurable:
    def test_partial_handler_failure_leaves_record_unacked(self, tmp_path,
                                                           opened):
        """Two events forwarded as ONE record: a local durable handler at
        the receiving shard that crashes on the second value must leave
        the WHOLE record unacked, so replay redelivers both values."""
        network, mesh, publisher = make_durable_world(opened, tmp_path,
                                                      shards=2)
        home = mesh.shard_for("publisher")
        other = next(sid for sid in mesh.shard_ids if sid != home)

        got = []

        def flaky(view):
            got.append(view.getPersonName())
            if view.getPersonName() == "v1" and got.count("v1") == 1:
                raise RuntimeError("crash on second value, first time")

        mesh.shard(other).subscribe_durable(person_java(), flaky,
                                            cursor="flaky-c")
        # Publish both events as ONE durable batch: it is logged as ONE
        # record at `home`, crosses the shard boundary as ONE forwarded
        # frame, and lands as ONE log record at `other`.
        publisher.publish_durable(
            home, [publisher.new_instance("demo.a.Person", ["v0"]),
                   publisher.new_instance("demo.a.Person", ["v1"])])
        mesh.run_until_idle()
        shard = mesh.shard(other)
        assert got == ["v0", "v1"]  # v1's handler crashed after being called
        assert shard.event_log.record_count == 1  # really one record
        # The record is NOT acked past: v1 is redeliverable.
        assert shard.cursors.get("flaky-c") < shard.event_log.next_offset

        # Re-attach under the same cursor: the record replays whole, the
        # handler succeeds this time, and the cursor catches up.
        redelivered = []
        shard.subscribe_durable(person_java(), redelivered.append,
                                cursor="flaky-c")
        mesh.run_until_idle()
        assert [v.getPersonName() for v in redelivered] == ["v0", "v1"]
        assert shard.cursors.get("flaky-c") == shard.event_log.next_offset
