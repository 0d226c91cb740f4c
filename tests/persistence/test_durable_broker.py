"""Durable subscriptions on a single TpsBroker: replay, acks, recovery."""

import pytest

from repro.apps.tps import DurableSubscription, TpsBroker, TpsPeer
from repro.cts.assembly import Assembly
from repro.fixtures import (
    account_csharp,
    person_assembly_pair,
    person_java,
    person_vb,
)
from repro.net.network import NetworkError, SimulatedNetwork

def make_world(opened, tmp_path, log=True):
    network = SimulatedNetwork()
    broker = opened(TpsBroker(
        "broker", network, log_dir=str(tmp_path / "broker") if log else None))
    publisher = TpsPeer("pub", network)
    asm_a, _ = person_assembly_pair()
    publisher.host_assembly(asm_a)
    return network, broker, publisher


def publish(publisher, names):
    for name in names:
        publisher.publish("broker",
                          publisher.new_instance("demo.a.Person", [name]))


class TestLocalDurable:
    def test_backlog_then_live_in_order_no_duplicates(self, tmp_path, opened):
        """Acceptance: a late subscriber receives exactly the conforming
        backlog in publish order, then live events, no duplicates."""
        network, broker, publisher = make_world(opened, tmp_path)
        publish(publisher, ["e0", "e1", "e2"])

        got = []
        broker.subscribe_durable(person_java(), got.append, cursor="late")
        assert [v.getPersonName() for v in got] == ["e0", "e1", "e2"]

        publish(publisher, ["e3"])
        assert [v.getPersonName() for v in got] == ["e0", "e1", "e2", "e3"]
        assert broker.cursors.get("late") == broker.event_log.next_offset

    def test_replay_honors_conformance(self, tmp_path, opened):
        """Non-conforming backlog records are skipped by the same routing
        check live publish uses — and still advance the cursor."""
        network, broker, publisher = make_world(opened, tmp_path)
        publisher.host_assembly(Assembly("bank", [account_csharp()]))
        publish(publisher, ["keep-1"])
        publisher.publish("broker",
                          publisher.new_instance("demo.bank.Account", ["o", 1]))
        publish(publisher, ["keep-2"])

        got = []
        broker.subscribe_durable(person_java(), got.append, cursor="picky")
        assert [v.getPersonName() for v in got] == ["keep-1", "keep-2"]
        assert broker.cursors.get("picky") == broker.event_log.next_offset

    def test_resume_from_cursor_skips_acked(self, tmp_path, opened):
        network, broker, publisher = make_world(opened, tmp_path)
        publish(publisher, ["a", "b"])
        first = []
        broker.subscribe_durable(person_java(), first.append, cursor="resume")
        broker.index.remove(
            next(s for s in broker.index.subscriptions()
                 if isinstance(s, DurableSubscription)).subscription_id)
        publish(publisher, ["c"])

        second = []
        broker.subscribe_durable(person_java(), second.append, cursor="resume")
        assert [v.getPersonName() for v in second] == ["c"]

    def test_requires_log(self, tmp_path, opened):
        network, broker, publisher = make_world(opened, tmp_path, log=False)
        with pytest.raises(NetworkError):
            broker.subscribe_durable(person_java(), lambda v: None, cursor="x")

    def test_requires_cursor_name(self, tmp_path, opened):
        network, broker, publisher = make_world(opened, tmp_path)
        with pytest.raises(ValueError):
            broker.subscribe_durable(person_java(), lambda v: None, cursor="")

    def test_same_cursor_replaces_subscription(self, tmp_path, opened):
        """Re-subscribing under one cursor name must not double-deliver."""
        network, broker, publisher = make_world(opened, tmp_path)
        first, second = [], []
        broker.subscribe_durable(person_java(), first.append, cursor="same")
        broker.subscribe_durable(person_vb(), second.append, cursor="same")
        publish(publisher, ["once"])
        assert first == []
        assert [v.GetName() for v in second] == ["once"]


class TestRemoteDurable:
    def test_backlog_replay_through_scheduler(self, tmp_path, opened):
        network, broker, publisher = make_world(opened, tmp_path)
        publish(publisher, ["r0", "r1"])

        got = []
        subscriber = TpsPeer("sub", network)
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            got.append, cursor="sub-c")
        # Queue-driven: nothing is delivered inside the subscribe call.
        assert got == []
        network.run_until_idle()
        assert [v.getPersonName() for v in got] == ["r0", "r1"]
        # Replay is real, accounted network traffic — and coalesced:
        # same-origin records pool into ONE batch with ONE cumulative ack.
        assert network.stats.by_kind_messages.get("object_batch", 0) == 1
        assert network.stats.by_kind_messages.get("delivery_ack", 0) == 1
        assert broker.cursors.get("sub-c") == broker.event_log.next_offset
        assert broker.pending_ack_count() == 0

    def test_live_durable_delivery_acks_cursor(self, tmp_path, opened):
        network, broker, publisher = make_world(opened, tmp_path)
        got = []
        subscriber = TpsPeer("sub", network)
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            got.append, cursor="sub-c")
        network.run_until_idle()
        publish(publisher, ["live-1", "live-2"])
        network.run_until_idle()
        assert [v.getPersonName() for v in got] == ["live-1", "live-2"]
        assert broker.cursors.get("sub-c") == broker.event_log.next_offset

    def test_live_durable_ack_path_never_rerenders(self, tmp_path, opened):
        """The acceptance gate end to end: across live durable
        deliveries the broker renders each record's header exactly once
        (admission canonicalises the stored frame) — the per-subscriber
        ack stamp is a header splice, never an XML re-render."""
        network, broker, publisher = make_world(opened, tmp_path)
        got = []
        subscriber = TpsPeer("sub", network)
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            got.append, cursor="sub-c")
        network.run_until_idle()
        stats = broker.codec.stats
        stats.header_renders = 0
        stats.header_splices = 0
        publish(publisher, ["live-%d" % i for i in range(4)])
        network.run_until_idle()
        assert [v.getPersonName() for v in got] == \
            ["live-%d" % i for i in range(4)]
        # One render per publish — admission only — and one ack splice
        # per durable live delivery.  Nothing else touched the XML.
        assert stats.header_renders == 4
        assert stats.header_splices == 4

    def test_no_duplicates_across_replay_live_boundary(self, tmp_path, opened):
        """Acceptance: backlog + live with no duplicate across the ack
        boundary, events in publish order."""
        network, broker, publisher = make_world(opened, tmp_path)
        publish(publisher, ["b%d" % i for i in range(5)])
        got = []
        subscriber = TpsPeer("sub", network)
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            got.append, cursor="sub-c")
        publish(publisher, ["b5", "b6"])  # live, while replay is queued
        network.run_until_idle()
        assert [v.getPersonName() for v in got] == ["b%d" % i for i in range(7)]

    def test_publisher_not_echoed_in_replay(self, tmp_path, opened):
        """A publisher durable-subscribing never replays its own events."""
        network, broker, publisher = make_world(opened, tmp_path)
        publish(publisher, ["mine"])
        got = []
        publisher.declare_interest(person_java())
        publisher.subscribe_durable_remote("broker", person_java(),
                                           got.append, cursor="pub-c")
        network.run_until_idle()
        assert got == []


class TestBrokerRestart:
    def test_restart_redelivers_unacked_only(self, tmp_path, opened):
        network, broker, publisher = make_world(opened, tmp_path)
        got = []
        subscriber = TpsPeer("sub", network)
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            got.append, cursor="sub-c")
        publish(publisher, ["a0", "a1"])
        network.run_until_idle()  # delivered AND acked
        assert len(got) == 2

        publish(publisher, ["a2"])  # logged + sent, but ack never drains:
        broker.close()              # broker crashes with the ack in flight

        revived = opened(TpsBroker("broker", network,
                                   log_dir=str(tmp_path / "broker")))
        restored = revived.recover_durable_subscriptions()
        assert [s.cursor_name for s in restored] == ["sub-c"]
        network.run_until_idle()

        names = [v.getPersonName() for v in got]
        # Acked-past events arrive exactly once; the unacked one at least once.
        assert names.count("a0") == 1
        assert names.count("a1") == 1
        assert names.count("a2") >= 1

    def test_restart_with_torn_log_tail(self, tmp_path, opened):
        """A torn final record (crash mid-append) never blocks recovery:
        every record before the tear replays, the tear itself is cut, and
        the revived log appends where the tear was."""
        import os
        network, broker, publisher = make_world(opened, tmp_path)
        got = []
        subscriber = TpsPeer("sub", network)
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            got.append, cursor="sub-c")
        publish(publisher, ["t0", "t1"])
        broker.close()  # crash with both deliveries and acks in flight

        events_dir = str(tmp_path / "broker" / "events")
        segment = sorted(name for name in os.listdir(events_dir)
                         if name.endswith(".seg"))[-1]
        path = os.path.join(events_dir, segment)
        with open(path, "r+b") as handle:
            handle.seek(0, 2)
            handle.truncate(handle.tell() - 7)  # tear t1's record

        revived = opened(TpsBroker("broker", network,
                                   log_dir=str(tmp_path / "broker")))
        assert revived.event_log.torn_tail_truncations == 1
        assert revived.event_log.next_offset == 1  # t0 survived, t1 cut
        revived.recover_durable_subscriptions()
        network.run_until_idle()

        names = [v.getPersonName() for v in got]
        # t0 was replayed (nothing acked before the crash); the old
        # incarnation's in-flight deliveries may add one more copy of
        # each event, but the torn record is never replayed.
        assert names.count("t0") >= 1
        assert names.count("t1") <= 1  # only ever from the in-flight queue
        # The revived log appends exactly where the tear was cut.
        publish(publisher, ["t2"])
        assert revived.event_log.next_offset == 2
        network.run_until_idle()
        assert [v.getPersonName() for v in got].count("t2") == 1


class TestCursorProgressPastSkippedRecords:
    def test_nonconforming_tail_does_not_rescan_forever(self, tmp_path,
                                                        opened):
        """A remote durable cursor is never pinned below a tail of
        non-conforming records: trailing skips ride the open batch's
        cumulative ack, so ONE pass reaches the log end."""
        network, broker, publisher = make_world(opened, tmp_path)
        publisher.host_assembly(Assembly("bank", [account_csharp()]))
        publish(publisher, ["p0", "p1"])
        for _ in range(3):  # non-conforming tail
            publisher.publish("broker",
                              publisher.new_instance("demo.bank.Account",
                                                     ["o", 1]))
        got = []
        subscriber = TpsPeer("sub", network)
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            got.append, cursor="sub-c")
        network.run_until_idle()
        assert [v.getPersonName() for v in got] == ["p0", "p1"]
        assert broker.cursors.get("sub-c") == broker.event_log.next_offset
        # A reconnect (same peer) replays nothing: no O(tail) re-scan.
        network.reset_accounting()
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            lambda v: None, cursor="sub-c")
        network.run_until_idle()
        assert network.stats.by_kind_messages.get("object_batch", 0) == 0

    def test_own_events_do_not_pin_cursor(self, tmp_path, opened):
        """A publisher durable-subscribing skips its own backlog without
        leaving the cursor stuck below it."""
        network, broker, publisher = make_world(opened, tmp_path)
        publish(publisher, ["mine-0", "mine-1"])
        publisher.declare_interest(person_java())
        publisher.subscribe_durable_remote("broker", person_java(),
                                           lambda v: None, cursor="pub-c")
        network.run_until_idle()
        assert broker.cursors.get("pub-c") == broker.event_log.next_offset

    def test_skipped_run_advances_cursor_once(self, tmp_path, opened):
        """A run of skipped records moves the cursor in one advance (one
        cursor-file write), not one per record: a membership handoff
        replays whole logs of already-seen records this way."""
        network, broker, publisher = make_world(opened, tmp_path)
        publish(publisher, ["mine-%d" % i for i in range(40)])
        publisher.declare_interest(person_java())
        before = broker.cursors.advances
        publisher.subscribe_durable_remote("broker", person_java(),
                                           lambda v: None, cursor="pub-c")
        network.run_until_idle()
        assert broker.cursors.get("pub-c") == broker.event_log.next_offset
        assert broker.cursors.advances - before == 1


class TestPendingAckBound:
    def test_pending_ack_table_is_bounded(self, tmp_path, monkeypatch, opened):
        """Orphaned tokens (dropped batches/acks) cannot grow without
        bound: the oldest is evicted once the cap is reached."""
        import repro.apps.tps.broker as broker_module
        monkeypatch.setattr(broker_module, "_MAX_PENDING_ACKS", 5)
        network, broker, publisher = make_world(opened, tmp_path)
        subscriber = TpsPeer("sub", network)
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            lambda v: None, cursor="sub-c")
        network.run_until_idle()
        for index in range(20):
            publish(publisher, ["x%d" % index])
            # Drop everything queued (batch + ack) before it travels.
            network._queues.clear()
        assert broker.pending_ack_count() <= 5
        assert len(broker._pending_by_cursor.get("sub-c", [])) <= 5


class TestFanOutIsolation:
    def test_offline_durable_subscriber_does_not_abort_fanout(self, tmp_path,
                                                              opened):
        """A durable subscriber that left the fabric must not break live
        delivery to everyone else — its records stay unacked for replay."""
        network, broker, publisher = make_world(opened, tmp_path)
        gone = TpsPeer("gone", network)
        gone.subscribe_durable_remote("broker", person_java(),
                                      lambda v: None, cursor="gone-c")
        network.run_until_idle()
        still = []
        survivor = TpsPeer("survivor", network)
        survivor.subscribe_remote("broker", person_java(), still.append)
        gone.close()  # offline durable subscriber

        publish(publisher, ["after-gone"])
        network.run_until_idle()
        assert [v.getPersonName() for v in still] == ["after-gone"]
        # The offline subscriber's record is unacked, not leaked.
        assert broker.pending_ack_count() == 0
        assert broker.cursors.get("gone-c") < broker.event_log.next_offset

    def test_raising_local_handler_does_not_abort_fanout(self, tmp_path,
                                                         opened):
        """One broken in-process handler neither stops other deliveries
        nor acks the event it crashed on."""
        network, broker, publisher = make_world(opened, tmp_path)

        def broken(view):
            raise RuntimeError("boom")

        broker.subscribe_durable(person_java(), broken, cursor="broken-c")
        good = []
        broker.subscribe_durable(person_vb(), good.append, cursor="good-c")

        publish(publisher, ["survives"])
        assert [v.GetName() for v in good] == ["survives"]
        assert broker.delivery_failures == 1
        # The crashed-on event is NOT acked for the broken handler...
        assert broker.cursors.get("broken-c") < broker.event_log.next_offset
        # ...and a later replay under the same cursor redelivers it.
        fixed = []
        broker.subscribe_durable(person_java(), fixed.append, cursor="broken-c")
        assert [v.getPersonName() for v in fixed] == ["survives"]
        assert broker.cursors.get("broken-c") == broker.event_log.next_offset

    def test_raising_handler_on_mesh_shard_keeps_forwarding(self, tmp_path,
                                                            opened):
        """Mesh variant: an exploding local handler on the home shard must
        not swallow cross-shard forwards."""
        from repro.apps.tps import BrokerMesh
        from repro.apps.tps.topology import Topology
        network = SimulatedNetwork()
        mesh = opened(BrokerMesh(network, topology=Topology.sized(2),
                                 log_root=str(tmp_path / "mesh")))
        publisher = TpsPeer("publisher", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        home = mesh.shard_for("publisher")
        other = next(sid for sid in mesh.shard_ids if sid != home)

        def broken(view):
            raise RuntimeError("boom")

        mesh.shard(home).subscribe_durable(person_java(), broken,
                                           cursor="broken-c")
        remote_got = []
        remote = TpsPeer("remote-sub", network)
        remote.subscribe_remote(other, person_java(), remote_got.append)

        publisher.publish_async(
            home, publisher.new_instance("demo.a.Person", ["forwarded"]))
        mesh.run_until_idle()
        assert [v.getPersonName() for v in remote_got] == ["forwarded"]
        assert mesh.shard(home).delivery_failures == 1


class TestCumulativeAckSafety:
    def test_handler_failure_pins_cursor_below_failed_event(self, tmp_path,
                                                            opened):
        """A later successful delivery must not cumulatively ack an event
        whose handler crashed: the cursor stays pinned until a replay
        redelivers the failed event successfully."""
        network, broker, publisher = make_world(opened, tmp_path)
        calls = []

        def flaky(view):
            calls.append(view.getPersonName())
            if view.getPersonName() == "bad" and calls.count("bad") == 1:
                raise RuntimeError("first delivery fails")

        broker.subscribe_durable(person_java(), flaky, cursor="flaky-c")
        publish(publisher, ["bad", "fine"])
        # "fine" was handled, but the cursor must not pass "bad".
        assert broker.cursors.get("flaky-c") == 0

        # Re-attach under the same cursor: replay redelivers from "bad";
        # this time it succeeds and the cursor catches up.
        redelivered = []
        broker.subscribe_durable(person_java(),
                                 lambda v: redelivered.append(
                                     v.getPersonName()),
                                 cursor="flaky-c")
        assert redelivered == ["bad", "fine"]
        assert broker.cursors.get("flaky-c") == broker.event_log.next_offset

    def test_materialization_failure_halts_replay_pass(self, tmp_path, opened):
        """A record whose origin cannot serve code anymore stops the pass
        instead of letting later acks skip it."""
        network, broker, publisher = make_world(opened, tmp_path)
        publish(publisher, ["m0", "m1"])
        publisher.close()  # origin gone: a fresh broker cannot fetch code
        broker.close()

        revived = opened(TpsBroker("broker", network,
                                   log_dir=str(tmp_path / "broker")))
        got = []
        subscriber = TpsPeer("sub", network)
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            got.append, cursor="sub-c")
        network.run_until_idle()
        assert got == []
        assert revived.replay_failures == 1  # halted at the first record
        assert revived.cursors.get("sub-c") == 0  # nothing skipped


class TestRetentionPlumbing:
    def test_log_kwargs_reach_the_event_log(self, tmp_path, opened):
        network = SimulatedNetwork()
        broker = opened(TpsBroker("broker", network,
                                  log_dir=str(tmp_path / "broker"),
                                  log_kwargs={"segment_max_bytes": 4096,
                                              "max_segments": 2}))
        assert broker.event_log.segment_max_bytes == 4096
        assert broker.event_log.max_segments == 2


class TestCursorLifecycleAndOwnership:
    def test_unsubscribe_retires_cursor(self, tmp_path, opened):
        """A cancelled durable subscription must not be resurrected by a
        broker restart."""
        network, broker, publisher = make_world(opened, tmp_path)
        got = []
        subscriber = TpsPeer("sub", network)
        sid = subscriber.subscribe_durable_remote("broker", person_java(),
                                                  got.append, cursor="sub-c")
        network.run_until_idle()
        subscriber.unsubscribe_remote("broker", sid)
        assert "sub-c" not in broker.cursors

        publish(publisher, ["while-gone"])
        broker.close()
        revived = opened(TpsBroker("broker", network,
                                   log_dir=str(tmp_path / "broker")))
        assert revived.recover_durable_subscriptions() == []
        network.run_until_idle()
        assert got == []  # nothing delivered to the cancelled subscription

    def test_cursor_cannot_be_taken_over_by_another_peer(self, tmp_path,
                                                         opened):
        """A cursor name is owned by the peer that registered it."""
        network, broker, publisher = make_world(opened, tmp_path)
        got_a = []
        peer_a = TpsPeer("peer-a", network)
        peer_a.subscribe_durable_remote("broker", person_java(),
                                        got_a.append, cursor="shared")
        peer_b = TpsPeer("peer-b", network)
        with pytest.raises(NetworkError, match="belongs to"):
            peer_b.subscribe_durable_remote("broker", person_java(),
                                            lambda v: None, cursor="shared")
        # The rightful owner keeps receiving events.
        publish(publisher, ["still-mine"])
        network.run_until_idle()
        assert [v.getPersonName() for v in got_a] == ["still-mine"]

    def test_persisted_cursor_ownership_survives_restart(self, tmp_path,
                                                         opened):
        network, broker, publisher = make_world(opened, tmp_path)
        peer_a = TpsPeer("peer-a", network)
        peer_a.subscribe_durable_remote("broker", person_java(),
                                        lambda v: None, cursor="mine")
        broker.close()
        revived = opened(TpsBroker("broker", network,
                                   log_dir=str(tmp_path / "broker")))
        intruder = TpsPeer("intruder", network)
        with pytest.raises(NetworkError, match="belongs to"):
            intruder.subscribe_durable_remote("broker", person_java(),
                                              lambda v: None, cursor="mine")


class TestReplayBatching:
    def test_large_backlog_coalesces_into_few_messages(self, tmp_path, opened):
        """An N-record backlog replays in ~N/64 messages, not 2N."""
        network, broker, publisher = make_world(opened, tmp_path)
        n_backlog = 150
        publish(publisher, ["b%d" % i for i in range(n_backlog)])
        network.reset_accounting()

        got = []
        subscriber = TpsPeer("sub", network)
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            got.append, cursor="sub-c")
        network.run_until_idle()
        assert [v.getPersonName() for v in got] == \
            ["b%d" % i for i in range(n_backlog)]
        batches = network.stats.by_kind_messages["object_batch"]
        assert batches == -(-n_backlog // 64)  # ceil(150/64) == 3
        assert network.stats.by_kind_messages["delivery_ack"] == batches
        assert broker.cursors.get("sub-c") == broker.event_log.next_offset

    def test_trailing_nonconforming_records_consumed_by_batch_ack(
            self, tmp_path, opened):
        """Skipped records after deliverable ones ride the open batch's
        cumulative ack — the cursor reaches the log end in ONE pass."""
        network, broker, publisher = make_world(opened, tmp_path)
        publisher.host_assembly(Assembly("bank", [account_csharp()]))
        publish(publisher, ["keep"])
        for _ in range(3):
            publisher.publish("broker",
                              publisher.new_instance("demo.bank.Account",
                                                     ["o", 1]))
        got = []
        subscriber = TpsPeer("sub", network)
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            got.append, cursor="sub-c")
        network.run_until_idle()
        assert [v.getPersonName() for v in got] == ["keep"]
        assert broker.cursors.get("sub-c") == broker.event_log.next_offset


class TestAckWindowOrdering:
    def test_later_ack_does_not_skip_dropped_earlier_batch(self, tmp_path,
                                                           opened):
        """An ack for a later delivery must not advance the cursor past an
        earlier in-flight batch the fabric dropped — its records would
        never be redelivered."""
        network, broker, publisher = make_world(opened, tmp_path)
        got = []
        subscriber = TpsPeer("sub", network)
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            got.append, cursor="sub-c")
        network.run_until_idle()

        # First batch: published, queued toward the subscriber... and
        # dropped (simulated by clearing the queues before the drain).
        publish(publisher, ["lost"])
        network._queues.clear()
        # Second batch: delivered and acked normally.
        publish(publisher, ["kept"])
        network.run_until_idle()

        assert [v.getPersonName() for v in got] == ["kept"]
        # The cursor must still sit below the dropped record...
        assert broker.cursors.get("sub-c") == 0
        # ...so a reconnect replays BOTH events — "lost" finally arrives,
        # "kept" a second time (at-least-once).  The reconnect's handler
        # replaces the old one (no double delivery).
        redelivered = []
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            redelivered.append,
                                            cursor="sub-c")
        network.run_until_idle()
        assert [v.getPersonName() for v in redelivered] == ["lost", "kept"]
        assert [v.getPersonName() for v in got] == ["kept"]  # old handler out
        assert broker.cursors.get("sub-c") == broker.event_log.next_offset

    def test_local_handler_cannot_claim_persisted_remote_cursor(self, tmp_path,
                                                                opened):
        network, broker, publisher = make_world(opened, tmp_path)
        remote = TpsPeer("remote", network)
        remote.subscribe_durable_remote("broker", person_java(),
                                        lambda v: None, cursor="theirs")
        broker.close()
        revived = opened(TpsBroker("broker", network,
                                   log_dir=str(tmp_path / "broker")))
        with pytest.raises(NetworkError, match="belongs to"):
            revived.subscribe_durable(person_java(), lambda v: None,
                                      cursor="theirs")
        # The persisted metadata is intact: recovery still works.
        assert [s.cursor_name
                for s in revived.recover_durable_subscriptions()] == ["theirs"]

    def test_late_ack_after_unsubscribe_leaves_no_zombie_cursor(self, tmp_path,
                                                                opened):
        """An ack still queued when its subscription is cancelled must not
        re-create the removed cursor entry."""
        network, broker, publisher = make_world(opened, tmp_path)
        got = []
        subscriber = TpsPeer("sub", network)
        sid = subscriber.subscribe_durable_remote("broker", person_java(),
                                                  got.append, cursor="sub-c")
        network.run_until_idle()
        publish(publisher, ["ev"])
        network.flush()  # delivered; the ack is now queued, not processed
        subscriber.unsubscribe_remote("broker", sid)
        assert "sub-c" not in broker.cursors
        network.run_until_idle()  # the late ack drains...
        assert "sub-c" not in broker.cursors  # ...and resurrects nothing


class TestReconnectHandlerReplacement:
    def test_reconnect_does_not_double_deliver(self, tmp_path, opened):
        """Re-subscribing under the same cursor swaps the client-side
        handler in the peer's dispatch table — the application handler
        runs once per event, not once per historical subscribe call."""
        network, broker, publisher = make_world(opened, tmp_path)
        first, second = [], []
        subscriber = TpsPeer("sub", network)
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            first.append, cursor="sub-c")
        network.run_until_idle()
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            second.append, cursor="sub-c")
        network.run_until_idle()

        publish(publisher, ["once-only"])
        network.run_until_idle()
        assert [v.getPersonName() for v in second] == ["once-only"]
        assert first == []  # replaced, not stacked


class TestRetentionAndReplayEdges:
    def test_retention_gap_is_counted_not_silent(self, tmp_path, opened):
        """Records dropped by retention below a slow cursor are surfaced
        as retention_lost_records, not silently skipped."""
        network = SimulatedNetwork()
        broker = opened(TpsBroker("broker", network,
                                  log_dir=str(tmp_path / "broker"),
                                  log_kwargs={"segment_max_bytes": 600,
                                              "max_segments": 2}))
        publisher = TpsPeer("pub", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        got = []
        subscriber = TpsPeer("sub", network)
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            got.append, cursor="slow")
        network.run_until_idle()
        subscriber.close()  # goes offline; cursor stays put
        for index in range(30):  # retention drops early segments
            publisher.publish("broker",
                              publisher.new_instance("demo.a.Person",
                                                     ["r%d" % index]))
        assert broker.event_log.first_offset > 0
        broker.index.remove(
            next(s for s in broker.remote_subscriptions()).subscription_id)

        revived_sub = TpsPeer("sub", network)
        revived_sub.subscribe_durable_remote("broker", person_java(),
                                             got.append, cursor="slow")
        network.run_until_idle()
        assert broker.retention_lost_records == broker.event_log.first_offset
        assert broker.stats()["retention_lost_records"] > 0
        # Whatever is still retained was delivered.
        assert len(got) == broker.event_log.record_count

    def test_remote_peer_cannot_claim_detached_local_cursor(self, tmp_path,
                                                            opened):
        network, broker, publisher = make_world(opened, tmp_path)
        broker.subscribe_durable(person_java(), lambda v: None, cursor="app-c")
        broker.index.remove(
            next(s for s in broker.index.subscriptions()
                 if isinstance(s, DurableSubscription)).subscription_id)
        intruder = TpsPeer("intruder", network)
        with pytest.raises(NetworkError, match="local handler"):
            intruder.subscribe_durable_remote("broker", person_java(),
                                              lambda v: None, cursor="app-c")

    def test_handler_publishing_during_replay_survives_retention(
            self, tmp_path, opened):
        """A local durable handler that publishes back through the broker
        can trigger retention mid-replay; replay must skip the dropped
        segment, not crash."""
        network = SimulatedNetwork()
        broker = opened(TpsBroker("broker", network,
                                  log_dir=str(tmp_path / "broker"),
                                  log_kwargs={"segment_max_bytes": 600,
                                              "max_segments": 3}))
        publisher = TpsPeer("pub", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        for index in range(12):
            publisher.publish("broker",
                              publisher.new_instance("demo.a.Person",
                                                     ["seed%d" % index]))
        runtime = broker.runtime

        got = []

        def republish(view):
            got.append(view.getPersonName())
            if len(got) <= 6 and not view.getPersonName().startswith("derived"):
                # Re-entrant publish: appends to the log, may rotate and
                # retention-drop the segment replay is about to read.
                value = runtime.new_instance(
                    "demo.a.Person", ["derived-%d" % len(got)])
                broker.durability.append_payload(
                    broker.codec.encode_batch([value], origin="broker"),
                    "broker")

        broker.subscribe_durable(person_java(), republish, cursor="re-c")
        assert len(got) >= 1  # replay survived whatever retention dropped
        assert broker.cursors.get("re-c") <= broker.event_log.next_offset

    def test_ack_tokens_differ_across_incarnations(self, tmp_path, opened):
        network, broker, publisher = make_world(opened, tmp_path)
        token_a = broker._issue_ack_token("p", (("c", 0, 1),))
        broker.close()
        revived = opened(TpsBroker("broker", network,
                                   log_dir=str(tmp_path / "broker")))
        token_b = revived._issue_ack_token("p", (("c", 0, 1),))
        assert token_a != token_b  # a stale ack can never match a new token


class TestTokenRetirement:
    def test_reconnect_retires_stale_tokens(self, tmp_path, monkeypatch,
                                            opened):
        """A reconnect must retire the old incarnation's tokens entirely —
        cap eviction of a leftover must not re-block the cursor."""
        import repro.apps.tps.broker as broker_module
        network, broker, publisher = make_world(opened, tmp_path)
        got = []
        subscriber = TpsPeer("sub", network)
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            got.append, cursor="c")
        network.run_until_idle()
        # A delivery whose ack is lost leaves a stale token behind.
        publish(publisher, ["stale"])
        network._queues.clear()
        assert broker.pending_ack_count() == 1
        # Reconnect: the stale token is gone, not merely unlinked.
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            got.append, cursor="c")
        assert broker.pending_ack_count() == 1  # only the fresh replay token
        network.run_until_idle()
        assert broker.cursors.get("c") == broker.event_log.next_offset
        # Force evictions: nothing stale remains to re-block the cursor.
        monkeypatch.setattr(broker_module, "_MAX_PENDING_ACKS", 1)
        publish(publisher, ["after-1", "after-2"])
        network.run_until_idle()
        assert broker.cursors.get("c") == broker.event_log.next_offset \
            or broker._cursor_blocks.get("c", 10**9) >= \
            broker.event_log.first_offset
