"""Key-aware log compaction, retention floor, fsync group-commit.

Compaction rewrites closed segments keeping only the latest record per
(type fingerprint, entity key) — a long-retention log then holds the
latest state per entity instead of raw history.  The invariants under
test: latest-state replay equivalence, idempotence, the slowest-cursor
bound, and survival of reopen/recovery over the holes compaction leaves.
"""

import os

from repro.apps.tps import TpsBroker, TpsPeer
from repro.cli import main as cli_main
from repro.fixtures import person_assembly_pair, person_java
from repro.net.network import SimulatedNetwork
from repro.persistence import CursorStore, EventLog
from repro.serialization.envelope import envelope_record_keys


def make_world(tmp_path, **log_kwargs):
    network = SimulatedNetwork()
    log_kwargs.setdefault("segment_max_bytes", 2000)
    broker = TpsBroker("broker", network, log_dir=str(tmp_path / "broker"),
                       log_kwargs=log_kwargs)
    publisher = TpsPeer("pub", network)
    asm_a, _ = person_assembly_pair()
    publisher.host_assembly(asm_a)
    return network, broker, publisher


def overwrite_heavy(publisher, rounds=20, keys=3):
    """Publish rounds × keys events where only the key field matters —
    Person's key field is ``name``, so round N overwrites round N-1."""
    for _ in range(rounds):
        for key in range(keys):
            publisher.publish(
                "broker",
                publisher.new_instance("demo.a.Person", ["key-%d" % key]))


def latest_state(log):
    """key -> (offset, payload keys) fold over a full replay."""
    latest = {}
    for record in log.replay():
        for key in envelope_record_keys(record.payload) or ():
            if key is not None:
                latest[key] = record.offset
    return latest


class TestBrokerCompaction:
    def test_latest_state_survives_history_drops(self, tmp_path):
        network, broker, publisher = make_world(tmp_path)
        overwrite_heavy(publisher)
        before_state = latest_state(broker.event_log)
        before_bytes = broker.event_log.size_bytes
        summary = broker.compact_log()
        assert summary["dropped_records"] > 0
        assert latest_state(broker.event_log) == before_state
        assert broker.event_log.size_bytes < before_bytes / 3
        # Idempotent: nothing left to drop.
        assert broker.compact_log()["dropped_records"] == 0
        broker.close()

    def test_active_segment_is_never_rewritten(self, tmp_path):
        network, broker, publisher = make_world(
            tmp_path, segment_max_bytes=1 << 20)
        overwrite_heavy(publisher, rounds=5)
        # Everything lives in the single active segment: untouchable.
        assert broker.compact_log()["dropped_records"] == 0
        assert broker.event_log.record_count == 15
        broker.close()

    def test_never_crosses_slowest_cursor(self, tmp_path):
        network, broker, publisher = make_world(tmp_path)
        got = []
        subscriber = TpsPeer("sub", network)
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            got.append, cursor="slow")
        network.run_until_idle()
        subscriber.close()  # goes offline: everything below stays unacked
        cursor = broker.cursors.get("slow")
        overwrite_heavy(publisher)
        summary = broker.compact_log()
        assert summary["bound"] <= cursor
        # Every unacked record is still replayable, stale keys included.
        offsets = [record.offset for record in broker.event_log.replay()]
        assert [o for o in offsets if o >= cursor] == \
            list(range(cursor, broker.event_log.next_offset))
        broker.close()

    def test_reopen_and_replay_over_holes(self, tmp_path):
        """Recovery's monotonic-offset scan accepts compaction holes, and
        a late durable subscriber replays exactly the surviving records."""
        network, broker, publisher = make_world(tmp_path)
        overwrite_heavy(publisher)
        broker.compact_log()
        surviving = [record.offset for record in broker.event_log.replay()]
        broker.close()

        revived = TpsBroker("broker", network,
                            log_dir=str(tmp_path / "broker"),
                            log_kwargs={"segment_max_bytes": 2000})
        assert revived.event_log.torn_tail_truncations == 0
        assert [r.offset for r in revived.event_log.replay()] == surviving
        got = []
        late = TpsPeer("late", network)
        late.subscribe_durable_remote("broker", person_java(), got.append,
                                      cursor="late-c")
        network.run_until_idle()
        assert len(got) == len(surviving)
        assert sorted({v.getPersonName() for v in got}) == \
            ["key-0", "key-1", "key-2"]
        revived.close()


class TestEventLogCompactionEdges:
    def test_unkeyed_records_are_retained(self, tmp_path):
        log = EventLog(str(tmp_path), segment_max_bytes=120)
        for index in range(8):
            log.append(b"opaque-%d" % index, origin="pub")  # no envelope
        assert log.compact()["dropped_records"] == 0
        assert log.record_count == 8
        log.close()

    def test_custom_key_of(self, tmp_path):
        log = EventLog(str(tmp_path), segment_max_bytes=80)

        def key_of(record):
            return [record.payload.decode().split("=")[0]]

        for index in range(9):
            log.append(b"k%d=%d" % (index % 2, index), origin="pub")
        summary = log.compact(key_of=key_of)
        assert summary["dropped_records"] > 0
        payloads = [record.payload for record in log.replay()]
        # Latest value of each key survives; k0's latest is offset 8
        # (active segment), k1's is offset 7.
        assert b"k1=7" in payloads and b"k0=8" in payloads
        assert b"k0=0" not in payloads
        log.close()

    def test_emptied_segment_is_removed(self, tmp_path):
        log = EventLog(str(tmp_path), segment_max_bytes=60)

        def key_of(record):
            return ["only-key"]

        for index in range(6):
            log.append(b"v%d" % index, origin="pub")
        segments_before = len([name for name in os.listdir(str(tmp_path))
                               if name.endswith(".seg")])
        summary = log.compact(key_of=key_of)
        assert summary["removed_segments"] > 0
        segments_after = len([name for name in os.listdir(str(tmp_path))
                              if name.endswith(".seg")])
        assert segments_after < segments_before
        reopened_offsets = [record.offset for record in log.replay()]
        log.close()
        recovered = EventLog(str(tmp_path), segment_max_bytes=60)
        assert [r.offset for r in recovered.replay()] == reopened_offsets
        recovered.close()


class TestRetentionFloor:
    def fill(self, log, count):
        for index in range(count):
            log.append(b"x" * 40, origin="pub")

    def test_floor_pins_segments(self, tmp_path):
        log = EventLog(str(tmp_path), segment_max_bytes=120, max_segments=2)
        log.set_retention_floor(0)
        self.fill(log, 12)
        assert log.first_offset == 0  # nothing dropped: all pinned
        assert log.retention_pinned > 0
        log.set_retention_floor(None)
        self.fill(log, 1)  # retention re-evaluates on the next append
        assert log.first_offset > 0
        log.close()

    def test_retain_unacked_broker_gates_retention_until_prune(self, tmp_path):
        network = SimulatedNetwork()
        broker = TpsBroker("broker", network,
                           log_dir=str(tmp_path / "broker"),
                           log_kwargs={"segment_max_bytes": 600,
                                       "max_segments": 2},
                           retain_unacked=True)
        publisher = TpsPeer("pub", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        gone = TpsPeer("gone", network)
        gone.subscribe_durable_remote("broker", person_java(),
                                      lambda v: None, cursor="gone-c")
        network.run_until_idle()
        gone.close()
        for index in range(30):
            publisher.publish("broker",
                              publisher.new_instance("demo.a.Person",
                                                     ["r%d" % index]))
        # The abandoned cursor pinned everything it has not acked.
        assert broker.event_log.first_offset == broker.cursors.get("gone-c")
        assert broker.retention_lost_records == 0
        # Pruning the dead cursor releases the pin (its last_active is the
        # current incarnation, so it takes an idle threshold of 0 -> use
        # a fresh incarnation by reopening the broker).
        broker.close()
        revived = TpsBroker("broker", network,
                            log_dir=str(tmp_path / "broker"),
                            log_kwargs={"segment_max_bytes": 600,
                                        "max_segments": 2},
                            retain_unacked=True)
        assert revived.prune_cursors(max_idle_incarnations=1) == ["gone-c"]
        publisher.publish("broker",
                          publisher.new_instance("demo.a.Person", ["after"]))
        assert revived.event_log.first_offset > 0  # retention caught up
        revived.close()

    def test_recovery_does_not_defeat_prune(self, tmp_path):
        """Crash-recovery mechanically re-registers every persisted
        remote cursor; that must NOT count as the subscriber returning,
        or an abandoned cursor could never be pruned on a broker that
        restarts (and would pin the retention floor forever)."""
        network = SimulatedNetwork()
        broker = TpsBroker("broker", network,
                           log_dir=str(tmp_path / "broker"))
        gone = TpsPeer("gone", network)
        gone.subscribe_durable_remote("broker", person_java(),
                                      lambda v: None, cursor="gone-c")
        network.run_until_idle()
        gone.close()  # the subscriber never returns
        for _ in range(3):
            broker.close()
            broker = TpsBroker("broker", network,
                               log_dir=str(tmp_path / "broker"))
            assert [s.cursor_name
                    for s in broker.recover_durable_subscriptions()] \
                == ["gone-c"]
        assert broker.prune_cursors(max_idle_incarnations=3) == ["gone-c"]
        broker.close()

    def test_compact_on_retention_reclaims_when_pinned(self, tmp_path):
        log = EventLog(str(tmp_path), segment_max_bytes=80, max_bytes=200,
                       compact_on_retention=True)
        log.set_retention_floor(0)  # everything pinned

        import repro.persistence.log as log_module
        original = log_module._RETENTION_COMPACT_INTERVAL
        log_module._RETENTION_COMPACT_INTERVAL = 4
        try:
            # Unkeyed payloads: compaction keeps them all, but the pass runs.
            for index in range(12):
                log.append(b"y" * 40, origin="pub")
        finally:
            log_module._RETENTION_COMPACT_INTERVAL = original
        assert log.retention_pinned > 0
        assert log.compactions > 0
        assert log.first_offset == 0  # pinned records all survived
        log.close()


class TestFsyncGroupCommit:
    def test_fsync_every_n(self, tmp_path):
        log = EventLog(str(tmp_path), fsync_every_n=4)
        for index in range(10):
            log.append(b"r%d" % index, origin="pub")
        assert log.fsyncs == 2  # records 4 and 8
        log.close()  # the tail (2 unsynced records) syncs at close
        assert log.fsyncs == 3

    def test_fsync_interval(self, tmp_path):
        log = EventLog(str(tmp_path), fsync_interval_ms=0.0)
        for index in range(3):
            log.append(b"r%d" % index, origin="pub")
        assert log.fsyncs == 3  # a zero interval is always due
        log.close()

    def test_no_policy_means_no_fsync(self, tmp_path):
        log = EventLog(str(tmp_path))
        log.append(b"r", origin="pub")
        log.close()
        assert log.fsyncs == 0

    def test_sync_is_an_explicit_barrier(self, tmp_path):
        log = EventLog(str(tmp_path), fsync_every_n=100)
        log.append(b"r", origin="pub")
        assert log.fsyncs == 0
        log.sync()
        assert log.fsyncs == 1
        log.sync()  # nothing unsynced: a no-op
        assert log.fsyncs == 1
        log.close()


class TestCompactCli:
    def run_cli(self, argv):
        import io
        out = io.StringIO()
        code = cli_main(argv, out=out)
        return code, out.getvalue()

    def test_compact_command_is_cursor_bounded(self, tmp_path):
        network, broker, publisher = make_world(tmp_path)
        got = []
        subscriber = TpsPeer("sub", network)
        subscriber.subscribe_durable_remote("broker", person_java(),
                                            got.append, cursor="sub-c")
        network.run_until_idle()
        # Acked history below the cursor is compactable...
        overwrite_heavy(publisher, rounds=10)
        network.run_until_idle()
        subscriber.close()
        cursor = broker.cursors.get("sub-c")
        assert cursor > 0
        # ...while everything published after the subscriber left is not.
        overwrite_heavy(publisher, rounds=10)
        records_before = broker.event_log.record_count
        broker.close()

        code, output = self.run_cli(["log", "compact",
                                     str(tmp_path / "broker")])
        assert code == 0
        assert "reclaimed" in output
        assert "slowest cursor %d" % cursor in output

        reopened = EventLog(str(tmp_path / "broker" / "events"),
                            segment_max_bytes=2000)
        assert reopened.record_count < records_before
        offsets = [record.offset for record in reopened.replay()]
        assert [o for o in offsets if o >= cursor] == \
            list(range(cursor, reopened.next_offset))
        reopened.close()

    def test_compact_is_bounded_by_local_cursors_only(self, tmp_path):
        """A fetch cursor holds an offset in a sibling shard's space: it
        must not bound this log's compaction (the broker's rule,
        ``CursorStore.min_offset``)."""
        with EventLog(str(tmp_path / "broker" / "events")) as log:
            for index in range(60):
                log.append(b"r%d" % index, origin="pub")
        with CursorStore(str(tmp_path / "broker" / "cursors.json")) as store:
            store.register("c", peer_id="p")
            store.advance("c", 50)
            store.register("c@mesh-shard9", peer_id="p",
                           origin="mesh-shard9", base="c")
            store.advance("c@mesh-shard9", 3)
        code, output = self.run_cli(["log", "compact",
                                     str(tmp_path / "broker")])
        assert code == 0
        assert "slowest cursor 50" in output

    def test_compact_missing_directory_errors(self):
        code, output = self.run_cli(["log", "compact", "/no/such/dir"])
        assert code == 2
        assert "error:" in output
