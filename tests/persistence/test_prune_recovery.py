"""Regression: recovery replay must not count as subscriber activity.

``restart_shard()``/broker recovery re-registers durable cursors
mechanically and replays their backlogs; replay advances cursors past
non-conforming and self-published records nothing is delivered for.
Before the fix, *any* ``CursorStore.advance`` refreshed the idleness
stamp — so a broker that kept restarting (and replication catch-up makes
recovery replays longer) could keep an abandoned subscriber's cursor
alive forever, pinning the retention floor ``prune()`` exists to release.
Only subscriber-driven advances (an echoed ack, a local handler run) may
refresh the stamp.
"""

from repro.apps.tps import TpsBroker, TpsPeer
from repro.cts.assembly import Assembly
from repro.fixtures import account_csharp, person_assembly_pair, person_java
from repro.net.network import SimulatedNetwork
from repro.persistence import CursorStore


def test_mechanical_recovery_advances_do_not_block_prune(tmp_path):
    network = SimulatedNetwork()
    log_dir = str(tmp_path / "broker")
    broker = TpsBroker("broker", network, log_dir=log_dir)
    publisher = TpsPeer("pub", network)
    asm_a, _ = person_assembly_pair()
    publisher.host_assembly(asm_a)
    publisher.host_assembly(Assembly("bank", [account_csharp()]))

    got = []
    subscriber = TpsPeer("sub", network)
    subscriber.subscribe_durable_remote("broker", person_java(), got.append,
                                        cursor="d-c")
    network.run_until_idle()
    subscriber.close()  # the subscriber never returns

    # Non-conforming traffic keeps flowing: logged, never delivered to
    # the abandoned cursor — replay advances it mechanically per restart.
    publisher.publish_async(
        "broker", publisher.new_instance("demo.bank.Account", ["o", 1]))
    network.run_until_idle()
    broker.close()

    for _ in range(3):
        broker = TpsBroker("broker", network, log_dir=log_dir)
        restored = broker.recover_durable_subscriptions()
        assert [s.cursor_name for s in restored] == ["d-c"]
        network.run_until_idle()
        # The mechanical advance really happened (the cursor moved past
        # the non-conforming record)...
        assert broker.cursors.get("d-c") == broker.event_log.next_offset
        publisher.publish_async(
            "broker", publisher.new_instance("demo.bank.Account", ["o", 2]))
        network.run_until_idle()
        broker.close()

    broker = TpsBroker("broker", network, log_dir=log_dir)
    # ...yet it never counted as the subscriber coming back.
    assert broker.prune_cursors(max_idle_incarnations=3) == ["d-c"]
    assert "d-c" not in broker.cursors
    broker.close()


def test_ack_driven_advance_still_counts_as_activity(tmp_path):
    """The counterpart: a subscriber that stays connected and keeps
    acking must never be pruned, however many incarnations pass."""
    network = SimulatedNetwork()
    log_dir = str(tmp_path / "broker")
    broker = TpsBroker("broker", network, log_dir=log_dir)
    publisher = TpsPeer("pub", network)
    asm_a, _ = person_assembly_pair()
    publisher.host_assembly(asm_a)

    got = []
    subscriber = TpsPeer("sub", network)
    subscriber.subscribe_durable_remote("broker", person_java(), got.append,
                                        cursor="live-c")
    network.run_until_idle()
    broker.close()

    for index in range(3):
        broker = TpsBroker("broker", network, log_dir=log_dir)
        broker.recover_durable_subscriptions()
        publisher.publish_async(
            "broker",
            publisher.new_instance("demo.a.Person", ["p%d" % index]))
        network.run_until_idle()  # delivered AND acked: real activity
        broker.close()

    broker = TpsBroker("broker", network, log_dir=log_dir)
    assert broker.prune_cursors(max_idle_incarnations=3) == []
    assert "live-c" in broker.cursors
    assert len(got) == 3
    broker.close()


def test_cursor_store_advance_touch_discipline(tmp_path):
    store = CursorStore(str(tmp_path / "cursors.json"))
    store.register("c")
    first = store.entry("c")["last_active"]
    assert store.advance("c", 5, touch=False)
    assert store.entry("c")["last_active"] == first
    assert store.advance("c", 9)  # default: subscriber-driven, touches
    assert store.entry("c")["last_active"] == store.incarnation
    store.close()
