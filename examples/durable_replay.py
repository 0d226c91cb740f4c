#!/usr/bin/env python3
"""Durable replay — late joiners and shard crash recovery.

PR 2's mesh delivers events only to subscribers connected at publish
time.  This demo shows the persistence subsystem removing that limit:

1. every shard appends admitted event batches to a segmented
   :class:`EventLog` before fan-out;
2. a **late durable subscriber** replays the conforming backlog from a
   named cursor, then switches to live delivery — per-batch acks advance
   the cursor, so nothing is replayed twice;
3. ``BrokerMesh.restart_shard`` crash-restarts a shard: the replacement
   reopens the log (recovery scan included), reloads durable
   subscriptions from the cursor store, resyncs sibling summaries, and
   redelivers whatever was never acked (at-least-once).

Run:  PYTHONPATH=src python examples/durable_replay.py
"""

import tempfile

from repro.apps.tps import BrokerMesh, TpsPeer
from repro.apps.tps.topology import Topology
from repro.fixtures import person_assembly_pair, person_java
from repro.net.network import SimulatedNetwork
from repro.persistence import inspect_log

N_BACKLOG = 8


def main():
    with tempfile.TemporaryDirectory(prefix="repro-durable-") as log_root:
        run(log_root)


def run(log_root):
    network = SimulatedNetwork()
    mesh = BrokerMesh(network, topology=Topology.sized(3), log_root=log_root)
    publisher = TpsPeer("publisher", network)
    asm_a, _ = person_assembly_pair()
    publisher.host_assembly(asm_a)
    home = mesh.shard_for("publisher")

    # A plain (non-durable) subscriber sees the burst as it happens.  It
    # subscribes at the publisher's home shard on purpose: when that
    # shard crashes later, this subscription dies with it — the contrast
    # the durable subscription exists to fix.
    live = []
    early = TpsPeer("early-sub", network)
    early.subscribe_remote(home, person_java(), live.append)
    for index in range(N_BACKLOG):
        publisher.publish_async(
            home, publisher.new_instance("demo.a.Person", ["e%d" % index]))
    mesh.run_until_idle()
    print("published %d events; live subscriber saw %d"
          % (N_BACKLOG, len(live)))

    # ...and a subscriber that joins AFTER the burst replays it durably.
    late = []
    newcomer = TpsPeer("late-sub", network)
    newcomer.subscribe_durable_remote(home, person_java(), late.append,
                                      cursor="late-sub")
    mesh.run_until_idle()
    print("late durable subscriber replayed: %s"
          % [event.getPersonName() for event in late])

    # Live events keep flowing; acks keep the cursor at the log's edge.
    publisher.publish_async(
        home, publisher.new_instance("demo.a.Person", ["live-after-join"]))
    mesh.run_until_idle()
    shard = mesh.shard(home)
    print("cursor after live event: %s (log end %d)"
          % (shard.cursors.as_dict(), shard.event_log.next_offset))

    # Crash the home shard mid-flight: two events are logged and sent,
    # but the acks never reach the old incarnation.
    publisher.publish_async(
        home, publisher.new_instance("demo.a.Person", ["crash-1"]))
    publisher.publish_async(
        home, publisher.new_instance("demo.a.Person", ["crash-2"]))
    mesh.flush()  # logged + buffered on the shard
    mesh.flush()  # delivered; acks still queued when the crash hits
    mesh.restart_shard(home)
    mesh.run_until_idle()
    names = [event.getPersonName() for event in late]
    print("after crash-restart the durable subscriber has %d events "
          "(%d duplicates from at-least-once redelivery)"
          % (len(names), len(names) - len(set(names))))
    assert set(names) >= {"crash-1", "crash-2"}

    # The restarted shard rebuilt the durable subscription from its
    # cursor store — but the plain subscription died with the crash.
    publisher.publish_async(
        home, publisher.new_instance("demo.a.Person", ["recovered"]))
    mesh.run_until_idle()
    assert [event.getPersonName() for event in late][-1] == "recovered"
    assert [event.getPersonName() for event in live][-1] != "recovered"
    print("post-restart publish reached the durable subscriber; the plain "
          "subscription died with the shard (%d vs %d events)"
          % (len(late), len(live)))

    info = inspect_log(shard.event_log.directory)
    print("\nhome shard log: %d records in offsets [%d, %d), %d segment(s)"
          % (info["records"], info["first_offset"], info["next_offset"],
             info["segment_count"]))
    print("replay counters:", {
        "events_replayed": mesh.stats()["events_replayed"],
        "replay_failures": mesh.stats()["replay_failures"],
    })
    # The log root is a temporary directory, removed when main() returns,
    # so the path is printed relative to it: the output is the same on
    # every run.
    print("\nInspect a shard log (pass run() a directory of your own to "
          "keep it):")
    print("  PYTHONPATH=src python -m repro log inspect <log root>/%s"
          % home)
    mesh.close()


if __name__ == "__main__":
    main()
