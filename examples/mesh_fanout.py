#!/usr/bin/env python3
"""Mesh fan-out — sharded, batched type-based publish/subscribe.

The seed :class:`TpsBroker` pushes one synchronous network message per
matching subscription per event.  The :class:`BrokerMesh` shards the
broker, announces each shard's subscription summary so a publish
crosses only the shard boundaries it must, and drains deliveries as per-peer batch frames
(one ``RBS2B`` payload, one intern table, one message — however many
events are queued for that peer).

This demo builds a 4-shard mesh with 30 subscriber peers, publishes a
burst of events, and prints the message/byte economy against the seed
single-broker path.

Run:  PYTHONPATH=src python examples/mesh_fanout.py
"""

from repro.apps.tps import BrokerMesh, TpsBroker, TpsPeer
from repro.apps.tps.topology import Topology
from repro.cts.assembly import Assembly
from repro.fixtures import account_csharp, person_assembly_pair, person_java
from repro.net.network import SimulatedNetwork

N_SUBSCRIBERS = 30
N_EVENTS = 6


def build_subscribers(network, subscribe_target):
    deliveries = {}
    for index in range(N_SUBSCRIBERS):
        peer = TpsPeer("sub%02d" % index, network)
        deliveries[peer.peer_id] = []
        subscribe_target(peer, deliveries[peer.peer_id].append)
    return deliveries


def run_seed():
    network = SimulatedNetwork()
    TpsBroker("broker", network)
    publisher = TpsPeer("publisher", network)
    asm_a, _ = person_assembly_pair()
    publisher.host_assembly(asm_a)
    deliveries = build_subscribers(
        network,
        lambda peer, handler: peer.subscribe_remote("broker", person_java(), handler),
    )
    network.reset_accounting()
    for index in range(N_EVENTS):
        publisher.publish("broker",
                          publisher.new_instance("demo.a.Person", ["e%d" % index]))
    network.run_until_idle()
    return network, deliveries


def run_mesh():
    network = SimulatedNetwork()
    mesh = BrokerMesh(network, topology=Topology.sized(4))
    publisher = TpsPeer("publisher", network)
    asm_a, _ = person_assembly_pair()
    publisher.host_assembly(asm_a)
    deliveries = build_subscribers(
        network,
        lambda peer, handler: peer.subscribe_remote(
            mesh.shard_for(peer.peer_id), person_java(), handler),
    )
    network.reset_accounting()
    home = mesh.shard_for("publisher")
    for index in range(N_EVENTS):
        publisher.publish_async(
            home, publisher.new_instance("demo.a.Person", ["e%d" % index]))
    mesh.run_until_idle()
    return network, mesh, publisher, deliveries


def main():
    seed_net, seed_deliveries = run_seed()
    mesh_net, mesh, publisher, mesh_deliveries = run_mesh()

    print("%d events -> %d subscribers" % (N_EVENTS, N_SUBSCRIBERS))
    print("\n%-28s %10s %12s" % ("", "messages", "bytes"))
    print("%-28s %10d %12s" % ("seed single broker",
                               seed_net.stats.messages,
                               format(seed_net.stats.bytes_sent, ",")))
    print("%-28s %10d %12s" % ("4-shard mesh (batched)",
                               mesh_net.stats.messages,
                               format(mesh_net.stats.bytes_sent, ",")))
    print("%-28s %9.1fx %11.1fx" % (
        "reduction",
        seed_net.stats.messages / mesh_net.stats.messages,
        seed_net.stats.bytes_sent / mesh_net.stats.bytes_sent))

    print("\nMesh traffic by kind:")
    for kind, count in sorted(mesh_net.stats.by_kind_messages.items()):
        print("  %-16s %5d msgs %10s bytes" % (
            kind, count, format(mesh_net.stats.by_kind_bytes[kind], ",")))

    assert all(len(v) == N_EVENTS for v in mesh_deliveries.values())
    assert all(len(v) == N_EVENTS for v in seed_deliveries.values())
    first = next(iter(mesh_deliveries.values()))
    print("\nEvery subscriber saw: %s"
          % [event.getPersonName() for event in first])

    # Summaries at work: an event type nobody subscribed to is
    # forwarded to ZERO other shards (and delivered to nobody).
    publisher.host_assembly(Assembly("bank", [account_csharp()]))
    mesh_net.reset_accounting()
    publisher.publish_async(mesh.shard_for("publisher"),
                            publisher.new_instance("demo.bank.Account", ["o", 1]))
    mesh.run_until_idle()
    print("\nNo-match publish: %d shard forwards, %d deliveries"
          % (mesh_net.stats.by_kind_messages.get("mesh_forward", 0),
             mesh_net.stats.by_kind_messages.get("object_batch", 0)))

    print("\nHome shard snapshot:",
          {key: value
           for key, value in mesh.stats()["shards"][mesh.shard_for("publisher")].items()
           if key in ("events_routed", "forwards_sent", "summary_types",
                      "batch_events")})


if __name__ == "__main__":
    main()
