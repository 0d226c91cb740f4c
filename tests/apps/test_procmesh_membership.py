"""Elastic membership on the process fabric: a join, a rebalance and a
leave on a :class:`ProcessMesh` of shard processes, with a durable
subscriber on the driver node as the exactly-once oracle.

Written only against the runner's public surface (``add_shard``,
``rebalance``, ``remove_shard``, ``epoch``, ``topology``, ``read``), so
it pins what a membership change on shard processes must deliver,
whichever controller runs it."""

import time

import pytest

from repro.apps.tps import TpsPeer
from repro.apps.tps.procmesh import ProcessMesh
from repro.apps.tps.topology import Topology
from repro.fixtures import person_assembly_pair, person_java
from repro.net.network import NetworkError

_DRAIN_S = 30.0


def rehomed_peer(topology):
    """A subscriber id whose home moves onto the shard a join adds."""
    grown = topology.with_shard()
    return next(peer for peer in ("sub%d" % index for index in range(100))
                if grown.shard_for(peer) != topology.shard_for(peer))


def test_join_rebalance_leave_delivers_every_event_once(tmp_path):
    topology = Topology.sized(3, "pmember")
    peer_id = rehomed_peer(topology)
    cursor = peer_id + "-cursor"
    mesh = ProcessMesh(topology=topology, log_root=str(tmp_path / "logs"),
                       replication_factor=1, http=False)
    try:
        driver = mesh.network
        publisher = TpsPeer("publisher", driver)
        publisher.host_assembly(person_assembly_pair()[0])
        got = []
        subscriber = TpsPeer(peer_id, driver)
        subscriber.subscribe_durable_remote(
            mesh.shard_for(peer_id), person_java(),
            lambda event: got.append(event.getPersonName()), cursor=cursor)
        published = []

        def publish_and_drain(count):
            for _ in range(count):
                name = "e%d" % len(published)
                target = mesh.shard_ids[len(published) % len(mesh.shard_ids)]
                publisher.publish_async(target, publisher.new_instance(
                    "demo.a.Person", [name]))
                published.append(name)
            deadline = time.monotonic() + _DRAIN_S
            while len(got) < len(published) \
                    and time.monotonic() < deadline:
                driver.poll(0.01)
            assert sorted(got) == sorted(published)

        publish_and_drain(12)

        mesh.add_shard()
        assert mesh.epoch == 2
        moved = mesh.rebalance()["moved"]
        assert cursor in [name for names in moved.values() for name in names]
        publish_and_drain(12)

        home = mesh.shard_for(peer_id)
        mesh.remove_shard(home)
        assert mesh.epoch == 3
        assert home in mesh.topology.departed
        new_home = mesh.shard_for(peer_id)
        assert cursor in mesh.read("cursors", [new_home])[new_home]
        publish_and_drain(12)

        assert len(got) == len(set(got)) == 36
    finally:
        mesh.close()


def test_refused_removal_leaves_the_mesh_as_it_was(tmp_path):
    """A shard process that refuses to retire (its durable history has
    no follower to live on) aborts the removal: the epoch stays, and
    the shard keeps serving."""
    mesh = ProcessMesh(topology=Topology.sized(2, "pkeep"),
                       log_root=str(tmp_path / "logs"), http=False)
    try:
        publisher = TpsPeer("publisher", mesh.network)
        publisher.host_assembly(person_assembly_pair()[0])
        victim = mesh.shard_ids[0]
        publisher.publish_async(victim, publisher.new_instance(
            "demo.a.Person", ["kept"]))
        deadline = time.monotonic() + _DRAIN_S
        while not mesh.read("log", [victim])[victim]["next_offset"] \
                and time.monotonic() < deadline:
            mesh.network.poll(0.01)
        with pytest.raises(NetworkError):
            mesh.remove_shard(victim)
        assert mesh.epoch == 1
        assert mesh.shard_ids == Topology.sized(2, "pkeep").shard_ids
        assert mesh.read("topology", [victim]) == {victim: 1}
    finally:
        mesh.close()
