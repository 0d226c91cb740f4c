"""Elastic membership on the process fabric: a join, a rebalance and a
leave on a :class:`ProcessMesh` of shard processes, with a durable
subscriber on the driver node as the exactly-once oracle, and a shard
process SIGKILLed mid-stream with the same subscriber as the
at-least-once oracle.

Written only against the runner's public surface (``add_shard``,
``rebalance``, ``remove_shard``, ``restart_shard``, ``epoch``,
``topology``, ``read``, ``stats``, ``processes``), so it pins what a
membership change or a crash on shard processes must deliver, whichever
controller runs it."""

import signal
import time
from collections import Counter

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


@pytest.mark.parametrize("scheme", ["unix", "tcp"])
def test_sigkill_restart_loses_no_acked_publish(tmp_path, scheme):
    """SIGKILL a shard process while publish and subscriber acks are in
    flight: the respawned process serves the shard from its durable
    state, nothing published is lost once the publisher resends its
    unacked publishes, every duplicate lies in the window that was
    unacked at the kill, and replication to and from the new process
    resumes."""
    mesh = ProcessMesh(topology=Topology.sized(3, "pkill-" + scheme),
                       log_root=str(tmp_path / "logs"),
                       replication_factor=1, http=False, scheme=scheme)
    try:
        driver = mesh.network
        publisher = TpsPeer("publisher", driver)
        publisher.host_assembly(person_assembly_pair()[0])
        got = []
        home = mesh.shard_for("sub0")
        TpsPeer("sub0", driver).subscribe_durable_remote(
            home, person_java(),
            lambda event: got.append(event.getPersonName()), cursor="c0")
        names_by_token = {}

        def publish(prefix, count):
            for index in range(count):
                name = "%s%d" % (prefix, index)
                target = mesh.shard_ids[index % len(mesh.shard_ids)]
                names_by_token[publisher.publish_durable(
                    target, publisher.new_instance("demo.a.Person",
                                                   [name]))] = name
                if index % 10 == 9 and index < count - 10:
                    driver.poll(0.005)  # some deliveries and acks land

        def drain_until_delivered(names):
            deadline = time.monotonic() + _DRAIN_S
            while not names <= set(got) and time.monotonic() < deadline:
                driver.poll(0.01)
            assert names <= set(got)

        publish("e", 60)
        # The last ten publishes were never polled for: their acks (and
        # the subscriber's acks of their deliveries) are still in flight.
        unacked = {names_by_token[token]
                   for token in publisher.unacked_publishes()}
        assert unacked
        delivered_at_kill = list(got)
        old, address = mesh.processes[home], mesh.addresses[home]
        shard = mesh.restart_shard(home)
        assert shard is mesh.shard(home) and shard.peer_id == home
        assert old.exitcode == -signal.SIGKILL
        assert mesh.processes[home].pid != old.pid
        assert mesh.processes[home].is_alive()
        assert mesh.addresses[home] == address  # respawned where it died
        # The driver has not pumped one-way frames since the kill, so the
        # respawned shard's cursor is the acked position it recovered.
        acked = mesh.read("cursors", [home])[home]["c0"]

        publisher.republish_unacked()
        drain_until_delivered(set(names_by_token.values()))

        publish("f", 30)
        drain_until_delivered(set(names_by_token.values()))
        deadline = time.monotonic() + _DRAIN_S
        while True:
            mesh.run_until_idle()
            followers = {shard_id: snapshot["replication"]["followers"]
                         for shard_id, snapshot
                         in mesh.stats()["shards"].items()}
            lags = [entry["lag"] for entries in followers.values()
                    for entry in entries.values()]
            if not any(lags) or time.monotonic() > deadline:
                break
        assert all(followers.values()) and not any(lags), followers
        assert not publisher.unacked_publishes()

        # At-least-once, and no wider: a record delivered twice was
        # unacked at the kill — its publish unacked, or its delivery
        # above the home's acked cursor (deliveries follow the home
        # log's order, so the acked records are the first ``acked``).
        duplicates = {name for name, count in Counter(got).items()
                      if count > 1}
        acked_deliveries = set(delivered_at_kill[:acked])
        assert all(name.startswith("e") for name in duplicates), duplicates
        assert not (duplicates & acked_deliveries) - unacked
    finally:
        mesh.close()
