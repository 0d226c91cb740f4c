"""Stats-schema regression suite.

Every ``stats()`` dict is a published compatibility view — downstream
tooling (benchmarks/report.py, the soak harness, the CI smoke jobs)
indexes these keys by name.  These tests pin the exact key sets so a
refactor that drops or renames one fails loudly here, and pin the
metrics-registry group sets that mirror them.
"""

import pytest

from repro.apps.tps import BrokerMesh, TpsPeer
from repro.apps.tps.broker import LocalBroker, TpsBroker
from repro.apps.tps.procmesh import ProcessMesh, SocketMesh
from repro.apps.tps.topology import Topology
from repro.fixtures import person_assembly_pair, person_java
from repro.net.network import SimulatedNetwork
from repro.net.socket_transport import SocketNetwork
from repro.obs.bridge import register_network_metrics
from repro.obs.metrics import MetricsRegistry

LOCAL_BROKER_KEYS = {"published", "delivered", "subscriptions", "routing"}

TPS_BROKER_KEYS = {"events_routed", "subscriptions", "routing",
                   "transport", "codec"}

TPS_DURABLE_EXTRA_KEYS = {"log", "cursors", "events_replayed",
                          "replay_failures", "delivery_failures",
                          "retention_lost_records", "pending_acks"}

#: A durable mesh shard always carries the forward/batch counters, the
#: replica store (it may hold records replicated *to* it) and the
#: backlog-fetch service counters; the ``replication`` leader summary
#: appears only when a replication factor is configured.
MESH_SHARD_EXTRA_KEYS = {"batches_sent", "batch_events", "forwards_sent",
                         "forward_events", "forwards_received",
                         "gossip_failures", "summary_types",
                         "pending_deliveries", "replicas", "replica_records",
                         "replica_rejects", "healed_records",
                         "events_fetched", "fetches_served",
                         "fetch_records_served", "fetch_failures",
                         "epoch", "handoffs", "adoptions"}

MESH_REPLICATED_EXTRA_KEYS = {"replication"}

BROKER_MESH_KEYS = {"epoch", "shards", "events_routed", "forwards_sent",
                    "forward_events", "batch_events", "gossip_failures",
                    "events_replayed", "replay_failures", "events_fetched",
                    "records_replicated", "replica_records",
                    "healed_records"}

TRANSPORT_SNAPSHOT_KEYS = {"node", "epoch", "peer_epochs",
                           "frames_sent", "frames_received",
                           "frames_lost", "bytes_received", "framing_errors",
                           "blocked_sends", "bytes_copied",
                           "queue_high_water", "links",
                           "recv_pool", "by_kind_messages", "by_kind_bytes"}

WATERMARK_KEYS = {"sent", "acked", "queued", "lag"}


def durable_mesh(tmp_path, sockets=False, **kwargs):
    if sockets:
        mesh = SocketMesh(topology=Topology.sized(2),
                          log_root=str(tmp_path / "log"), **kwargs)
        network = mesh.client_network("clients")
    else:
        network = SimulatedNetwork()
        mesh = BrokerMesh(network, topology=Topology.sized(2),
                          log_root=str(tmp_path / "log"), **kwargs)
    publisher = TpsPeer("publisher", network)
    asm_a, _ = person_assembly_pair()
    publisher.host_assembly(asm_a)
    delivered = []
    subscriber = TpsPeer("sub0", network)
    subscriber.subscribe_remote(mesh.shard_for("sub0"), person_java(),
                                delivered.append)
    publisher.publish_async(mesh.shard_for("publisher"),
                            publisher.new_instance("demo.a.Person", ["x"]))
    mesh.run_until_idle()
    assert delivered
    return network, mesh


class TestStatsKeySets:
    def test_local_broker(self):
        assert set(LocalBroker().stats()) == LOCAL_BROKER_KEYS

    def test_tps_broker_without_log(self):
        network = SimulatedNetwork()
        broker = TpsBroker("solo", network)
        assert set(broker.stats()) == TPS_BROKER_KEYS
        broker.close()

    def test_tps_broker_with_log(self, tmp_path):
        network = SimulatedNetwork()
        broker = TpsBroker("solo", network, log_dir=str(tmp_path / "log"))
        assert set(broker.stats()) == TPS_BROKER_KEYS | TPS_DURABLE_EXTRA_KEYS
        broker.close()

    def test_mesh_shard(self, tmp_path):
        _, mesh = durable_mesh(tmp_path)
        shard = mesh.shards[0]
        expected = (TPS_BROKER_KEYS | TPS_DURABLE_EXTRA_KEYS
                    | MESH_SHARD_EXTRA_KEYS)
        assert set(shard.stats()) == expected
        mesh.close()

    def test_mesh_shard_with_replication(self, tmp_path):
        _, mesh = durable_mesh(tmp_path, replication_factor=1)
        shard = mesh.shards[0]
        expected = (TPS_BROKER_KEYS | TPS_DURABLE_EXTRA_KEYS
                    | MESH_SHARD_EXTRA_KEYS | MESH_REPLICATED_EXTRA_KEYS)
        assert set(shard.stats()) == expected
        replication = shard.stats()["replication"]
        assert set(replication) == {"factor", "followers",
                                    "records_replicated", "batches_sent",
                                    "resends"}
        for marks in replication["followers"].values():
            assert set(marks) == WATERMARK_KEYS
        mesh.close()

    def test_broker_mesh(self, tmp_path):
        _, mesh = durable_mesh(tmp_path)
        snapshot = mesh.stats()
        assert set(snapshot) == BROKER_MESH_KEYS
        assert set(snapshot["shards"]) == set(mesh.shard_ids)
        mesh.close()

    def test_socket_mesh(self, tmp_path):
        """One mesh stats schema for both in-process runners."""
        _, mesh = durable_mesh(tmp_path, sockets=True)
        snapshot = mesh.stats()
        assert set(snapshot) == BROKER_MESH_KEYS
        assert set(snapshot["shards"]) == set(mesh.shard_ids)
        mesh.close()

    def test_process_mesh(self, tmp_path):
        """One mesh stats schema for all three runners: the driver reads
        every shard's stats over the control plane and totals them with
        the aggregation BrokerMesh.stats() uses."""
        mesh = ProcessMesh(topology=Topology.sized(2, "schemaproc"),
                           log_root=str(tmp_path / "log"))
        try:
            publisher = TpsPeer("publisher", mesh.network)
            asm_a, _ = person_assembly_pair()
            publisher.host_assembly(asm_a)
            delivered = []
            subscriber = TpsPeer("sub0", mesh.network)
            subscriber.subscribe_remote(mesh.shard_for("sub0"),
                                        person_java(), delivered.append)
            publisher.publish_async(
                mesh.shard_for("publisher"),
                publisher.new_instance("demo.a.Person", ["x"]))
            for _ in range(2000):
                mesh.network.poll(0.01)
                if delivered:
                    break
            assert delivered
            snapshot = mesh.stats()
            assert set(snapshot) == BROKER_MESH_KEYS
            assert set(snapshot["shards"]) == set(mesh.shard_ids)
            assert snapshot["epoch"] == mesh.epoch
            assert snapshot["events_routed"] == sum(
                shard["events_routed"]
                for shard in snapshot["shards"].values()) >= 1
        finally:
            mesh.stop()

    def test_socket_transport_snapshot(self):
        network = SocketNetwork("schema-node")
        try:
            assert set(network.transport_snapshot()) == \
                TRANSPORT_SNAPSHOT_KEYS
        finally:
            network.close()


class TestWatermarkLagGauge:
    def test_per_follower_lag_is_queued_minus_acked_depth(self, tmp_path):
        """The satellite bugfix: queued-but-unacked replication depth is
        visible per follower, in stats() and as a labeled gauge."""
        _, mesh = durable_mesh(tmp_path, replication_factor=1)
        shard = next(s for s in mesh.shards if s.replication is not None
                     and s.replication.watermarks())
        for follower, marks in shard.replication.watermarks().items():
            assert marks["lag"] == marks["queued"] - marks["acked"]
            assert marks["lag"] == 0  # idle mesh: everything acked
        family = shard.metrics.get("replication.watermark_lag")
        assert family is not None
        assert family.labelnames == ("follower",)
        lag_by_follower = family.value()
        assert lag_by_follower  # at least one follower sampled
        assert all(value == 0 for value in lag_by_follower.values())
        mesh.close()


class TestMetricsGroupSets:
    """The registry tree mirrors stats(): group presence is part of the
    schema (log/replication groups appear only when configured)."""

    def test_tps_broker_groups(self, tmp_path):
        network = SimulatedNetwork()
        plain = TpsBroker("plain", network)
        assert set(plain.metrics.snapshot()) == \
            {"codec", "pipeline", "protocol", "routing", "trace"}
        durable = TpsBroker("durable", network, log_dir=str(tmp_path / "log"))
        assert set(durable.metrics.snapshot()) == \
            {"codec", "pipeline", "protocol", "routing", "log", "trace"}
        untraced = TpsBroker("untraced", network, tracing=False)
        assert "trace" not in untraced.metrics.snapshot()
        for broker in (plain, durable, untraced):
            broker.close()

    def test_mesh_shard_groups(self, tmp_path):
        _, mesh = durable_mesh(tmp_path, replication_factor=1)
        shard = mesh.shards[0]
        assert set(shard.metrics.snapshot()) == \
            {"codec", "pipeline", "protocol", "routing", "log", "trace",
             "mesh", "replication"}
        mesh.close()

    def test_network_registration_adds_transport_group(self):
        registry = MetricsRegistry()
        network = SocketNetwork("metrics-node")
        try:
            register_network_metrics(registry, network)
            tree = registry.snapshot()
            assert set(tree) == {"transport"}
            assert tree["transport"]["links"] == 0
            assert tree["transport"]["frames_sent"] == 0
        finally:
            network.close()

    def test_stats_and_metrics_agree(self, tmp_path):
        """The registry samples the same counters stats() reports."""
        _, mesh = durable_mesh(tmp_path)
        shard = mesh.shards[0]
        stats = shard.stats()
        tree = shard.metrics.snapshot()
        assert tree["pipeline"]["events_routed"] == stats["events_routed"]
        assert tree["log"]["records"] == stats["log"]["records"]
        assert tree["mesh"]["forwards_sent"] == stats["forwards_sent"]
        mesh.close()
