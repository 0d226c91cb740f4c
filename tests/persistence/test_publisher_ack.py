"""Publisher-side durability: the ``publish_durable`` acked-publish path.

The broker acknowledges the publish token only after the batch has been
appended to its durable log, which extends the at-least-once guarantee
back to the publisher: anything unacked can be resent verbatim, and the
duplicate is covered by the existing at-least-once delivery contract.
"""

from repro.apps.tps import BrokerMesh, TpsBroker, TpsPeer
from repro.apps.tps.topology import Topology
from repro.fixtures import person_assembly_pair, person_java
from repro.net.network import SimulatedNetwork


def make_world(tmp_path, **broker_kwargs):
    network = SimulatedNetwork()
    broker = TpsBroker("broker", network,
                       log_dir=str(tmp_path / "broker"), **broker_kwargs)
    publisher = TpsPeer("pub", network)
    asm_a, _ = person_assembly_pair()
    publisher.host_assembly(asm_a)
    return network, broker, publisher


class TestPublishDurable:
    def test_ack_arrives_after_append(self, tmp_path):
        network, broker, publisher = make_world(tmp_path)
        token = publisher.publish_durable(
            "broker", publisher.new_instance("demo.a.Person", ["d1"]))
        # In flight until the network drains: nothing ran inline.
        assert publisher.unacked_publishes() == [token]
        assert broker.event_log.record_count == 0
        network.run_until_idle()
        assert publisher.unacked_publishes() == []
        assert publisher.transport_stats.publishes_acked == 1
        assert broker.transport_stats.publish_acks_sent == 1
        assert broker.event_log.record_count == 1
        broker.close()

    def test_batch_publish_is_one_log_record(self, tmp_path):
        network, broker, publisher = make_world(tmp_path)
        events = [publisher.new_instance("demo.a.Person", ["b%d" % i])
                  for i in range(5)]
        publisher.publish_durable("broker", events)
        network.run_until_idle()
        assert broker.event_log.record_count == 1
        assert publisher.unacked_publishes() == []
        broker.close()

    def test_batch_fans_out_to_subscribers(self, tmp_path):
        network, broker, publisher = make_world(tmp_path)
        got = []
        subscriber = TpsPeer("sub", network)
        subscriber.subscribe_remote("broker", person_java(), got.append)
        durable_got = []
        durable = TpsPeer("dsub", network)
        durable.subscribe_durable_remote("broker", person_java(),
                                         durable_got.append, cursor="d-c")
        network.run_until_idle()
        publisher.publish_durable(
            "broker",
            [publisher.new_instance("demo.a.Person", ["x"]),
             publisher.new_instance("demo.a.Person", ["y"])])
        network.run_until_idle()
        assert [v.getPersonName() for v in got] == ["x", "y"]
        assert [v.getPersonName() for v in durable_got] == ["x", "y"]
        # The durable subscriber acked the one record cumulatively.
        assert broker.cursors.get("d-c") == broker.event_log.next_offset
        broker.close()

    def test_lost_publish_republished(self, tmp_path):
        """A publish dropped on the way in stays unacked; republishing
        resends the identical payload and lands it."""
        network, broker, publisher = make_world(tmp_path)
        publisher.publish_durable(
            "broker", publisher.new_instance("demo.a.Person", ["lost"]))
        network._queues.clear()  # the fabric ate the publish
        network.run_until_idle()
        assert len(publisher.unacked_publishes()) == 1
        assert broker.event_log.record_count == 0
        assert publisher.republish_unacked() == 1
        network.run_until_idle()
        assert publisher.unacked_publishes() == []
        assert broker.event_log.record_count == 1
        broker.close()

    def test_lost_ack_republish_is_at_least_once(self, tmp_path):
        """When only the *ack* is lost the broker logged the batch; a
        republish appends a duplicate record — allowed by at-least-once,
        and visible as two records with the same content."""
        network, broker, publisher = make_world(tmp_path)
        publisher.publish_durable(
            "broker", publisher.new_instance("demo.a.Person", ["dup"]))
        network.flush()  # the publish lands, the ack is now queued
        network._queues.clear()  # ...and lost
        assert broker.event_log.record_count == 1
        assert len(publisher.unacked_publishes()) == 1
        publisher.republish_unacked()
        network.run_until_idle()
        assert publisher.unacked_publishes() == []
        assert broker.event_log.record_count == 2
        broker.close()

    def test_mesh_shard_acks_durable_publishes(self, tmp_path):
        network = SimulatedNetwork()
        mesh = BrokerMesh(network, topology=Topology.sized(2),
                          log_root=str(tmp_path / "mesh"))
        publisher = TpsPeer("publisher", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        got = []
        subscriber = TpsPeer("subscriber", network)
        subscriber.subscribe_remote(mesh.shard_for("subscriber"),
                                    person_java(), got.append)
        home = mesh.shard_for("publisher")
        publisher.publish_durable(
            home, publisher.new_instance("demo.a.Person", ["meshed"]))
        mesh.run_until_idle()
        assert publisher.unacked_publishes() == []
        assert [v.getPersonName() for v in got] == ["meshed"]
        assert mesh.shard(home).event_log.record_count == 1
        mesh.close()

    def test_broker_without_log_still_acks_admission(self, tmp_path):
        """Durable-publishing at a log-less broker degrades to an
        admission ack (routed, not durable) rather than hanging the
        publisher forever."""
        network = SimulatedNetwork()
        broker = TpsBroker("broker", network)  # no log_dir
        publisher = TpsPeer("pub", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        publisher.publish_durable(
            "broker", publisher.new_instance("demo.a.Person", ["nolog"]))
        network.run_until_idle()
        assert publisher.unacked_publishes() == []
        broker.close()

    def test_tokens_are_unique_per_publish(self, tmp_path):
        network, broker, publisher = make_world(tmp_path)
        tokens = {publisher.publish_durable(
            "broker", publisher.new_instance("demo.a.Person", ["t%d" % i]))
            for i in range(5)}
        assert len(tokens) == 5
        network.run_until_idle()
        assert publisher.unacked_publishes() == []
        broker.close()
