"""Every publish crosses a broker as one record over its frame.

A frame whose type a broker does not know yet (the paper's code-fetch
case) and a soap-encoded frame take the same path as any other: the
values the code fetch decodes route the record, and the frame itself is
what gets logged, forwarded and relayed.
"""

import pytest

from repro.apps.tps import BrokerMesh, TpsBroker, TpsPeer
from repro.apps.tps.topology import Topology
from repro.fixtures import person_assembly_pair, person_java
from repro.net.network import SimulatedNetwork
from repro.serialization.envelope import EnvelopeCodec


def _no_value_encoding(codec):
    """Make ``codec`` fail loudly if anything encodes a value with it."""
    def refuse(*args, **kwargs):
        raise AssertionError("a broker re-encoded a value")
    codec.wrap = codec.wrap_batch = refuse


class TestUnknownTypeFirstPublish:
    def test_first_publish_reaches_every_subscriber_once(self, tmp_path):
        """A shard's first durable publish of a type it does not know:
        its remote subscriber, a sibling shard's subscriber and a durable
        cursor each get every value exactly once; the record is logged
        once, each value decodes at most once on the shard, and no broker
        re-encodes a value."""
        network = SimulatedNetwork()
        mesh = BrokerMesh(network, topology=Topology.sized(2),
                          log_root=str(tmp_path), replication_factor=1)
        home, sibling = mesh.shards
        publisher = TpsPeer("publisher", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        got = {"local": [], "sibling": [], "durable": []}
        TpsPeer("local", network).subscribe_remote(
            home.peer_id, person_java(),
            lambda view: got["local"].append(view.getPersonName()))
        TpsPeer("remote", network).subscribe_remote(
            sibling.peer_id, person_java(),
            lambda view: got["sibling"].append(view.getPersonName()))
        TpsPeer("durable", network).subscribe_durable_remote(
            home.peer_id, person_java(),
            lambda view: got["durable"].append(view.getPersonName()),
            cursor="c")
        mesh.run_until_idle()
        assert home.runtime.registry.get("demo.a.Person") is None
        for shard in mesh.shards:
            _no_value_encoding(shard.codec)
        decodes = home.codec.stats.decodes

        names = ["first-%d" % index for index in range(3)]
        publisher.publish_durable(home.peer_id, [
            publisher.new_instance("demo.a.Person", [name])
            for name in names])
        mesh.run_until_idle()

        assert got == {"local": names, "sibling": names, "durable": names}
        assert home.event_log.record_count == 1
        assert home.cursors.get("c") == 1  # the durable delivery was acked
        assert home.codec.stats.decodes - decodes <= len(names)
        assert publisher.unacked_publishes() == []
        mesh.close()


class TestSoapPublish:
    def test_soap_publish_is_admitted_and_delivered(self, tmp_path):
        network = SimulatedNetwork()
        broker = TpsBroker("broker", network, log_dir=str(tmp_path))
        publisher = TpsPeer("publisher", network, encoding="soap")
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        got = []
        TpsPeer("sub", network).subscribe_remote(
            "broker", person_java(),
            lambda view: got.append(view.getPersonName()))

        publisher.publish("broker",
                          publisher.new_instance("demo.a.Person", ["soapy"]))
        network.run_until_idle()

        assert got == ["soapy"]
        record, = broker.event_log.replay()
        stored = EnvelopeCodec().parse(record.payload)
        assert stored.encoding == "soap"
        assert stored.origin == "publisher"
        broker.close()


class TestDeletedSwitches:
    def test_broker_rejects_lazy_admission(self):
        with pytest.raises(TypeError):
            TpsBroker("broker", SimulatedNetwork(), lazy_admission=False)

    def test_mesh_rejects_lazy_admission(self):
        with pytest.raises(TypeError):
            BrokerMesh(SimulatedNetwork(), topology=Topology.sized(2),
                       lazy_admission=True)
