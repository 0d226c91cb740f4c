"""One admission rule for every frame: load the code of the types the
frame's header names that the receiver cannot resolve, then admit on the
header.

A shard that meets a type for the first time fetches its code once and
still routes at zero value decodes.  A subscriber receiving a broker
frame fetches code first, with no description round trip, also for a
value that no interest accepts.  A soap frame is a header-routed frame
like any other.
"""

import pytest

from repro.apps.tps import BrokerMesh, LocalBroker, TpsBroker, TpsPeer
from repro.apps.tps.topology import Topology
from repro.cts.assembly import Assembly
from repro.fixtures import account_csharp, person_assembly_pair, person_java
from repro.net.network import SimulatedNetwork
from repro.runtime.loader import Runtime
from repro.serialization.envelope import EnvelopeCodec
from repro.serialization.errors import UnknownTypeError


def _publisher(network):
    publisher = TpsPeer("publisher", network)
    publisher.host_assembly(person_assembly_pair()[0])
    publisher.host_assembly(Assembly("bank", [account_csharp()]))
    return publisher


def _spy_fetches(peer):
    """Record every ``(source, target)`` assembly fetch ``peer`` makes."""
    fetched = []
    fetch = peer.fetch_assembly

    def spy(source, target):
        fetched.append((source, target))
        return fetch(source, target)

    peer.fetch_assembly = spy
    return fetched


@pytest.mark.parametrize("shards", [1, 2])
def test_shard_first_receipt_of_a_new_type_decodes_nothing(shards):
    """Publish admission (1 shard), and a forward to the subscriber's home
    (2 shards): every shard meeting Person for the first time fetches its
    code once and decodes no value."""
    network = SimulatedNetwork()
    mesh = BrokerMesh(network, topology=Topology.sized(shards))
    publisher = _publisher(network)
    home = mesh.shard_for("publisher")
    subscriber_home = [sid for sid in mesh.shard_ids if sid != home
                       ] or [home]
    subscriber = TpsPeer("sub", network)
    got = []
    subscriber.subscribe_remote(subscriber_home[0], person_java(), got.append)
    publisher.send_batch(home, [
        publisher.new_instance("demo.a.Person", ["p%d" % index])
        for index in range(3)])
    mesh.run_until_idle()
    assert [view.getPersonName() for view in got] == ["p0", "p1", "p2"]
    for shard in mesh.shards:
        assert shard.codec.stats.decodes == 0
        assert shard.transport_stats.assemblies_fetched == 1
        assert shard.transport_stats.descriptions_fetched == 0
    mesh.close()


def test_mixed_broker_frame_fetches_code_for_every_new_type():
    """A Person, Account, Person record reaches a Person subscriber
    whole.  The subscriber holds neither type's code: it fetches both
    assemblies from the broker, Account's too although no interest
    accepts it, and fetches no description.  The broker decodes
    nothing."""
    network = SimulatedNetwork()
    broker = TpsBroker("broker", network)
    publisher = _publisher(network)
    subscriber = TpsPeer("sub", network)
    got = []
    subscriber.subscribe_remote("broker", person_java(), got.append)
    fetched = _spy_fetches(subscriber)
    publisher.send_batch("broker", [
        publisher.new_instance("demo.a.Person", ["p0"]),
        publisher.new_instance("demo.bank.Account", ["o", 1]),
        publisher.new_instance("demo.a.Person", ["p1"]),
    ])
    network.run_until_idle()
    assert [view.getPersonName() for view in got] == ["p0", "p1"]
    assert fetched == [("broker", "repo://person-a/1.0.0"),
                       ("broker", "repo://bank/1.0.0")]
    stats = subscriber.transport_stats
    assert stats.descriptions_fetched == 0
    assert (stats.objects_received, stats.objects_rejected) == (3, 1)
    assert broker.codec.stats.decodes == 0
    broker.close()


class TestSoapFrames:
    def make(self):
        runtime = Runtime()
        runtime.load_assembly(person_assembly_pair()[0])
        codec = EnvelopeCodec(runtime, encoding="soap")
        frame = codec.encode(runtime.new_instance("demo.a.Person", ["s"]))
        return runtime, codec, frame

    def test_soap_single_value_frame_through_lazy_batch(self):
        runtime, codec, frame = self.make()
        batch = codec.lazy_batch(codec.parse(frame))
        assert batch.missing() is None
        assert batch.root_type(0) is runtime.registry.get("demo.a.Person")
        assert codec.stats.decodes == 0
        assert batch.value(0).GetName() == "s"
        assert batch.value(0) is batch.value(0)
        assert codec.stats.decodes == 1

    def test_local_broker_routes_a_soap_frame_on_its_header(self):
        runtime, _, frame = self.make()
        runtime.registry.register(account_csharp())
        broker = LocalBroker(runtime=runtime)
        got = []
        broker.subscribe(person_java(), lambda view: got.append(
            view.getPersonName()))
        assert broker.publish_frame(frame) == 1
        assert got == ["s"]
        no_match = LocalBroker(runtime=runtime)
        no_match.subscribe(account_csharp(), got.append)
        assert no_match.publish_frame(frame) == 0
        assert no_match.codec.stats.decodes == 0

    def test_local_broker_refuses_a_frame_of_an_unknown_type(self):
        _, _, frame = self.make()
        broker = LocalBroker(runtime=Runtime())
        with pytest.raises(UnknownTypeError):
            broker.publish_frame(frame)
        assert broker.published == 0
