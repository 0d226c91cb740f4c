"""A forwarded copy lost in flight is redelivered by the next replay.

A durable subscriber homed away from the publisher's shard receives that
shard's records as forwarded-in copies, logged in its home's own offset
space.  When one forward is lost, live delivery skips the record, but
the subscription's fetch cursor for the origin shard does not move past
it: a re-subscribe under the same cursor replays exactly the lost
record, from a replica log or a fetched page, and nothing twice.

A live forwarded copy must therefore not advance the origin's position:
forwards are sparse in the origin's offsets, so advancing on the copy
after a lost one would skip the lost record for good.
"""

import pytest

from repro.apps.tps import BrokerMesh, TpsPeer
from repro.apps.tps.mesh import KIND_MESH_FORWARD
from repro.apps.tps.topology import Topology
from repro.fixtures import person_assembly_pair, person_java
from repro.net.network import SimulatedNetwork


@pytest.mark.parametrize("replication_factor", [0, 1])
def test_lost_forward_is_replayed_on_resubscribe(replication_factor,
                                                 tmp_path, opened):
    network = SimulatedNetwork()
    mesh = opened(BrokerMesh(network, topology=Topology.sized(2),
                             log_root=str(tmp_path / "logs"),
                             replication_factor=replication_factor))
    publisher = TpsPeer("publisher", network)
    publisher.host_assembly(person_assembly_pair()[0])
    home = mesh.shard_for("publisher")
    other = next(shard for shard in mesh.shard_ids if shard != home)
    got = []
    subscriber = TpsPeer("subscriber", network)
    subscriber.subscribe_durable_remote(other, person_java(), got.append,
                                        cursor="c")
    mesh.run_until_idle()

    post_async = network.post_async
    dropped = []

    def drop_first_forward(src, dst, kind, payload):
        if kind == KIND_MESH_FORWARD and not dropped:
            dropped.append((src, dst))
            return
        post_async(src, dst, kind, payload)

    network.post_async = drop_first_forward
    for index in range(3):
        publisher.publish_async(home, publisher.new_instance(
            "demo.a.Person", ["p%d" % index]))
        mesh.run_until_idle()
    network.post_async = post_async

    assert dropped == [(home, other)]
    assert [view.getPersonName() for view in got] == ["p1", "p2"]

    del got[:]
    subscriber.subscribe_durable_remote(other, person_java(), got.append,
                                        cursor="c")
    mesh.run_until_idle()
    assert [view.getPersonName() for view in got] == ["p0"]
