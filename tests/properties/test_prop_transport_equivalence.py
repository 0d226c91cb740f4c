"""The socket fabric is observationally equal to the simulator.

One hypothesis-generated script of publishes, durable batches,
subscriber attachments and drains runs twice: on a
:class:`BrokerMesh` over the in-memory :class:`SimulatedNetwork` (the
deterministic twin) and on a :class:`SocketMesh` whose shards exchange
the very same protocol over real Unix-domain sockets.  The property:
every subscriber receives the byte-identical value sequence on both
fabrics.  Draining after every op pins the interleaving, so the
comparison is exact, not statistical — and the socket mesh must get
there without a single post-warm-up value decode on any shard.
"""

import os
import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.tps import BrokerMesh, TpsPeer
from repro.apps.tps.procmesh import SocketMesh
from repro.apps.tps.topology import Topology
from repro.fixtures import person_assembly_pair, person_java
from repro.net.network import SimulatedNetwork
from repro.serialization.binary import BinarySerializer

N_SHARDS = 3

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("pub"), st.integers(0, N_SHARDS - 1)),
        st.tuples(st.just("batch"), st.integers(0, N_SHARDS - 1),
                  st.integers(1, 3)),
        st.tuples(st.just("sub"), st.integers(0, N_SHARDS - 1)),
    ),
    min_size=1,
    max_size=8,
)


class _World:
    """One mesh (either fabric) plus its client peers, driven op by op."""

    def __init__(self, root, socket_fabric):
        self.socket_fabric = socket_fabric
        if socket_fabric:
            self.mesh = SocketMesh(topology=Topology.sized(N_SHARDS),
                                   log_root=os.path.join(root, "logs"),
                                   replication_factor=1)
            self.network = self.mesh.client_network("clients")
        else:
            self.network = SimulatedNetwork()
            self.mesh = BrokerMesh(self.network,
                                   topology=Topology.sized(N_SHARDS),
                                   log_root=os.path.join(root, "logs"),
                                   replication_factor=1)
        self.publisher = TpsPeer("publisher", self.network)
        asm_a, _ = person_assembly_pair()
        self.publisher.host_assembly(asm_a)
        self.delivered = {}
        self.subscribers = []
        self.seq = 0

        # Warm-up: teach every shard the type, then judge decode counts
        # on the steady state only.
        for shard_id in self.mesh.shard_ids:
            self.publisher.publish_async(
                shard_id,
                self.publisher.new_instance("demo.a.Person", ["warm"]))
        self.drain()
        for shard in self.mesh.shards:
            shard.codec.stats.decodes = 0

    def drain(self):
        self.mesh.run_until_idle()

    def apply(self, op):
        kind = op[0]
        if kind == "pub":
            self.publisher.publish_async(
                self.mesh.shard_ids[op[1]],
                self.publisher.new_instance("demo.a.Person",
                                            ["p%d" % self.seq]))
            self.seq += 1
        elif kind == "batch":
            events = [
                self.publisher.new_instance("demo.a.Person",
                                            ["b%d-%d" % (self.seq, j)])
                for j in range(op[2])
            ]
            self.seq += 1
            self.publisher.publish_durable(self.mesh.shard_ids[op[1]],
                                           events)
        else:
            name = "sub%02d" % len(self.subscribers)
            peer = TpsPeer(name, self.network)
            captured = self.delivered.setdefault(name, [])

            def capture(received, peer=peer, captured=captured):
                if received.accepted:
                    captured.append(
                        BinarySerializer(peer.runtime).serialize(
                            received.value))

            peer.on_receive(capture)
            peer.subscribe_remote(self.mesh.shard_ids[op[1]], person_java(),
                                  lambda view: None)
            self.subscribers.append(peer)
        # Drain after EVERY op: with at most one record in flight the
        # interleaving is pinned, so both fabrics deliver identically.
        self.drain()

    def close(self):
        self.mesh.close()


@settings(max_examples=8, deadline=None)
@given(ops=_ops)
def test_socket_mesh_equals_simulated_mesh(ops):
    root = tempfile.mkdtemp()
    worlds = []
    try:
        simulated = _World(os.path.join(root, "sim"), socket_fabric=False)
        worlds.append(simulated)
        socketed = _World(os.path.join(root, "sock"), socket_fabric=True)
        worlds.append(socketed)
        for op in ops:
            simulated.apply(op)
            socketed.apply(op)

        # Byte-identical delivery, subscriber by subscriber, in order.
        assert socketed.delivered == simulated.delivered

        # The zero-copy guarantee holds on real bytes too: admission,
        # forwarding and replication on the socket mesh stay header-only.
        for shard in socketed.mesh.shards:
            assert shard.codec.stats.decodes == 0, shard.peer_id
    finally:
        for world in worlds:
            world.close()
        shutil.rmtree(root, ignore_errors=True)
