"""The frame path delivers exactly what was published.

Every record crosses a broker as a batch over its frame: routed on the
header's root types, logged, forwarded and replicated as the frame bytes,
decoded only by the final receiver.  Meshes and single brokers are driven
through hypothesis-generated interleavings of publishes, durable batch
publishes, subscriber attachments and drains, and checked against a
golden oracle — the publishers' own serialization of what they published:

- every delivered value is byte-identical to one published value
  (re-serialized through :class:`BinarySerializer`), with no duplicates
  and nothing unpublished;
- each publisher's values arrive in the order it published them;
- every value published after the first drain that follows a
  subscriber's attachment reaches that subscriber;
- replica logs are byte-identical to their origin shard's log records at
  the same offsets;
- after a per-shard warm-up publish, shard codecs perform ZERO
  value-level decodes — forwarded, relayed and replicated records cross
  shard boundaries header-only.
"""

import os
import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.tps import BrokerMesh, TpsBroker, TpsPeer
from repro.apps.tps.topology import Topology
from repro.fixtures import person_assembly_pair, person_java
from repro.net.network import SimulatedNetwork
from repro.serialization.binary import BinarySerializer
from repro.serialization.envelope import EnvelopeCodec

N_SHARDS = 3

# One op = (kind, shard index[, batch size]).  "pub" is a fire-and-forget
# publish homed on a chosen shard, "batch" a durable multi-value publish
# (ONE log record), "sub" attaches a new remote subscriber at a chosen
# shard, "drain" pumps the mesh to quiescence mid-sequence so buffered
# and freshly-queued traffic interleave differently across examples.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("pub"), st.integers(0, N_SHARDS - 1)),
        st.tuples(st.just("batch"), st.integers(0, N_SHARDS - 1),
                  st.integers(1, 3)),
        st.tuples(st.just("sub"), st.integers(0, N_SHARDS - 1)),
        st.tuples(st.just("drain"),),
    ),
    min_size=1,
    max_size=12,
)


class World:
    """Publishers and subscribers around one broker fabric, recording
    the golden oracle: each publisher's serialized values in publish
    order, and the values each subscriber must receive."""

    def __init__(self, network, brokers, pump):
        self.network = network
        self.brokers = brokers
        self.pump = pump
        #: One publisher per broker: publisher i always publishes to
        #: broker i, so its values form one ordered stream.
        self.publishers = []
        asm_a, _ = person_assembly_pair()
        for index in range(len(brokers)):
            publisher = TpsPeer("pub%d" % index, network)
            publisher.host_assembly(asm_a)
            self.publishers.append(publisher)
        self.published = {}   # publisher id -> serialized values, in order
        self.delivered = {}   # subscriber id -> serialized values received
        self.required = {}    # subscriber id -> values it must receive
        self._armed = []      # subscribers attached since the last drain
        self._seq = 0

    def warm_up(self):
        """Teach every broker the type: its first publish is the one that
        fetches code; the measured phase must stay decode-free."""
        for index, publisher in enumerate(self.publishers):
            publisher.publish_async(
                self.brokers[index],
                publisher.new_instance("demo.a.Person", ["warm%d" % index]))
        self.drain()

    def publish(self, index, count=None):
        publisher = self.publishers[index]
        names = ["v%d-%d" % (self._seq, j) for j in range(count or 1)]
        self._seq += 1
        values = [publisher.new_instance("demo.a.Person", [name])
                  for name in names]
        serializer = BinarySerializer(publisher.runtime)
        encoded = [serializer.serialize(value) for value in values]
        self.published.setdefault(publisher.peer_id, []).extend(encoded)
        for required in self.required.values():
            required.extend(encoded)
        if count is None:
            publisher.publish_async(self.brokers[index], values[0])
        else:
            publisher.publish_durable(self.brokers[index], values)

    def subscribe(self, index):
        name = "sub%02d" % len(self.delivered)
        peer = TpsPeer(name, self.network)
        captured = self.delivered.setdefault(name, [])

        def capture(received, peer=peer, captured=captured):
            if received.accepted:
                captured.append(
                    BinarySerializer(peer.runtime).serialize(received.value))

        peer.on_receive(capture)
        peer.subscribe_remote(self.brokers[index], person_java(),
                              lambda view: None)
        self._armed.append(name)

    def drain(self):
        self.pump()
        for name in self._armed:
            self.required[name] = []
        self._armed = []

    def run(self, ops):
        for op in ops:
            if op[0] == "pub":
                self.publish(op[1] % len(self.brokers))
            elif op[0] == "batch":
                self.publish(op[1] % len(self.brokers), count=op[2])
            elif op[0] == "sub":
                self.subscribe(op[1] % len(self.brokers))
            else:
                self.drain()
        self.drain()

    def assert_matches_oracle(self):
        published = {value for values in self.published.values()
                     for value in values}
        for name, got in self.delivered.items():
            # Byte-identical to published values; no duplicates.
            assert set(got) <= published, name
            assert len(got) == len(set(got)), name
            # Each publisher's stream keeps its order.
            for stream in self.published.values():
                position = {value: at for at, value in enumerate(stream)}
                seen = [position[value] for value in got
                        if value in position]
                assert seen == sorted(seen), name
            # Everything published once the subscription settled arrives.
            missing = set(self.required.get(name, ())) - set(got)
            assert not missing, (name, len(missing))


def run_mesh(root, ops):
    """Drive one mesh through ``ops``; caller must ``close()`` it."""
    network = SimulatedNetwork()
    mesh = BrokerMesh(network, topology=Topology.sized(N_SHARDS),
                      log_root=os.path.join(root, "logs"),
                      replication_factor=1)
    world = World(network, mesh.shard_ids, mesh.run_until_idle)
    world.warm_up()
    for shard in mesh.shards:
        shard.codec.stats.decodes = 0
    world.run(ops)
    return mesh, world


def assert_replicas_match_origins(mesh):
    """Every replica record must be the byte-identical payload the origin
    shard logged at the same offset."""
    for origin in mesh.shards:
        origin_payloads = {record.offset: bytes(record.payload)
                           for record in origin.event_log.replay()}
        for follower_id in origin.followers:
            replica = mesh.shard(follower_id).replicas.log_for(
                origin.peer_id, create=False)
            if replica is None:
                continue
            for record in replica.replay():
                assert bytes(record.payload) == \
                    origin_payloads[record.offset]


@settings(max_examples=15, deadline=None)
@given(ops=_ops)
def test_mesh_frame_path_matches_oracle(ops):
    root = tempfile.mkdtemp()
    mesh = None
    try:
        mesh, world = run_mesh(root, ops)
        world.assert_matches_oracle()

        # The zero-copy guarantee: after warm-up, no shard decodes a
        # single value — publishes are admitted from the header,
        # forwards/relays travel as frames, replication streams payload
        # bytes verbatim.
        for shard in mesh.shards:
            assert shard.codec.stats.decodes == 0, shard.peer_id

        assert_replicas_match_origins(mesh)
    finally:
        if mesh is not None:
            mesh.close()
        shutil.rmtree(root, ignore_errors=True)


@settings(max_examples=15, deadline=None)
@given(ops=_ops)
def test_broker_frame_path_matches_oracle(ops):
    """The same alphabet against ONE non-mesh :class:`TpsBroker` (shard
    indices collapse onto it): deliveries match the oracle, the broker
    decodes nothing after warm-up, and its log holds one record per
    publish whose values are the published bytes, in order."""
    root = tempfile.mkdtemp()
    broker = None
    try:
        network = SimulatedNetwork()
        broker = TpsBroker("broker", network,
                           log_dir=os.path.join(root, "log"))
        world = World(network, ["broker"], network.run_until_idle)
        world.warm_up()
        broker.codec.stats.decodes = 0
        world.run(ops)
        world.assert_matches_oracle()
        assert broker.codec.stats.decodes == 0

        codec = EnvelopeCodec(broker.runtime)
        serializer = BinarySerializer(broker.runtime)
        records = list(broker.event_log.replay())
        assert len(records) == 1 + sum(op[0] in ("pub", "batch")
                                       for op in ops)
        logged = [serializer.serialize(value)
                  for record in records[1:]
                  for value in codec.unwrap_batch(
                      codec.parse(record.payload))]
        assert logged == world.published.get("pub0", [])
    finally:
        if broker is not None:
            broker.close()
        shutil.rmtree(root, ignore_errors=True)


_local_ops = st.lists(
    st.one_of(
        st.tuples(st.just("person"), st.integers(1, 3)),
        st.tuples(st.just("account"), st.integers(1, 3)),
        st.tuples(st.just("sub"),),
    ),
    min_size=1, max_size=10,
)


@settings(max_examples=20, deadline=None)
@given(ops=_local_ops)
def test_local_broker_frame_publish_matches_unwrap_batch(ops):
    """The in-process broker's frame publish delivers what
    ``codec.unwrap_batch`` of the same frame holds: every matching value,
    once per subscription, in frame order — and a publish that matches
    no local subscription decodes ZERO values."""
    from repro.apps.tps.broker import LocalBroker
    from repro.fixtures import account_csharp
    from repro.cts.assembly import Assembly
    from repro.runtime.loader import Runtime

    runtime = Runtime()
    asm_a, _ = person_assembly_pair()
    runtime.load_assembly(asm_a)
    runtime.load_assembly(Assembly("bank", [account_csharp()]))
    encoder = EnvelopeCodec(runtime)
    oracle = EnvelopeCodec(runtime)

    broker = LocalBroker(runtime=runtime)
    delivered, expected = [], []
    subscriptions = 0
    published = 0

    seq = 0
    for op in ops:
        if op[0] == "sub":
            # Subscriptions match Person only — Account publishes are the
            # no-match traffic.  Handlers receive conformance proxies;
            # the proxied name is the observable value identity.
            broker.subscribe(person_java(),
                             lambda event: delivered.append(
                                 event.getPersonName()))
            subscriptions += 1
            continue
        type_name = ("demo.a.Person" if op[0] == "person"
                     else "demo.bank.Account")
        values = [
            runtime.new_instance(type_name, ["v%d-%d" % (seq, j)]
                                 if op[0] == "person"
                                 else ["v%d-%d" % (seq, j), j])
            for j in range(op[1])
        ]
        seq += 1
        frame = encoder.encode_batch(values)
        counted = broker.publish_frame(frame)
        published += len(values)
        matching = [value.GetName()
                    for value in oracle.unwrap_batch(oracle.parse(frame))
                    if op[0] == "person"]
        assert counted == len(matching) * subscriptions
        for name in matching:
            expected.extend([name] * subscriptions)

    assert delivered == expected
    assert broker.published == published

    # The zero-decode claim, isolated: with subscriptions attached that
    # cannot match, a fresh no-match publish touches the header only.
    no_match = LocalBroker(runtime=runtime)
    no_match.subscribe(person_java(), lambda event: None)
    account = runtime.new_instance("demo.bank.Account", ["acct", 1])
    assert no_match.publish_frame(encoder.encode_batch([account])) == 0
    assert no_match.codec.stats.decodes == 0


@settings(max_examples=10, deadline=None)
@given(ops=_ops, drop_percent=st.integers(0, 30), seed=st.integers(0, 7))
def test_replicas_stay_byte_identical_under_loss(ops, drop_percent, seed):
    """Replication on a lossy fabric (drops + re-sends) still lands only
    byte-identical copies of origin records — the gap-rejecting watermark
    protocol never persists a frame the origin did not log."""
    root = tempfile.mkdtemp()
    mesh = None
    try:
        network = SimulatedNetwork(drop_rate=drop_percent / 100.0, seed=seed)
        mesh = BrokerMesh(network, topology=Topology.sized(N_SHARDS),
                          log_root=os.path.join(root, "logs"),
                          replication_factor=2)
        publisher = TpsPeer("publisher", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        seq = 0
        for op in ops:
            if op[0] in ("pub", "batch"):
                publisher.publish_async(
                    mesh.shard_ids[op[1]],
                    publisher.new_instance("demo.a.Person", ["l%d" % seq]))
                seq += 1
            elif op[0] == "drain":
                mesh.run_until_idle()
        mesh.run_until_idle()
        assert_replicas_match_origins(mesh)
    finally:
        if mesh is not None:
            mesh.close()
        shutil.rmtree(root, ignore_errors=True)
