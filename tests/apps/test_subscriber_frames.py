"""Frames sent to subscribers carry only what a subscriber reads.

A shard's stored frame holds two attributes for logs and sibling shards
only: ``keys`` (the compaction keys) and ``home`` (where a forwarded-in
copy came from).  Every frame a :class:`TpsBroker` or :class:`MeshShard`
sends to a subscriber — live or replayed — leaves without them, while
``origin``, ``trace`` and the ack token stay.  Frames a shard logs,
forwards, replicates or serves to a sibling keep both.
"""

from repro.apps.tps import BrokerMesh, TpsBroker, TpsPeer
from repro.apps.tps.mesh import KIND_MESH_FORWARD
from repro.apps.tps.topology import Topology
from repro.fixtures import person_assembly_pair, person_java
from repro.net.network import SimulatedNetwork
from repro.serialization.envelope import parse_frame_header, split_frames
from repro.transport.protocol import KIND_BACKLOG_FETCH, KIND_OBJECT_BATCH


def spy(network):
    """Record every queued message and every request/response on
    ``network`` as ``(src, dst, kind, payload, response)``."""
    seen = []
    deliver = network._deliver_queued
    request = network.request

    def queued(src, dst, kind, payload):
        seen.append((src, dst, kind, bytes(payload), None))
        return deliver(src, dst, kind, payload)

    def answered(src, dst, kind, payload):
        response = request(src, dst, kind, payload)
        seen.append((src, dst, kind, bytes(payload), response))
        return response

    network._deliver_queued = queued
    network.request = answered
    return seen


def frames_to(seen, kind, dst=None):
    """The header of every frame of every ``kind`` message (to ``dst``)."""
    headers = []
    for _, to, sent_kind, payload, _ in seen:
        if sent_kind == kind and (dst is None or to == dst):
            for frame in split_frames(payload):
                header = parse_frame_header(frame)
                assert header is not None
                headers.append(header)
    return headers


def stored_headers(log):
    return [parse_frame_header(record.payload) for record in log.replay()]


def make_publisher(network):
    publisher = TpsPeer("publisher", network)
    asm_a, _ = person_assembly_pair()
    publisher.host_assembly(asm_a)
    return publisher


def person(publisher, name):
    return publisher.new_instance("demo.a.Person", [name])


def key_names(header):
    """The person names a frame's compaction keys end in."""
    return [key.rsplit("=", 1)[1].strip("'") for key in header.keys]


def assert_subscriber_frame(header):
    assert header.keys is None and header._keys_text is None
    assert header.home is None


class TestTpsBroker:
    def test_live_and_replayed_frames_drop_keys_and_home(self, tmp_path,
                                                         opened):
        network = SimulatedNetwork()
        broker = opened(TpsBroker("broker", network,
                                  log_dir=str(tmp_path / "broker")))
        publisher = make_publisher(network)
        seen = spy(network)
        for index in range(3):
            publisher.publish("broker", person(publisher, "b%d" % index))
        got = []
        late = TpsPeer("late", network)
        late.subscribe_durable_remote("broker", person_java(), got.append,
                                      cursor="late")
        live = TpsPeer("live", network)
        live.subscribe_remote("broker", person_java(), got.append)
        network.run_until_idle()
        publisher.publish("broker", person(publisher, "l0"))
        network.run_until_idle()
        assert sorted(v.getPersonName() for v in got) == \
            ["b0", "b1", "b2", "l0", "l0"]

        stored = stored_headers(broker.event_log)
        assert len(stored) == 4
        assert [key_names(header) for header in stored] == \
            [["b0"], ["b1"], ["b2"], ["l0"]]
        replayed_and_live = frames_to(seen, KIND_OBJECT_BATCH, "late")
        assert len(replayed_and_live) == 4
        for header, logged in zip(replayed_and_live, stored):
            assert_subscriber_frame(header)
            assert (header.origin, header.trace) == \
                (logged.origin, logged.trace)
            assert header.batch_roots == logged.batch_roots
        # The durable messages carry their ack token.
        assert replayed_and_live[-1].ack is not None
        live_frames = frames_to(seen, KIND_OBJECT_BATCH, "live")
        assert len(live_frames) == 1
        assert_subscriber_frame(live_frames[0])
        assert live_frames[0].origin == "publisher"

    def test_one_strip_per_record_whatever_the_destinations(self, opened):
        """The strip is shared: N plain subscribers on N peers cost the
        same splices per record as one."""
        splices = []
        for peers in (1, 4):
            network = SimulatedNetwork()
            broker = opened(TpsBroker("broker", network))
            publisher = make_publisher(network)
            got = []
            for index in range(peers):
                TpsPeer("sub%d" % index, network).subscribe_remote(
                    "broker", person_java(), got.append)
            network.run_until_idle()
            broker.codec.stats.header_splices = 0
            for index in range(5):
                publisher.publish("broker", person(publisher, "p%d" % index))
            network.run_until_idle()
            assert len(got) == 5 * peers
            splices.append(broker.codec.stats.header_splices)
        assert splices[0] == splices[1] == 5


class TestBrokerMesh:
    def make_mesh(self, tmp_path, opened, replication_factor=0):
        network = SimulatedNetwork()
        mesh = opened(BrokerMesh(network, topology=Topology.sized(2),
                                 log_root=str(tmp_path / "mesh"),
                                 replication_factor=replication_factor))
        publisher = make_publisher(network)
        home = mesh.shard_for("publisher")
        other, = [shard_id for shard_id in mesh.shard_ids
                  if shard_id != home]
        return network, mesh, publisher, home, other

    def test_forwarded_in_copies_reach_subscribers_stripped(self, tmp_path,
                                                            opened):
        """A subscriber at the shard that is not the publisher's home gets
        the forwarded-in copy, live and on replay, without ``home`` or
        ``keys``; the forward and the stored copy keep both."""
        network, mesh, publisher, home, other = self.make_mesh(
            tmp_path, opened)
        seen = spy(network)
        got = []
        first = TpsPeer("first", network)
        first.subscribe_durable_remote(other, person_java(), got.append,
                                       cursor="first")
        mesh.run_until_idle()
        for index in range(3):
            publisher.publish_async(home, person(publisher, "f%d" % index))
        mesh.run_until_idle()
        assert [v.getPersonName() for v in got] == ["f0", "f1", "f2"]

        forwards = frames_to(seen, KIND_MESH_FORWARD, other)
        assert len(forwards) == 3
        assert all(header.home is not None and header.keys is not None
                   for header in forwards)
        stored = stored_headers(mesh.shard(other).event_log)
        assert [header.home for header in stored] == \
            [header.home for header in forwards]
        assert all(header.keys is not None for header in stored)
        for header in frames_to(seen, KIND_OBJECT_BATCH, "first"):
            assert_subscriber_frame(header)
            assert header.origin == "publisher"

        # A second durable subscriber at the same shard replays the
        # forwarded-in copies from its log: stripped too.
        replayed = []
        second = TpsPeer("second", network)
        second.subscribe_durable_remote(other, person_java(),
                                        replayed.append, cursor="second")
        mesh.run_until_idle()
        assert sorted(v.getPersonName() for v in replayed) == \
            ["f0", "f1", "f2"]
        to_second = frames_to(seen, KIND_OBJECT_BATCH, "second")
        assert len(to_second) == 3
        for header in to_second:
            assert_subscriber_frame(header)

    def test_backlog_served_to_a_sibling_keeps_keys(self, tmp_path, opened):
        """Records published before any subscriber reach a later durable
        subscriber at the other shard through backlog fetch: the page a
        shard serves its sibling carries the stored frames whole, and
        only the relay to the subscriber strips them."""
        network, mesh, publisher, home, other = self.make_mesh(
            tmp_path, opened)
        for index in range(2):
            publisher.publish_async(home, person(publisher, "k%d" % index))
        mesh.run_until_idle()
        seen = spy(network)
        got = []
        TpsPeer("late", network).subscribe_durable_remote(
            other, person_java(), got.append, cursor="late")
        mesh.run_until_idle()
        assert sorted(v.getPersonName() for v in got) == ["k0", "k1"]
        pages = [response for _, _, kind, _, response in seen
                 if kind == KIND_BACKLOG_FETCH]
        assert pages and any(b' keys="' in page for page in pages)
        delivered = frames_to(seen, KIND_OBJECT_BATCH, "late")
        assert len(delivered) == 2
        for header in delivered:
            assert_subscriber_frame(header)

    def test_replicated_records_keep_keys(self, tmp_path, opened):
        network, mesh, publisher, home, other = self.make_mesh(
            tmp_path, opened, replication_factor=1)
        seen = spy(network)
        got = []
        TpsPeer("sub", network).subscribe_remote(home, person_java(),
                                                 got.append)
        mesh.run_until_idle()
        for index in range(2):
            publisher.publish_async(home, person(publisher, "r%d" % index))
        mesh.run_until_idle()
        assert [v.getPersonName() for v in got] == ["r0", "r1"]
        replica = mesh.shard(other).replicas.log_for(home, create=False)
        assert replica is not None
        copies = stored_headers(replica)
        assert [key_names(header) for header in copies] == [["r0"], ["r1"]]
        assert [key_names(header) for header in stored_headers(
            mesh.shard(home).event_log)] == [["r0"], ["r1"]]
        for header in frames_to(seen, KIND_OBJECT_BATCH, "sub"):
            assert_subscriber_frame(header)
