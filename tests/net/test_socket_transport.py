"""Socket transport: round trips, zero-copy dispatch, and the failure
paths the simulator cannot exercise — truncated frames on a real wire,
peers vanishing mid-batch, and send queues hitting backpressure."""

import os
import socket
import tempfile
import time

import pytest

from repro.net.network import NetworkError, UnknownPeerError
from repro.net.socket_transport import (
    _FIELD_MEMO_MAX,
    _SEGMENT_WRITE_MIN,
    SocketHub,
    SocketNetwork,
    _Link,
    _write_varint,
    format_address,
    parse_address,
)


def encode_frame(src, dst, kind, payload, flags=0, req_id=0):
    """A from-scratch encoder mirroring the wire layout, so these tests
    assert the format itself rather than whatever _encode_frame emits."""
    body = bytearray()
    body.append(flags)
    _write_varint(body, req_id)
    for field in (src, dst, kind):
        raw = field.encode("utf-8")
        _write_varint(body, len(raw))
        body += raw
    body += payload
    frame = bytearray()
    _write_varint(frame, len(body))
    frame += body
    return bytes(frame)


def uds_address():
    directory = tempfile.mkdtemp(prefix="repro-sock-")
    return "unix:%s/node.sock" % directory


@pytest.fixture
def hub():
    hub = SocketHub()
    yield hub
    hub.close()


def test_parse_and_format_addresses():
    assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
    assert parse_address("tcp:127.0.0.1:9000") == ("tcp", ("127.0.0.1", 9000))
    assert format_address("unix", "/tmp/x.sock") == "unix:/tmp/x.sock"
    assert format_address("tcp", ("127.0.0.1", 9000)) == "tcp:127.0.0.1:9000"
    with pytest.raises(ValueError):
        parse_address("carrier-pigeon:coop")


def test_uds_request_and_oneway_roundtrip(hub):
    server = hub.network("server-node")
    client = hub.network("client-node")
    address = uds_address()
    server.listen(address)
    client.add_route("service", address)

    seen = []

    def handler(kind, payload, src):
        seen.append((kind, bytes(payload), src))
        return b"pong:" + bytes(payload)

    server.register("service", handler)
    assert client.request("caller", "service", "echo", b"hi") == b"pong:hi"

    for index in range(5):
        client.post_async("caller", "service", "tick", b"%d" % index)
    hub.run_until_idle()
    oneways = [entry for entry in seen if entry[0] == "tick"]
    # FIFO survives the socket: one-way frames arrive in publish order.
    assert [payload for _, payload, _ in oneways] == \
        [b"0", b"1", b"2", b"3", b"4"]
    assert all(src == "caller" for _, _, src in oneways)
    assert hub.idle()


def test_tcp_port_zero_resolves_and_serves(hub):
    server = hub.network("server-node")
    client = hub.network("client-node")
    bound = server.listen("tcp:127.0.0.1:0")
    scheme, (host, port) = parse_address(bound)
    assert scheme == "tcp" and port != 0
    server.register("service", lambda kind, payload, src: b"over-tcp")
    client.add_route("service", bound)
    assert client.request("caller", "service", "ping", b"") == b"over-tcp"


def test_peer_learning_via_announce(hub):
    server = hub.network("server-node")
    client = hub.network("client-node")
    address = uds_address()
    server.listen(address)
    server.register("early", lambda kind, payload, src: b"OK")
    client.add_route("early", address)
    assert client.request("caller", "early", "ping", b"") == b"OK"
    # A peer registered AFTER the link exists is announced over it: the
    # client can now reach it with no route of its own.
    server.register("late", lambda kind, payload, src: b"LATE")
    hub.run_until_idle()
    assert client.request("caller", "late", "ping", b"") == b"LATE"


def test_unknown_peer_raises_immediately(hub):
    client = hub.network("client-node")
    with pytest.raises(UnknownPeerError):
        client.post_async("caller", "nowhere", "tick", b"")


def test_zero_copy_kinds_arrive_as_memoryview(hub):
    server = hub.network("server-node")
    client = hub.network("client-node")
    address = uds_address()
    server.listen(address)
    types_seen = {}

    def handler(kind, payload, src):
        types_seen[kind] = type(payload)
        return b"OK"

    server.register("service", handler)
    client.add_route("service", address)
    client.post_async("caller", "service", "object", b"zero-copy")
    client.post_async("caller", "service", "tps_subscribe", b"copied")
    hub.run_until_idle()
    # Hot kinds are views into the link's pooled receive buffer; cold
    # kinds get a private bytes copy their handlers may retain.
    assert types_seen["object"] is memoryview
    assert types_seen["tps_subscribe"] is bytes


def test_truncated_frame_on_the_wire_is_counted():
    server = SocketNetwork("server-node")
    try:
        address = uds_address()
        server.listen(address)
        received = []
        server.register("service",
                        lambda kind, payload, src:
                        received.append(bytes(payload)) or b"OK")
        path = parse_address(address)[1]
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(path)
        raw.sendall(encode_frame("caller", "service", "object", b"whole"))
        for _ in range(50):
            server.poll(0.01)
            if received:
                break
        # Half a frame, then the peer vanishes mid-transmission.
        raw.sendall(encode_frame("caller", "service", "object",
                                 b"never finished")[:-5])
        raw.close()
        for _ in range(50):
            server.poll(0.01)
            if server.framing_errors:
                break
        assert received == [b"whole"]
        assert server.framing_errors == 1
        assert server.frames_received == 1
    finally:
        server.close()


def test_malformed_frame_aborts_only_that_link(hub):
    server = hub.network("server-node")
    client = hub.network("client-node")
    address = uds_address()
    server.listen(address)
    server.register("service", lambda kind, payload, src: b"OK")
    client.add_route("service", address)

    path = parse_address(address)[1]
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.connect(path)
    raw.sendall(b"\xff" * 16)  # unbounded varint: not a frame
    for _ in range(50):
        hub.poll(0.01)
        if server.framing_errors:
            break
    raw.close()
    assert server.framing_errors == 1
    # The poisoned link died alone — a healthy peer is unaffected.
    assert client.request("caller", "service", "ping", b"") == b"OK"


def _unread_sink():
    """A listening socket that accepts but never reads."""
    directory = tempfile.mkdtemp(prefix="repro-sock-")
    path = os.path.join(directory, "sink.sock")
    sink = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sink.bind(path)
    sink.listen(1)
    return sink, path


def _fill_until_blocked(client, sink, path):
    """Post to the sink until the publisher blocks at the queue cap;
    returns the sink's accepted end of the link."""
    client.add_route("sink", "unix:" + path)
    payload = b"x" * 32 * 1024
    # The sink accepts but never reads: the kernel buffer fills, the
    # asyncio transport pauses, frames pile into the link's queue —
    # and the publisher BLOCKS at the cap instead of buffering on.
    accepted = None
    with pytest.raises(NetworkError, match="full"):
        for _ in range(1000):
            client.post_async("caller", "sink", "object", payload)
            if accepted is None:
                client.poll(0.01)
                sink.setblocking(False)
                try:
                    accepted = sink.accept()[0]
                except BlockingIOError:
                    accepted = None
    return accepted


def test_backpressure_blocks_the_publisher_never_drops():
    sink, path = _unread_sink()
    client = SocketNetwork("client-node", max_queue_bytes=64 * 1024,
                           backpressure_timeout=0.3)
    accepted = None
    try:
        accepted = _fill_until_blocked(client, sink, path)
        assert client.blocked_sends >= 1
        # Nothing was silently discarded: every frame sent is still
        # queued on the link or already handed to the kernel.
        assert client.frames_lost == 0
    finally:
        client.close()
        if accepted is not None:
            accepted.close()
        sink.close()


def test_close_releases_a_link_whose_peer_stopped_reading():
    """A transport with unsent bytes never finishes a graceful close, so
    close() aborts it: the link's socket is closed when close() returns."""
    sink, path = _unread_sink()
    client = SocketNetwork("client-node", max_queue_bytes=64 * 1024,
                           backpressure_timeout=0.3)
    accepted = None
    try:
        accepted = _fill_until_blocked(client, sink, path)
        link, = client._links
        link_socket = link.transport.get_extra_info("socket")
        assert link.transport.get_write_buffer_size() > 0
        client.close()
        assert link_socket.fileno() == -1
    finally:
        client.close()
        if accepted is not None:
            accepted.close()
        sink.close()


def test_peer_disconnect_mid_batch_fails_pending_request():
    directory = tempfile.mkdtemp(prefix="repro-sock-")
    path = os.path.join(directory, "flaky.sock")
    flaky = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    flaky.bind(path)
    flaky.listen(1)
    client = SocketNetwork("client-node", request_timeout=5.0)
    try:
        client.add_route("flaky", "unix:" + path)
        client.connect("unix:" + path)
        client.poll(0.01)
        accepted = flaky.accept()[0]
        accepted.close()  # the peer dies with the request in flight
        with pytest.raises(NetworkError, match="lost"):
            client.request("caller", "flaky", "fetch", b"")
    finally:
        client.close()
        flaky.close()


def test_dead_link_counts_queued_frames_as_lost():
    directory = tempfile.mkdtemp(prefix="repro-sock-")
    path = os.path.join(directory, "gone.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(1)
    client = SocketNetwork("client-node")
    try:
        client.add_route("gone", "unix:" + path)
        client.connect("unix:" + path)
        client.poll(0.01)
        accepted = listener.accept()[0]
        # Stay under max_queue_bytes so no send blocks; the peer never
        # reads, so most frames are still queued when it dies.
        payload = b"y" * 128 * 1024
        for _ in range(24):
            client.post_async("caller", "gone", "object", payload)
        accepted.close()
        for _ in range(100):
            client.poll(0.01)
            if client.frames_lost:
                break
        # Whatever had not reached the kernel when the peer died is
        # accounted, loudly, in both counter surfaces.
        assert client.frames_lost > 0
        assert client.stats.dropped >= client.frames_lost
        snapshot = client.transport_snapshot()
        assert snapshot["frames_lost"] == client.frames_lost
    finally:
        client.close()
        listener.close()


def wire_bytes(frame):
    """Flatten a queued frame to the bytes the kernel would see."""
    return b"".join(frame.segments)


class _ReentrantTransport:
    """A fake transport where every write crosses the high-water mark:
    it fires ``pause_writing`` and then (kernel drained) ``resume_writing``
    *synchronously*, re-entering ``_drain`` from inside ``_drain``."""

    def __init__(self, link):
        self.link = link
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        self.link.pause_writing()
        self.link.resume_writing()

    def writelines(self, segments):
        self.writes.append(b"".join(segments))
        self.link.pause_writing()
        self.link.resume_writing()


def test_drain_reentry_from_resume_writing_writes_each_frame_once():
    """Regression: resume_writing used to re-enter _drain while the outer
    loop still owned the queue.  With the guard, a deep queue under
    synchronous pause/resume per write drains exactly once, in FIFO
    order, at recursion depth one (no RecursionError)."""
    network = SocketNetwork("drain-node")
    try:
        link = _Link(network, None)
        link.transport = _ReentrantTransport(link)
        link.connected = True
        frames = [network._encode_frame(0, 0, "src", "dst", "object",
                                        b"%04d" % index)
                  for index in range(2000)]
        for frame in frames:
            link.tx.append(frame)
            link.tx_bytes += len(frame)
        link._drain()
        assert link.transport.writes == [wire_bytes(frame)
                                         for frame in frames]
        assert not link.tx
        assert link.tx_bytes == 0
        assert not link.paused
    finally:
        network.close()


def test_send_frame_under_reentrant_transport_is_exactly_once():
    network = SocketNetwork("drain-node")
    try:
        link = _Link(network, None)
        link.transport = _ReentrantTransport(link)
        link.connected = True
        for index in range(10):
            link.send_frame(network._encode_frame(
                0, 0, "src", "dst", "object", b"n%d" % index))
        assert len(link.transport.writes) == 10
        assert link.tx_bytes == 0
    finally:
        network.close()


def test_scatter_frame_matches_flat_encoding_and_counts_copies():
    network = SocketNetwork("fast-node")
    try:
        payload = b"p" * 513
        wire = network._encode_frame(2, 77, "a-node", "b-node", "object",
                                     payload)
        reference = encode_frame("a-node", "b-node", "object", payload,
                                 flags=2, req_id=77)
        # The scatter frame puts the flat reference encoding on the wire.
        assert wire_bytes(wire) == reference
        assert len(wire) == len(reference)
        # The payload segment is the caller's object, by reference.
        assert wire.segments[1] is payload
        assert network.bytes_copied == 0
        # A non-bytes payload must be snapshotted (queued frames outlive
        # receive buffers) — and the copy is accounted.
        network._encode_frame(0, 0, "a-node", "b-node", "object",
                              memoryview(payload)[:100])
        assert network.bytes_copied == 100
    finally:
        network.close()


def test_scatter_send_switch_is_gone():
    with pytest.raises(TypeError):
        SocketNetwork("flat-node", scatter_send=False)


class _RecordingTransport:
    """Records each flush call with its flattened bytes, so tests can
    assert both *how* a frame went down (write vs writelines) and that
    the wire bytes are exact either way."""

    def __init__(self):
        self.calls = []

    def write(self, data):
        self.calls.append(("write", bytes(data)))

    def writelines(self, segments):
        self.calls.append(
            ("writelines", b"".join(bytes(s) for s in segments)))


def test_large_frames_write_segments_individually_on_joining_transports():
    """When the transport's writelines is the joining base implementation,
    a large scatter frame is flushed as per-segment writes (skipping the
    payload-sized join); small frames and native-writelines transports
    keep the single segmented call.  Wire bytes are identical on every
    path."""
    network = SocketNetwork("segment-node")
    try:
        link = _Link(network, None)
        transport = _RecordingTransport()
        link.transport = transport
        link.connected = True
        assert link._joining_writelines  # conservative default

        big = network._encode_frame(0, 0, "src", "dst", "object",
                                    b"x" * _SEGMENT_WRITE_MIN)
        small = network._encode_frame(0, 0, "src", "dst", "object",
                                      b"y" * (_SEGMENT_WRITE_MIN - 1))
        link.send_frame(big)
        link.send_frame(small)
        assert [name for name, _ in transport.calls] == \
            ["write", "write", "writelines"]
        assert b"".join(data for _, data in transport.calls[:2]) == \
            wire_bytes(big)
        assert transport.calls[2][1] == wire_bytes(small)

        # A native scatter-gather writelines (sendmsg-based) always gets
        # the single segmented call, payload size notwithstanding.
        link._joining_writelines = False
        transport.calls.clear()
        link.send_frame(big)
        assert [name for name, _ in transport.calls] == ["writelines"]
        assert transport.calls[0][1] == wire_bytes(big)
    finally:
        network.close()


def test_connection_made_detects_joining_writelines():
    """The flag comes from the transport class: asyncio's base
    ``writelines`` joins the segments (one payload-sized copy), so only
    transports that override it get unconditional ``writelines``."""
    import asyncio

    class _FakeBase(asyncio.Transport):
        def __init__(self):
            super().__init__()
            self.writes = []

        def write(self, data):
            self.writes.append(bytes(data))

        def set_write_buffer_limits(self, high=None, low=None):
            pass

        def get_extra_info(self, name, default=None):
            return default

        def close(self):
            pass

    class _FakeNative(_FakeBase):
        def writelines(self, list_of_data):
            for data in list_of_data:
                self.write(data)

    network = SocketNetwork("detect-node")
    try:
        joining = _Link(network, None)
        joining.connection_made(_FakeBase())
        assert joining._joining_writelines

        native = _Link(network, None)
        native.connection_made(_FakeNative())
        assert not native._joining_writelines
    finally:
        network.close()


def test_field_memo_is_bounded_and_correct_under_peer_churn():
    """The src/dst/kind encode memo caps at _FIELD_MEMO_MAX entries and
    survives eviction: churning through more distinct peers than the cap
    never grows the memo past the bound, and frames for evicted (and
    re-admitted) fields still encode byte-identically."""
    network = SocketNetwork("memo-node")
    try:
        for index in range(_FIELD_MEMO_MAX + 300):
            dst = "peer-%d" % index
            frame = network._encode_frame(0, 0, "caller", dst, "object",
                                          b"x")
            assert wire_bytes(frame) == \
                encode_frame("caller", dst, "object", b"x")
            assert len(network._field_memo) <= _FIELD_MEMO_MAX
        # "caller" was evicted along the way; re-encoding re-admits it
        # and the frame is still exact.
        frame = network._encode_frame(0, 0, "caller", "peer-0", "object",
                                      b"y")
        assert wire_bytes(frame) == \
            encode_frame("caller", "peer-0", "object", b"y")
        assert len(network._field_memo) <= _FIELD_MEMO_MAX
    finally:
        network.close()


def test_transport_snapshot_shape(hub):
    server = hub.network("server-node")
    client = hub.network("client-node")
    address = uds_address()
    server.listen(address)
    server.register("service", lambda kind, payload, src: b"OK")
    client.add_route("service", address)
    client.request("caller", "service", "ping", b"data")
    hub.run_until_idle()
    snapshot = client.transport_snapshot()
    for key in ("node", "frames_sent", "frames_received", "frames_lost",
                "bytes_received", "framing_errors", "blocked_sends",
                "queue_high_water", "links", "recv_pool",
                "by_kind_messages", "by_kind_bytes"):
        assert key in snapshot, key
    assert snapshot["node"] == "client-node"
    assert snapshot["by_kind_messages"].get("ping") == 1
    assert "buffer_pool_hits" in snapshot["recv_pool"]


# -- event-driven pumping ----------------------------------------------------


def _linked_pair(hub):
    """A client and a server hub node whose link is already up."""
    server = hub.network("server-node")
    client = hub.network("client-node")
    address = uds_address()
    server.listen(address)
    seen = []
    server.register("service", lambda kind, payload, src:
                    seen.append(bytes(payload)) or b"OK")
    client.add_route("service", address)
    assert client.request("caller", "service", "ping", b"") == b"OK"
    hub.run_until_idle()
    seen.clear()
    return client, seen


def test_hub_poll_returns_when_a_oneway_frame_arrives(hub):
    client, seen = _linked_pair(hub)
    client.post_async("caller", "service", "tick", b"early")
    began = time.monotonic()
    dispatched = hub.poll(5.0)
    # The bound is 5 s; the frame ends the wait as soon as it is read.
    assert time.monotonic() - began < 1.0
    assert dispatched == 1
    assert seen == [b"early"]


def test_standalone_poll_returns_when_a_oneway_frame_arrives():
    server = SocketNetwork("server-node")
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        address = server.listen(uds_address())
        seen = []
        server.register("service", lambda kind, payload, src:
                        seen.append(bytes(payload)) or b"OK")
        raw.connect(parse_address(address)[1])
        raw.sendall(encode_frame("caller", "service", "tick", b"early"))
        began = time.monotonic()
        dispatched = server.poll(5.0)
        assert time.monotonic() - began < 1.0
        assert dispatched == 1
        assert seen == [b"early"]
    finally:
        raw.close()
        server.close()


def test_hub_request_completes_inside_one_pump_slice(hub):
    client, _ = _linked_pair(hub)
    rounds = 50
    began = time.monotonic()
    for _ in range(rounds):
        assert client.request("caller", "service", "ping", b"") == b"OK"
    # A request pumps in 2 ms slices; each round trip ends its slice
    # early instead of sleeping it out (at least two slices apiece).
    assert time.monotonic() - began < rounds * 0.002


@pytest.mark.parametrize("on_hub", [True, False])
def test_poll_without_traffic_waits_its_full_bound(hub, on_hub):
    node = hub.network("quiet-node") if on_hub else SocketNetwork("quiet")
    try:
        began = time.monotonic()
        assert node.poll(0.05) == 0
        assert time.monotonic() - began >= 0.04
    finally:
        if not on_hub:
            node.close()


def test_requests_only_wait_does_not_spin_on_queued_oneway_frames(
        monkeypatch):
    directory = tempfile.mkdtemp(prefix="repro-sock-")
    path = os.path.join(directory, "slow.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(1)
    client = SocketNetwork("client-node", request_timeout=0.2)
    accepted = None
    try:
        seen = []
        client.register("svc", lambda kind, payload, src:
                        seen.append(bytes(payload)) or b"OK")
        client.add_route("slow", "unix:" + path)
        client.connect("unix:" + path)
        client.poll(0.01)
        accepted = listener.accept()[0]
        accepted.sendall(encode_frame("slow", "svc", "tick", b"queued"))
        # The arrival ends a requests-only wait, which leaves it queued.
        began = time.monotonic()
        assert client.poll(5.0, requests_only=True) == 0
        assert time.monotonic() - began < 1.0
        assert client.pending() == 1
        runs = []
        run = client._loop.run_until_complete
        monkeypatch.setattr(client._loop, "run_until_complete",
                            lambda future: runs.append(1) or run(future))
        # The peer never answers: the request waits out its timeout in
        # 2 ms slices, and the queued frame must not cut any of them
        # short (a spinning wait would run the loop thousands of times).
        with pytest.raises(NetworkError, match="timed out"):
            client.request("caller", "slow", "fetch", b"")
        assert 0 < len(runs) <= 110
        assert client.poll(0) == 1
        assert seen == [b"queued"]
    finally:
        client.close()
        if accepted is not None:
            accepted.close()
        listener.close()
