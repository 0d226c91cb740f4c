"""Real socket transport: the production twin of :class:`SimulatedNetwork`.

:class:`SocketNetwork` carries the exact peer-facing surface of the
simulator (``register``/``request``/``post``/``post_async``/``flush``/
``pending``/``stats``) over asyncio TCP or Unix-domain sockets, so every
endpoint built on :class:`~repro.net.peer.Peer` — brokers, mesh shards,
publishers, subscribers — runs unchanged on real bytes.

Wire layout — one transport message is a varint-length-prefixed frame::

    message := varint(len(body)) body
    body    := flags(1) varint(req_id)
               varint(len(src)) src  varint(len(dst)) dst
               varint(len(kind)) kind  payload

``payload`` is the application frame verbatim — for the bulk kinds
(``object``, ``object_batch``, ``mesh_forward``) that is an ``XME2``
envelope or ``XMEB`` multi-frame container, handed to the handler as a
**memoryview into the link's pooled receive buffer**: a drain cycle
allocates O(links), not O(records), and lazy batch admission decodes
nothing the subscriber does not dispatch.  All other kinds (control
plane, acks, replication protocol messages) are copied to ``bytes``
before dispatch, because their handlers may retain them.

The send path is scatter-gather: encoding builds only the small frame
header (length prefix, flags, request id and memoized length-prefixed
``src``/``dst``/``kind`` encodings) and queues it alongside the payload
*by reference* as a :class:`_WireFrame` segment list; draining flushes
each frame with ``transport.writelines`` (writev-style), so a
steady-state send never materializes a payload-sized buffer.  Payloads
that arrive as anything but ``bytes`` are snapshotted once — queued
frames outlive their caller's buffers — and that copy is counted in
``bytes_copied``, keeping the zero-copy claim observable.

Delivery discipline:

- **Send queues are bounded per link** (``max_queue_bytes``).  A full
  queue *blocks the publisher* — ``post_async`` pumps the event loop
  until the kernel drains enough to make room — and never drops or
  buffers without bound.  Overflowing past ``backpressure_timeout``
  raises :class:`NetworkError`.
- The event loop is **explicitly pumped, single-threaded**: I/O happens
  inside :meth:`poll`'s run phase, handlers run synchronously in its
  dispatch phase (never inside a socket callback), exactly like the
  simulator's drain — so broker code needs no locking and a handler may
  issue nested :meth:`request` calls mid-dispatch.  The run phase is
  event-driven: it ends as soon as a data frame, a reply or a link event
  arrives, and its ``wait`` is only an upper bound.
- Peers are discovered per link: each side of a connection announces its
  registered peer ids (and keeps announcing as peers register and
  unregister), so one socket multiplexes every peer of a process and
  responses ride the link the request arrived on.
"""

from __future__ import annotations

import asyncio
import os
import socket
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..cts.registry import BoundedMemo
from ..serialization.envelope import CodecStats, _BufferPool
from .network import Handler, NetworkError, NetworkStats, UnknownPeerError

__all__ = [
    "DEFAULT_ZERO_COPY_KINDS",
    "SocketHub",
    "SocketNetwork",
    "format_address",
    "parse_address",
]

#: Kinds whose payloads are dispatched as zero-copy memoryviews into the
#: link's receive buffer.  Everything on this list must treat the payload
#: as borrowed for the duration of the handler call (the envelope/frame
#: readers do: decodes snapshot, stores copy).
DEFAULT_ZERO_COPY_KINDS = frozenset(
    {"object", "object_batch", "mesh_forward"})

_FLAG_ONEWAY = 0
_FLAG_REQUEST = 1
_FLAG_RESPONSE = 2
_FLAG_CONTROL = 3

_CTRL_HELLO = "hello"
_CTRL_ANNOUNCE = "announce"
_CTRL_REVOKE = "revoke"

#: Sanity bound on one wire frame; anything larger is a framing error
#: (a corrupted length prefix would otherwise stall the link forever
#: waiting for petabytes that never come).
_MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Transport write-buffer high-water mark: beyond it the protocol gets
#: ``pause_writing`` and the link stops draining its queue, which is what
#: makes the queue bound (and its backpressure) meaningful.
_WRITE_HIGH_WATER = 64 * 1024

#: Payload size above which a scatter frame is flushed as two ``write``
#: calls instead of one ``writelines`` when the transport's ``writelines``
#: is the joining base implementation (CPython < 3.12 selector
#: transports): past this point the joined payload-sized copy costs more
#: than the extra syscall.  Transports with a native scatter-gather
#: ``writelines`` (sendmsg-based) always get the single segmented call.
_SEGMENT_WRITE_MIN = 4096


def _write_varint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _varint_size(value: int) -> int:
    size = 1
    while value > 0x7F:
        value >>= 7
        size += 1
    return size


#: Cap on the memoized ``src``/``dst``/``kind`` field encodings.  The
#: stable strings of a mesh (node ids, peer ids, message kinds) number in
#: the hundreds; the cap only matters under unbounded peer churn, where
#: the memo starts over.
_FIELD_MEMO_MAX = 1024


def _scan_varint(data, pos: int, end: int) -> Optional[Tuple[int, int]]:
    """Read one varint in ``data[pos:end]``; ``None`` when incomplete,
    :class:`NetworkError` when malformed (too long to be a sane length)."""
    shift = 0
    value = 0
    while pos < end:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise NetworkError("malformed varint in frame header")
    return None


def parse_address(address: str) -> Tuple[str, object]:
    """``"unix:/path"`` or ``"tcp:host:port"`` → (scheme, target)."""
    if address.startswith("unix:"):
        return "unix", address[5:]
    if address.startswith("tcp:"):
        host, _, port = address[4:].rpartition(":")
        if not host or not port:
            raise ValueError("tcp address must be tcp:host:port")
        return "tcp", (host, int(port))
    raise ValueError("address must be unix:/path or tcp:host:port, got %r"
                     % address)


def format_address(scheme: str, target) -> str:
    if scheme == "unix":
        return "unix:%s" % target
    return "tcp:%s:%d" % target


class _WireFrame:
    """One encoded outbound message as a scatter-gather segment list.

    ``segments`` is ``(header, payload)``: the small frame header (length
    prefix + flags + req id + field table, ~20 bytes steady-state) plus
    the payload carried **by reference** — encoding a send allocates the
    header only, never a payload-sized buffer.  ``len()`` is the total
    wire size, which every byte-accounting site (``tx_bytes``,
    high-water, the backpressure bound) reads.
    """

    __slots__ = ("segments", "size")

    def __init__(self, segments: Tuple[bytes, ...], size: int):
        self.segments = segments
        self.size = size

    def __len__(self) -> int:
        return self.size


class _Inbound:
    """One parsed-but-not-yet-dispatched inbound frame: header fields are
    decoded eagerly (they are tiny), the payload stays as ``[start, end)``
    offsets into the link's receive buffer — offsets, not memoryviews, so
    the buffer can keep growing while frames wait for the dispatch phase."""

    __slots__ = ("flags", "req_id", "src", "dst", "kind", "start", "end")

    def __init__(self, flags, req_id, src, dst, kind, start, end):
        self.flags = flags
        self.req_id = req_id
        self.src = src
        self.dst = dst
        self.kind = kind
        self.start = start
        self.end = end


class _Waiter:
    """Runs an explicitly pumped event loop until something arrives that
    a pump should act on, or a time bound passes.

    One per event loop, shared by every node on it (a :class:`SocketHub`
    hands its own to each node), so a frame parsed for any node ends the
    wait of whichever node is pumping.  Links :meth:`wake` it when a data
    frame is queued, a reply is stored, a link is lost or a paused link
    resumes writing."""

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self.loop = loop
        self._woken: Optional[asyncio.Future] = None

    def wake(self) -> None:
        woken = self._woken
        if woken is not None and not woken.done():
            woken.set_result(None)

    def run(self, wait: float) -> None:
        """Run the loop until woken or ``wait`` seconds pass; ``wait=0``
        runs one turn, and a wait nothing wakes lasts its full bound.
        Only events during the run wake it: whatever was already queued
        when it began, the caller has seen."""
        loop = self.loop
        if loop.is_running() or loop.is_closed():
            return  # re-entered from a handler running inside the loop
        woken = self._woken = loop.create_future()
        timer = loop.call_later(wait, self.wake)
        try:
            loop.run_until_complete(woken)
        finally:
            timer.cancel()
            self._woken = None


class _Link(asyncio.Protocol):
    """One socket connection: bounded send queue + pooled receive buffer."""

    def __init__(self, network: "SocketNetwork", address: Optional[str]):
        self.network = network
        self.address = address          # dial address; None for inbound
        self.transport: Optional[asyncio.Transport] = None
        self.connected = False
        self.dead = False
        self.failed = False
        self.paused = False
        self._draining = False
        self._joining_writelines = True
        #: Outbound frames not yet written to the transport.
        self.tx: Deque[_WireFrame] = deque()
        self.tx_bytes = 0
        self.tx_high_water = 0
        #: Pooled receive buffer; ``scan`` is the parse position.
        self.rx = network._recv_pool.acquire()
        self.scan = 0
        self.inbound: Deque[_Inbound] = deque()
        self.remote_node: Optional[str] = None
        self.remote_peers: Set[str] = set()
        #: The membership epoch the remote node last advertised (0 until
        #: a hello/announce carried an ``!epoch=`` tag).
        self.remote_epoch = 0

    # -- sending -----------------------------------------------------------

    def send_frame(self, frame: _WireFrame) -> None:
        self.tx.append(frame)
        self.tx_bytes += len(frame)
        if self.tx_bytes > self.tx_high_water:
            self.tx_high_water = self.tx_bytes
        if self.connected and not self.paused:
            self._drain()

    def _drain(self) -> None:
        # Idempotent under re-entry: a write that crosses the transport's
        # high-water mark can fire pause_writing and (once the kernel
        # drains) resume_writing *synchronously*, and resume_writing calls
        # _drain while the outer loop still owns the queue.  The guard
        # turns the nested call into a no-op, so each frame is popped and
        # written exactly once, in order, at recursion depth one.
        if self._draining:
            return
        self._draining = True
        try:
            transport = self.transport
            while self.tx and not self.paused and transport is not None:
                frame = self.tx.popleft()
                self.tx_bytes -= len(frame)
                # writev-style flush: header + payload go down as
                # separate segments, no joined payload-sized copy.
                segments = frame.segments
                if (self._joining_writelines
                        and len(segments[-1]) >= _SEGMENT_WRITE_MIN):
                    for segment in segments:
                        transport.write(segment)
                else:
                    transport.writelines(segments)
        finally:
            self._draining = False

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self._drain()
        self.network._waiter.wake()

    # -- asyncio.Protocol --------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.connected = True
        self._joining_writelines = (
            type(transport).writelines
            is asyncio.transports.WriteTransport.writelines)
        transport.set_write_buffer_limits(high=_WRITE_HIGH_WATER)
        sock = transport.get_extra_info("socket")
        if sock is not None and sock.family == getattr(socket, "AF_INET",
                                                       object()):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.network._link_connected(self)
        self._drain()

    def data_received(self, data: bytes) -> None:
        try:
            self.rx += data
        except BufferError:
            # A live memoryview pins the buffer against resizing — this
            # happens when a handler pumps the loop mid-dispatch (a nested
            # request) while still holding its zero-copy payload.  The
            # content moves to a fresh buffer (same layout, so queued
            # frame offsets stay valid); view holders keep the old one.
            fresh = bytearray(self.rx)
            fresh += data
            self.rx = fresh
        self._scan()

    def connection_lost(self, exc) -> None:
        self.network._link_lost(self, exc)

    def eof_received(self):
        return False  # close when the other side half-closes

    # -- frame scanning ----------------------------------------------------

    def _scan(self) -> None:
        """Parse every complete frame out of the receive buffer.

        Runs inside ``data_received`` (the I/O phase): header fields are
        decoded, control frames and request responses are handled on the
        spot (they are small and must not wait behind a busy dispatch
        loop), data frames queue as buffer offsets for the dispatch
        phase.  A malformed header kills the link — framing has no
        resync point."""
        rx = self.rx
        try:
            while True:
                total = len(rx)
                parsed = _scan_varint(rx, self.scan, total)
                if parsed is None:
                    return
                body_len, body_start = parsed
                if body_len > _MAX_FRAME_BYTES:
                    raise NetworkError("frame of %d bytes exceeds limit"
                                       % body_len)
                end = body_start + body_len
                if end > total:
                    return  # incomplete: wait for more bytes
                self._parse_body(rx, body_start, end)
                self.scan = end
        except NetworkError:
            self.network._framing_error(self)

    def _parse_body(self, rx, pos: int, end: int) -> None:
        if pos >= end:
            raise NetworkError("empty frame body")
        flags = rx[pos]
        pos += 1
        fields: List[str] = []
        parsed = _scan_varint(rx, pos, end)
        if parsed is None:
            raise NetworkError("truncated frame header")
        req_id, pos = parsed
        for _ in range(3):  # src, dst, kind
            parsed = _scan_varint(rx, pos, end)
            if parsed is None:
                raise NetworkError("truncated frame header")
            length, pos = parsed
            if pos + length > end:
                raise NetworkError("truncated frame header field")
            fields.append(bytes(rx[pos:pos + length]).decode("utf-8"))
            pos += length
        src, dst, kind = fields
        if flags == _FLAG_CONTROL:
            self.network._handle_control(self, kind, bytes(rx[pos:end]))
        elif flags == _FLAG_RESPONSE:
            self.network._fulfill(req_id, bytes(rx[pos:end]))
        elif flags in (_FLAG_ONEWAY, _FLAG_REQUEST):
            self.inbound.append(
                _Inbound(flags, req_id, src, dst, kind, pos, end))
            self.network._waiter.wake()
        else:
            raise NetworkError("unknown frame flags %d" % flags)

    # -- buffer hygiene ----------------------------------------------------

    def compact(self) -> None:
        """Drop consumed bytes once every parsed frame is dispatched.

        Called only at dispatch depth zero, when no payload memoryview
        can be live.  A handler that (wrongly) retained a view makes the
        trim impossible — the buffer is abandoned to the view holders and
        a fresh one takes over, so nothing ever reads recycled bytes."""
        if self.inbound or not self.scan:
            return
        try:
            del self.rx[:self.scan]
        except BufferError:
            self.rx = bytearray(memoryview(self.rx)[self.scan:])
        self.scan = 0

    def queued(self) -> int:
        return len(self.tx)


class SocketNetwork:
    """A socket-backed message fabric with the simulator's peer surface.

    One instance per process (or per node in a shared-loop test hub).
    Local peers :meth:`register` handlers; remote peers are reached via a
    static :meth:`add_route` address book or learned dynamically from the
    peer announcements each connection carries.  All I/O and all handler
    dispatch happen inside explicit pump calls (:meth:`poll`,
    :meth:`flush`, :meth:`request`) on the calling thread.
    """

    def __init__(self, node_id: str,
                 loop: Optional[asyncio.AbstractEventLoop] = None,
                 max_queue_bytes: int = 4 * 1024 * 1024,
                 request_timeout: float = 30.0,
                 backpressure_timeout: float = 30.0,
                 zero_copy_kinds=DEFAULT_ZERO_COPY_KINDS,
                 recv_pool_stats: Optional[CodecStats] = None):
        self.node_id = node_id
        #: The topology epoch this node advertises in its greetings (0 =
        #: not membership-aware); see :meth:`set_epoch`.
        self.epoch = 0
        self._owns_loop = loop is None
        self._loop = loop if loop is not None else asyncio.new_event_loop()
        self._waiter = _Waiter(self._loop)
        self.max_queue_bytes = max_queue_bytes
        self.request_timeout = request_timeout
        self.backpressure_timeout = backpressure_timeout
        self.zero_copy_kinds = frozenset(zero_copy_kinds)
        self._handlers: Dict[str, Handler] = {}
        self._routes: Dict[str, str] = {}
        self._links: List[_Link] = []
        self._links_by_address: Dict[str, _Link] = {}
        self._learned: Dict[str, _Link] = {}
        self._servers: List[asyncio.AbstractServer] = []
        self.listen_addresses: List[str] = []
        self._local: Deque[Tuple[str, str, str, bytes]] = deque()
        self._responses: Dict[int, object] = {}
        self._pending_requests: Dict[int, _Link] = {}
        self._next_req_id = 1
        self._connecting = 0
        self._dispatch_depth = 0
        self._closed = False
        #: Set when this node lives on a :class:`SocketHub` — pumping must
        #: then dispatch every sibling node, or a request to an in-process
        #: peer would wait forever for a handler that never runs.
        self.hub: Optional["SocketHub"] = None
        self.stats = NetworkStats()
        #: Receive-side buffer pool (the zero-copy ingest path); its
        #: ``buffer_pool_hits`` counts links served a warm buffer.
        self.recv_pool_stats = recv_pool_stats if recv_pool_stats is not None \
            else CodecStats()
        self._recv_pool = _BufferPool(self.recv_pool_stats, max_free=64)
        #: Scratch pool for frame headers and memoized length-prefixed
        #: ``src``/``dst``/``kind`` encodings (see :meth:`_encode_frame`).
        self._header_pool = _BufferPool()
        self._field_memo = BoundedMemo(_FIELD_MEMO_MAX)
        # Transport counters beyond the simulator's NetworkStats.
        self.frames_sent = 0          # data frames enqueued (incl. responses)
        self.frames_received = 0      # data frames dispatched/fulfilled
        self.frames_lost = 0          # queued frames a dead link took down
        self.bytes_received = 0
        self.framing_errors = 0
        self.blocked_sends = 0        # post_async calls that hit backpressure
        self.bytes_copied = 0         # payload bytes snapshotted at encode
        #: Opt-in bounded frame log in the simulator's ``(src, dst, kind,
        #: size)`` shape, so :func:`repro.net.trace.sequence_chart` renders
        #: real socket traffic exactly like simulated traffic.
        self.frame_log_enabled = False
        self.frame_log: Deque[Tuple[str, str, str, int]] = deque(maxlen=512)

    # -- membership (simulator-compatible) ---------------------------------

    def register(self, peer_id: str, handler: Handler) -> None:
        if peer_id in self._handlers:
            raise NetworkError("peer id %r already registered" % peer_id)
        self._handlers[peer_id] = handler
        self._broadcast_control(_CTRL_ANNOUNCE, [peer_id])

    def unregister(self, peer_id: str) -> None:
        if self._handlers.pop(peer_id, None) is not None and not self._closed:
            self._broadcast_control(_CTRL_REVOKE, [peer_id])

    def peers(self) -> List[str]:
        return sorted(self._handlers)

    def can_route(self, peer_id: str) -> bool:
        """Whether a send to ``peer_id`` can currently be resolved: a
        local handler, a live link that announced the peer, or a static
        directory entry.  Lets callers defer work for a peer that has
        simply not dialed this node yet instead of burning a send."""
        if peer_id in self._handlers or peer_id in self._routes:
            return True
        link = self._learned.get(peer_id)
        return link is not None and not link.dead

    # -- addressing --------------------------------------------------------

    def listen(self, address: str) -> str:
        """Open a listening endpoint; returns the canonical address (TCP
        port 0 is resolved to the bound port)."""
        scheme, target = parse_address(address)
        if scheme == "unix":
            server = self._loop.run_until_complete(
                self._loop.create_unix_server(
                    lambda: _Link(self, None), path=target))
            bound = format_address("unix", target)
        else:
            host, port = target
            server = self._loop.run_until_complete(
                self._loop.create_server(
                    lambda: _Link(self, None), host=host, port=port))
            sock = server.sockets[0]
            bound = format_address("tcp", sock.getsockname()[:2])
        self._servers.append(server)
        self.listen_addresses.append(bound)
        return bound

    def add_route(self, peer_id: str, address: str) -> None:
        """Static directory entry: ``peer_id`` lives behind ``address``."""
        parse_address(address)  # validate early
        self._routes[peer_id] = address

    def add_routes(self, routes: Dict[str, str]) -> None:
        for peer_id, address in routes.items():
            self.add_route(peer_id, address)

    def remove_route(self, peer_id: str) -> None:
        """Forget the directory entry for a departed peer (an open link,
        if any, stays up until it drains or dies — only *new* resolution
        stops)."""
        self._routes.pop(peer_id, None)

    def set_epoch(self, epoch: int) -> None:
        """Advertise a committed membership epoch: stamped into every
        future ``hello`` and announced immediately on live links as an
        ``!epoch=N`` tag riding the ``announce`` control kind (the ``!``
        prefix reserves a tag namespace no legal peer id uses)."""
        if epoch == self.epoch:
            return
        self.epoch = int(epoch)
        self._broadcast_control(_CTRL_ANNOUNCE, ["!epoch=%d" % self.epoch])

    def connect(self, address: str) -> None:
        """Pre-open a link (links otherwise open lazily on first send)."""
        self._link_to(address)

    # -- delivery (simulator-compatible) -----------------------------------

    def request(self, src: str, dst: str, kind: str, payload: bytes) -> bytes:
        if self.frame_log_enabled:
            self.frame_log.append((src, dst, kind, len(payload)))
        handler = self._handlers.get(dst)
        if handler is not None:
            # Local round trip, exactly like the simulator: inline call.
            response = handler(kind, payload, src)
            if not isinstance(response, bytes):
                raise NetworkError("handler for %r returned %s, expected "
                                   "bytes" % (kind, type(response).__name__))
            self.stats.record(kind, len(payload) + len(response),
                              round_trip=True)
            return response
        link = self._link_for(dst)
        req_id = self._next_req_id
        self._next_req_id += 1
        frame = self._encode_frame(_FLAG_REQUEST, req_id, src, dst, kind,
                                   payload)
        self._pending_requests[req_id] = link
        self.stats.record(kind, len(payload), round_trip=True)
        try:
            self._send_with_backpressure(link, frame)
            deadline = time.monotonic() + self.request_timeout
            while req_id not in self._responses:
                # Serve inbound *requests* while waiting: the responder
                # may need us (or a third node) to answer something first.
                # One-way data frames stay queued — dispatching them here
                # would run fan-out handlers mid-request and reorder the
                # publish stream around the blocked frame.  The pump
                # returns when the reply (or a request, or the link's
                # loss) arrives; 2 ms only bounds a quiet wait.
                self._pump(0.002, requests_only=True)
                if req_id not in self._responses \
                        and time.monotonic() > deadline:
                    raise NetworkError("request %s->%s %r timed out"
                                       % (src, dst, kind))
        finally:
            self._pending_requests.pop(req_id, None)
        result = self._responses.pop(req_id)
        if isinstance(result, Exception):
            raise result
        return result  # type: ignore[return-value]

    def post(self, src: str, dst: str, kind: str, payload: bytes) -> None:
        self.post_async(src, dst, kind, payload)

    def post_async(self, src: str, dst: str, kind: str,
                   payload: bytes) -> None:
        if self.frame_log_enabled:
            self.frame_log.append((src, dst, kind, len(payload)))
        if dst in self._handlers:
            self._local.append((src, dst, kind, bytes(payload)))
            self.stats.record(kind, len(payload), round_trip=False)
            return
        link = self._link_for(dst)
        frame = self._encode_frame(_FLAG_ONEWAY, 0, src, dst, kind, payload)
        self.stats.record(kind, len(payload), round_trip=False)
        self._send_with_backpressure(link, frame)

    def pending(self) -> int:
        return (len(self._local)
                + sum(link.queued() + len(link.inbound)
                      for link in self._links))

    def flush(self) -> int:
        """One pump: run the I/O phase until something arrives (at most
        1 ms), dispatch what arrived."""
        return self.poll(0.001)

    def run_until_idle(self, max_rounds: int = 10_000,
                       settle: float = 0.05) -> int:
        """Pump until this node has nothing queued in either direction and
        ``settle`` seconds pass without new work (each pump returns on
        the first arrival, or after 2 ms of quiet).  A single node cannot
        see bytes in flight elsewhere — use :meth:`SocketHub.run_until_idle`
        (or application-level accounting) for whole-fabric quiescence."""
        total = 0
        quiet_since: Optional[float] = None
        for _ in range(max_rounds):
            progressed = self.poll(0.002)
            total += progressed
            if progressed or self.pending():
                quiet_since = None
                continue
            now = time.monotonic()
            if quiet_since is None:
                quiet_since = now
            elif now - quiet_since >= settle:
                return total
        raise NetworkError("socket network did not go idle in %d rounds "
                           "(%d messages pending)"
                           % (max_rounds, self.pending()))

    # -- pumping -----------------------------------------------------------

    def poll(self, wait: float = 0.0, requests_only: bool = False) -> int:
        """Run the event loop until a data frame, a reply or a link event
        arrives, for at most ``wait`` seconds (the I/O phase), then
        dispatch parsed inbound frames (the dispatch phase).  ``wait=0``
        runs one loop turn; a wait nothing wakes lasts its full bound.
        Returns the number of frames dispatched."""
        self._waiter.run(wait)
        return self._dispatch_ready(requests_only=requests_only)

    def _pump(self, wait: float, requests_only: bool = False) -> int:
        if self.hub is not None:
            return self.hub.poll(wait, requests_only=requests_only)
        return self.poll(wait, requests_only=requests_only)

    def _dispatch_ready(self, requests_only: bool = False) -> int:
        processed = 0
        self._dispatch_depth += 1
        try:
            progress = True
            while progress:
                progress = False
                if not requests_only:
                    while self._local:
                        src, dst, kind, payload = self._local.popleft()
                        self._dispatch_local(src, dst, kind, payload)
                        processed += 1
                        progress = True
                for link in list(self._links):
                    if requests_only:
                        # Requests jump the queue; one-way frames keep
                        # their relative FIFO order for the next full
                        # dispatch phase.
                        if not any(entry.flags == _FLAG_REQUEST
                                   for entry in link.inbound):
                            continue
                        keep = deque()
                        while link.inbound:
                            entry = link.inbound.popleft()
                            if entry.flags == _FLAG_REQUEST:
                                self._dispatch_entry(link, entry)
                                processed += 1
                                progress = True
                            else:
                                keep.append(entry)
                        link.inbound = keep
                        continue
                    while link.inbound:
                        entry = link.inbound.popleft()
                        self._dispatch_entry(link, entry)
                        processed += 1
                        progress = True
        finally:
            self._dispatch_depth -= 1
        if self._dispatch_depth == 0:
            for link in list(self._links):
                link.compact()
                if link.dead and not link.inbound:
                    self._reap(link)
        return processed

    def _dispatch_local(self, src: str, dst: str, kind: str,
                        payload: bytes) -> None:
        handler = self._handlers.get(dst)
        if handler is None:
            self.stats.record_drop()  # peer left between enqueue and drain
            return
        try:
            handler(kind, payload, src)
        except Exception as exc:
            self.stats.record_handler_error()
            self.handler_error_log.append((dst, kind, repr(exc)))

    def _dispatch_entry(self, link: _Link, entry: _Inbound) -> None:
        self.frames_received += 1
        self.bytes_received += entry.end - entry.start
        if self.frame_log_enabled:
            self.frame_log.append((entry.src, entry.dst, entry.kind,
                                   entry.end - entry.start))
        handler = self._handlers.get(entry.dst)
        if handler is None:
            if entry.flags == _FLAG_REQUEST:
                self._respond(link, entry.req_id,
                              b"ERR:unknown-peer:" +
                              entry.dst.encode("utf-8"))
            else:
                self.stats.record_drop()
            return
        if entry.kind in self.zero_copy_kinds:
            payload: object = memoryview(link.rx)[entry.start:entry.end]
        else:
            payload = bytes(link.rx[entry.start:entry.end])
        try:
            response = handler(entry.kind, payload, entry.src)
        except Exception as exc:
            self.stats.record_handler_error()
            self.handler_error_log.append((entry.dst, entry.kind, repr(exc)))
            if entry.flags == _FLAG_REQUEST:
                self._respond(link, entry.req_id,
                              b"ERR:handler-error:" +
                              repr(exc).encode("utf-8", "replace"))
            return
        finally:
            if payload is not link.rx and isinstance(payload, memoryview):
                payload.release()
        if entry.flags == _FLAG_REQUEST:
            if not isinstance(response, bytes):
                response = b"ERR:bad-handler-response"
            self._respond(link, entry.req_id, response)

    def _respond(self, link: _Link, req_id: int, payload: bytes) -> None:
        # Responses bypass the backpressure block: they are produced inside
        # the dispatch phase, where pumping for queue space would recurse.
        frame = self._encode_frame(_FLAG_RESPONSE, req_id, "", "", "",
                                   payload)
        self.frames_sent += 1
        if not link.dead:
            link.send_frame(frame)
        else:
            self.frames_lost += 1

    # -- links -------------------------------------------------------------

    def _link_for(self, dst: str) -> _Link:
        link = self._learned.get(dst)
        if link is not None and not link.dead:
            return link
        address = self._routes.get(dst)
        if address is None:
            raise UnknownPeerError("no peer %r (no route, not announced)"
                                   % dst)
        return self._link_to(address)

    def _link_to(self, address: str) -> _Link:
        link = self._links_by_address.get(address)
        if link is not None and not link.dead:
            return link
        scheme, target = parse_address(address)
        link = _Link(self, address)
        self._links.append(link)
        self._links_by_address[address] = link
        link.send_frame(self._hello_frame())
        self._connecting += 1

        async def _open() -> None:
            try:
                if scheme == "unix":
                    await self._loop.create_unix_connection(
                        lambda: link, path=target)
                else:
                    host, port = target
                    await self._loop.create_connection(
                        lambda: link, host=host, port=port)
            except OSError as exc:
                self._link_lost(link, exc)
            finally:
                self._connecting -= 1

        asyncio.ensure_future(_open(), loop=self._loop)
        return link

    def _hello_frame(self) -> _WireFrame:
        lines = [self.node_id]
        if self.epoch:
            lines.append("!epoch=%d" % self.epoch)
        body = "\n".join(lines + sorted(self._handlers))
        return self._encode_frame(_FLAG_CONTROL, 0, "", "", _CTRL_HELLO,
                                  body.encode("utf-8"))

    def _broadcast_control(self, kind: str, peer_ids: List[str]) -> None:
        if not self._links:
            return
        frame = self._encode_frame(_FLAG_CONTROL, 0, "", "", kind,
                                   "\n".join(peer_ids).encode("utf-8"))
        for link in self._links:
            if not link.dead:
                link.send_frame(frame)

    def _link_connected(self, link: _Link) -> None:
        if link.address is None:      # inbound: adopt and greet back
            self._links.append(link)
            link.send_frame(self._hello_frame())

    def _handle_control(self, link: _Link, kind: str,
                        payload: bytes) -> None:
        names = payload.decode("utf-8").split("\n") if payload else []
        if kind == _CTRL_HELLO:
            if names:
                link.remote_node = names[0]
                names = names[1:]
        elif kind == _CTRL_REVOKE:
            for peer_id in names:
                link.remote_peers.discard(peer_id)
                if self._learned.get(peer_id) is link:
                    del self._learned[peer_id]
            return
        elif kind != _CTRL_ANNOUNCE:
            return  # unknown control frames are ignored (forward compat)
        for peer_id in names:
            if not peer_id:
                continue
            if peer_id.startswith("!"):
                # Reserved tag line, not a peer: currently only the
                # advertised membership epoch.
                key, _, value = peer_id[1:].partition("=")
                if key == "epoch":
                    try:
                        link.remote_epoch = int(value)
                    except ValueError:
                        pass
                continue
            link.remote_peers.add(peer_id)
            self._learned[peer_id] = link

    def _fulfill(self, req_id: int, payload: bytes) -> None:
        self.frames_received += 1
        self.bytes_received += len(payload)
        if req_id in self._pending_requests:
            self._responses[req_id] = payload
            self._waiter.wake()

    def _framing_error(self, link: _Link) -> None:
        self.framing_errors += 1
        self.stats.record_drop()
        link.failed = True
        if link.transport is not None:
            link.transport.abort()
        else:
            self._link_lost(link, NetworkError("malformed frame"))

    def _link_lost(self, link: _Link, exc) -> None:
        if link.dead:
            return
        link.dead = True
        link.connected = False
        if link.tx:
            self.frames_lost += len(link.tx)
            self.stats.dropped += len(link.tx)
            link.tx.clear()
            link.tx_bytes = 0
        if len(link.rx) > link.scan and not link.failed:
            # The peer vanished mid-frame: a truncated frame on the wire.
            self.framing_errors += 1
            self.stats.record_drop()
        for peer_id in list(link.remote_peers):
            if self._learned.get(peer_id) is link:
                del self._learned[peer_id]
        link.remote_peers.clear()
        if link.address is not None \
                and self._links_by_address.get(link.address) is link:
            del self._links_by_address[link.address]
        failure = NetworkError("link %s lost: %r"
                               % (link.address or "inbound", exc))
        for req_id, pending_link in list(self._pending_requests.items()):
            if pending_link is link:
                self._responses[req_id] = failure
        if not link.inbound:
            self._reap(link)
        self._waiter.wake()

    def _reap(self, link: _Link) -> None:
        """Final teardown once a dead link's parsed frames are dispatched:
        the receive buffer goes back to the pool for the next link."""
        if link in self._links:
            self._links.remove(link)
        link.scan = 0
        self._recv_pool.release(link.rx)
        link.rx = bytearray()

    # -- sending machinery -------------------------------------------------

    def _encode_frame(self, flags: int, req_id: int, src: str, dst: str,
                      kind: str, payload: bytes) -> _WireFrame:
        if not isinstance(payload, bytes):
            # A queued frame can outlive the caller's buffer (a paused
            # link, a blocked peer, a receive buffer about to compact) —
            # non-bytes payloads must be snapshotted, and the copy is
            # accounted so the zero-copy claim stays checkable.
            payload = bytes(payload)
            self.bytes_copied += len(payload)
        memo = self._field_memo
        entries = []
        body_len = 1 + _varint_size(req_id) + len(payload)
        for field in (src, dst, kind):
            entry = memo.get(field)
            if entry is None:
                raw = field.encode("utf-8")
                scratch = self._header_pool.acquire()
                try:
                    _write_varint(scratch, len(raw))
                    scratch += raw
                    entry = bytes(scratch)
                finally:
                    self._header_pool.release(scratch)
                memo.put(field, entry)
            entries.append(entry)
            body_len += len(entry)
        header = self._header_pool.acquire()
        try:
            _write_varint(header, body_len)
            header.append(flags)
            _write_varint(header, req_id)
            for entry in entries:
                header += entry
            return _WireFrame((bytes(header), payload),
                              len(header) + len(payload))
        finally:
            self._header_pool.release(header)

    def _send_with_backpressure(self, link: _Link,
                                frame: _WireFrame) -> None:
        if link.tx_bytes + len(frame) > self.max_queue_bytes \
                and not link.dead:
            # Block the publisher: pump I/O (never dispatch — handlers
            # must not run inside a send) until the kernel drains room.
            self.blocked_sends += 1
            deadline = time.monotonic() + self.backpressure_timeout
            while not link.dead \
                    and link.tx_bytes + len(frame) > self.max_queue_bytes:
                self._waiter.run(0.002)
                if time.monotonic() > deadline:
                    raise NetworkError(
                        "send queue to %s full for %.0fs (%d bytes queued)"
                        % (link.address or link.remote_node,
                           self.backpressure_timeout, link.tx_bytes))
        if link.dead:
            self.frames_lost += 1
            self.stats.record_drop()
            return
        self.frames_sent += 1
        link.send_frame(frame)

    # -- observability -----------------------------------------------------

    #: Kept API-compatible with the simulator for error forensics.
    @property
    def handler_error_log(self):
        log = self.__dict__.get("_handler_error_log")
        if log is None:
            log = self.__dict__["_handler_error_log"] = deque(maxlen=100)
        return log

    @property
    def queue_high_water(self) -> int:
        """The largest send-queue depth (bytes) any link ever reached."""
        waters = [link.tx_high_water for link in self._links]
        cached = self.__dict__.get("_hw_peak", 0)
        peak = max(waters + [cached])
        self.__dict__["_hw_peak"] = peak
        return peak

    def transport_snapshot(self) -> Dict[str, object]:
        """Socket-specific counters, shaped for the BENCH json flow."""
        return {
            "node": self.node_id,
            "epoch": self.epoch,
            "peer_epochs": {link.remote_node: link.remote_epoch
                            for link in self._links
                            if link.remote_node is not None},
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "frames_lost": self.frames_lost,
            "bytes_received": self.bytes_received,
            "framing_errors": self.framing_errors,
            "blocked_sends": self.blocked_sends,
            "bytes_copied": self.bytes_copied,
            "queue_high_water": self.queue_high_water,
            "links": len(self._links),
            "recv_pool": self.recv_pool_stats.as_dict(),
            "by_kind_messages": dict(self.stats.by_kind_messages),
            "by_kind_bytes": dict(self.stats.by_kind_bytes),
        }

    # -- lifecycle ---------------------------------------------------------

    def idle(self) -> bool:
        """No queued work on this node (in-flight wire bytes invisible)."""
        return (not self._local
                and not self._connecting
                and not self._pending_requests
                and all(not link.tx and not link.inbound
                        for link in self._links))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for server in self._servers:
            server.close()
        for link in list(self._links):
            if link.transport is not None:
                link.transport.close()
        if not self._loop.is_closed() and not self._loop.is_running():
            # Let close handshakes and connection_lost callbacks run.  A
            # transport still holding unsent bytes (its peer stopped
            # reading) would wait for them forever: abort it, which drops
            # the bytes and closes its socket on the next loop turn.
            try:
                self._loop.run_until_complete(asyncio.sleep(0.01))
                for link in list(self._links):
                    if link.transport is not None:
                        link.transport.abort()
                self._loop.run_until_complete(asyncio.sleep(0))
            except RuntimeError:  # pragma: no cover - loop torn down already
                pass
        for address in self.listen_addresses:
            scheme, target = parse_address(address)
            if scheme == "unix":
                try:
                    os.unlink(target)
                except OSError:
                    pass
        if self._owns_loop and not self._loop.is_closed():
            self._loop.close()


class SocketHub:
    """Several :class:`SocketNetwork` nodes sharing one event loop — the
    single-process way to run real sockets end to end (tests, benchmarks,
    and any in-process client of a socket mesh).

    Because every node lives on the hub's loop, one :meth:`poll` pumps
    the whole fabric, and global quiescence is decidable: all queues
    empty and every data frame sent was received or accounted lost."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self._waiter = _Waiter(self.loop)
        self.nodes: List[SocketNetwork] = []

    def network(self, node_id: str, **kwargs) -> SocketNetwork:
        node = SocketNetwork(node_id, loop=self.loop, **kwargs)
        node.hub = self
        node._waiter = self._waiter
        self.nodes.append(node)
        return node

    def poll(self, wait: float = 0.0, requests_only: bool = False) -> int:
        """Run the shared loop until a frame, a reply or a link event
        arrives for any node, or for at most ``wait`` seconds, then
        dispatch every node.  Returns the number of frames dispatched."""
        self._waiter.run(wait)
        return sum(node._dispatch_ready(requests_only=requests_only)
                   for node in self.nodes)

    def idle(self) -> bool:
        if not all(node.idle() for node in self.nodes):
            return False
        sent = sum(node.frames_sent for node in self.nodes)
        received = sum(node.frames_received for node in self.nodes)
        lost = sum(node.frames_lost for node in self.nodes)
        return sent == received + lost

    def run_until_idle(self, max_rounds: int = 10_000) -> int:
        total = 0
        for _ in range(max_rounds):
            total += self.poll(0.001)
            if self.idle():
                return total
        raise NetworkError("socket hub did not go idle in %d rounds"
                           % max_rounds)

    def close(self) -> None:
        for node in self.nodes:
            node.close()
        if not self.loop.is_closed():
            self.loop.close()
