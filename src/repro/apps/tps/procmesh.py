"""Socket-backed mesh runners: one logical TPS broker over real bytes.

Two deployment shapes of the very same :class:`~repro.apps.tps.mesh.MeshShard`:

- :class:`SocketMesh` — every shard on its own :class:`SocketNetwork`
  node of one shared-loop :class:`SocketHub`, all in this process, so
  tests and benchmarks drive it deterministically (pump, then inspect)
  while every publish, forward, replica batch and ack crosses a real
  socket.  It *is* a :class:`~repro.apps.tps.mesh.BrokerMesh` with a
  socket fabric: membership, draining and ``stats()`` are the simulator
  mesh's code, not a copy of it.
- :class:`ProcessMesh` — one shard per OS process (the soak harness's
  substrate), its control plane (``proc_ping`` / ``proc_read`` /
  ``proc_admin`` / ``proc_stop``) riding the data plane's socket
  protocol.  The driver orchestrates membership over that control
  plane; the leaving shard's half of a removal is the shared
  :meth:`MeshShard.retire`, the pre-check the shared
  :func:`~repro.apps.tps.topology.removal_topology`.

One operational surface serves both.  Each per-shard read is one entry
of :data:`VIEWS`; :class:`MeshViews` reads a view over any set of shards
— in place on a :class:`SocketMesh`, over ``proc_read`` from the
:class:`ProcessMesh` driver, and both ways from a shard process (itself
in place, its peers over ``proc_read``).  :func:`install_routes` is the
one HTTP route table, served by :meth:`SocketMesh.serve_http` and by
every shard process.  Admin operations live in one table
(:data:`ADMIN_REGISTRY`) shared by the HTTP routes, ``proc_admin`` and
the CLI; every admin response carries the uniform ``{ok, op, shard,
epoch, result}`` envelope, and mutating operations need the bearer token
minted at mesh construction.  A socket directory either runner created
itself is removed when the runner closes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import secrets
import shutil
import socket
import tempfile
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from ...net.network import NetworkError
from ...net.socket_transport import SocketHub, SocketNetwork
from ...obs.bridge import register_network_metrics
from ...obs.http import HttpError, ObsHttpServer, json_body
from ...obs.tracing import render_timeline, stitch
from .mesh import BrokerMesh, MeshShard, mesh_stats
from .topology import MeshConfig, Topology, removal_topology

__all__ = [
    "KIND_PROC_PING",
    "KIND_PROC_READ",
    "KIND_PROC_STOP",
    "KIND_PROC_ADMIN",
    "ADMIN_OPS",
    "ADMIN_REGISTRY",
    "AdminOp",
    "run_admin_op",
    "VIEWS",
    "MeshViews",
    "install_routes",
    "ProcessMesh",
    "SocketMesh",
    "shard_addresses",
]

KIND_PROC_PING = "proc_ping"
#: One view of one shard: ``{"view", "query"}`` -> ``{"value"}``.
KIND_PROC_READ = "proc_read"
KIND_PROC_STOP = "proc_stop"
KIND_PROC_ADMIN = "proc_admin"

_EXPOSITION_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def shard_addresses(sock_dir: str, shard_ids: List[str],
                    scheme: str = "unix") -> Dict[str, str]:
    """The address book.  Unix shards listen on a socket named after
    them, so each process computes the full directory from (dir, shard
    ids) alone — no discovery round.  ``tcp`` shards get one free
    loopback port each, picked by binding port 0 and releasing it
    (SO_REUSEADDR keeps it bindable by the shard that inherits it); that
    book differs on every call, so TCP meshes pass the driver's resolved
    book to each shard instead of recomputing it."""
    if scheme != "tcp":
        return {shard_id: "unix:%s/%s.sock" % (sock_dir, shard_id)
                for shard_id in shard_ids}
    book: Dict[str, str] = {}
    for shard_id in shard_ids:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", 0))
            book[shard_id] = "tcp:127.0.0.1:%d" % sock.getsockname()[1]
        finally:
            sock.close()
    return book


def _jsonable(value: Any) -> Any:
    """Best-effort coercion of a stats tree to JSON-safe values — the
    control plane must never crash on an exotic counter type."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def merge_expositions(pages: List[str]) -> str:
    """Concatenate per-shard exposition pages into one, keeping the first
    ``# HELP``/``# TYPE`` comment for each metric and dropping repeats."""
    seen = set()
    lines: List[str] = []
    for page in pages:
        for line in page.splitlines():
            if line.startswith("#"):
                if line in seen:
                    continue
                seen.add(line)
            if line:
                lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the admin-op registry
# ---------------------------------------------------------------------------


class AdminOp(NamedTuple):
    """One table entry of the shared admin-operation registry.

    ``scope`` places the implementation: ``"shard"`` ops run against one
    :class:`MeshShard` (or every shard when no target is named),
    ``"mesh"`` ops run against the mesh runner itself (membership and
    restarts), and ``"node"`` ops are internal to the process fabric's
    membership protocol — reachable over ``proc_admin`` but never
    published on the public surface (:data:`ADMIN_OPS`)."""

    name: str
    scope: str
    run: Optional[Callable[..., Any]] = None
    needs_shard: bool = False
    help: str = ""


def _op_compact(shard: MeshShard, args: dict) -> Any:
    if shard.event_log is None:
        raise ValueError("shard %s has no event log" % shard.peer_id)
    return shard.compact_log()


def _op_prune(shard: MeshShard, args: dict) -> Any:
    if shard.event_log is None:
        raise ValueError("shard %s has no event log" % shard.peer_id)
    return {"pruned": shard.prune_cursors(
        int(args.get("max_idle_incarnations", 3)))}


def _mesh_restart(mesh: Any, shard_id: Optional[str], args: dict) -> Any:
    mesh.restart_shard(shard_id)
    return {"restarted": shard_id}


def _mesh_add_shard(mesh: Any, shard_id: Optional[str], args: dict) -> Any:
    added = mesh.add_shard(shard_id)
    return {"added": getattr(added, "peer_id", added),
            "shards": list(mesh.shard_ids)}


def _mesh_remove_shard(mesh: Any, shard_id: Optional[str], args: dict) -> Any:
    mesh.remove_shard(shard_id)
    return {"removed": shard_id, "shards": list(mesh.shard_ids)}


def _mesh_rebalance(mesh: Any, shard_id: Optional[str], args: dict) -> Any:
    return mesh.rebalance()


#: The one registry every dispatch surface (HTTP routes, ``proc_admin``,
#: the CLI, :func:`run_admin_op`) works from.  Adding an op here is the
#: whole registration.
ADMIN_REGISTRY: Dict[str, AdminOp] = {
    "compact": AdminOp("compact", "shard", _op_compact,
                       help="fold the event log below the slowest cursor"),
    "prune": AdminOp("prune", "shard", _op_prune,
                     help="expire cursors of subscribers that never "
                          "returned"),
    "restart_shard": AdminOp("restart_shard", "mesh", _mesh_restart,
                             needs_shard=True,
                             help="crash-restart one shard in place"),
    "add_shard": AdminOp("add_shard", "mesh", _mesh_add_shard,
                         help="grow the mesh by one live shard "
                              "(epoch + 1)"),
    "remove_shard": AdminOp("remove_shard", "mesh", _mesh_remove_shard,
                            needs_shard=True,
                            help="retire one shard for good (epoch + 1)"),
    "rebalance": AdminOp("rebalance", "mesh", _mesh_rebalance,
                         help="move durable subscriptions to their "
                              "rendezvous homes"),
    # Internal membership-protocol ops of the process fabric: the driver
    # speaks them over proc_admin; they never appear in ADMIN_OPS.
    "set_topology": AdminOp("set_topology", "node"),
    "resync": AdminOp("resync", "node"),
    "retire": AdminOp("retire", "node"),
    "job_status": AdminOp("job_status", "node"),
}

#: The public admin surface (HTTP ``/admin/*`` routes and the CLI).
ADMIN_OPS = tuple(name for name, spec in ADMIN_REGISTRY.items()
                  if spec.scope != "node")


def run_admin_op(mesh: Any, op: str, shard_id: Optional[str] = None,
                 args: Optional[dict] = None) -> dict:
    """Dispatch one public admin operation against a mesh runner and
    wrap the outcome in the uniform ``{ok, op, shard, epoch, result}``
    envelope (``epoch`` read *after* the op, so membership changes
    report the epoch they produced)."""
    spec = ADMIN_REGISTRY.get(op)
    if spec is None or spec.scope == "node":
        raise ValueError("unknown admin op %r" % op)
    args = dict(args or {})
    if spec.needs_shard and shard_id is None:
        raise ValueError("%s needs a shard id" % op)
    if spec.scope == "mesh":
        result = spec.run(mesh, shard_id, args)
    else:
        targets = [shard_id] if shard_id is not None else list(mesh.shard_ids)
        results = {}
        for sid in targets:
            results[sid] = mesh.run_shard_op(sid, op, args)
        result = results[shard_id] if shard_id is not None else results
    return {"ok": True, "op": op, "shard": shard_id,
            "epoch": mesh.epoch, "result": result}


# ---------------------------------------------------------------------------
# the per-shard view table and the one route table
# ---------------------------------------------------------------------------


def _by_shard(topology: Topology, values: dict, query: dict) -> dict:
    return values


class View(NamedTuple):
    """One per-shard read of the operational surface: ``read(shard,
    query)`` is one shard's value, ``render(topology, values, query)``
    turns ``{shard id: value}`` into the response body."""

    read: Callable[[MeshShard, dict], Any]
    render: Callable[[Topology, dict, dict], Any] = _by_shard


def _read_metrics(shard: MeshShard, query: dict) -> dict:
    return {"snapshot": shard.metrics.snapshot(),
            "exposition": shard.metrics.exposition(
                extra_labels=(("shard", shard.peer_id),))}


def _render_metrics(topology: Topology, pages: dict, query: dict):
    page = merge_expositions([entry["exposition"]
                              for entry in pages.values()])
    return (_EXPOSITION_TYPE, page.encode("utf-8"))


def _read_transport(shard: MeshShard, query: dict) -> dict:
    network = shard.network
    return dict(network.transport_snapshot(),
                idle=network.idle() and not shard.pending_deliveries())


def _render_trace(topology: Topology, span_lists: dict, query: dict) -> dict:
    trace = query.get("id")
    spans = stitch(list(span_lists.values()), trace)
    body: Dict[str, Any] = {"spans": spans}
    if trace is not None:
        body["trace"] = trace
        body["timeline"] = render_timeline(spans, trace)
    else:
        body["traces"] = list(dict.fromkeys(span["trace"] for span in spans))
    return body


#: The per-shard reads every runner serves, keyed by route name.  A read
#: a shard cannot answer (no log, no replica store) is ``None``.
VIEWS: Dict[str, View] = {
    "stats": View(lambda shard, query: shard.stats(),
                  lambda topology, values, query:
                  mesh_stats(topology.epoch, values)),
    "metrics": View(_read_metrics, _render_metrics),
    "log": View(lambda shard, query: shard.event_log.stats()
                if shard.event_log is not None else None),
    "cursors": View(lambda shard, query: shard.cursors.as_dict()
                    if shard.event_log is not None else None),
    "replicas": View(lambda shard, query: shard.replicas.stats()
                     if shard.replicas is not None else None),
    "transport": View(_read_transport),
    "topology": View(lambda shard, query: shard.epoch,
                     lambda topology, epochs, query: {
                         "epoch": topology.epoch,
                         "topology": topology.as_dict(),
                         "shard_epochs": epochs}),
    "trace": View(lambda shard, query: shard.tracer.events(query.get("id"))
                  if shard.tracer is not None else [], _render_trace),
}


def _read_shard(view: str, shard: MeshShard, query: dict) -> Any:
    """One shard's JSON-safe value of one view."""
    return _jsonable(VIEWS[view].read(shard, query))


class MeshViews:
    """The operational reads of a socket runner, all built on
    :meth:`_read_one` (one view of one shard), so every runner answers
    them in the same shapes.  Subclasses provide ``topology``,
    ``shard_ids``, :attr:`hosted_ids` and :meth:`_read_one`."""

    def _read_one(self, view: str, shard_id: str, query: dict) -> Any:
        raise NotImplementedError

    @property
    def hosted_ids(self) -> List[str]:
        """The shards ``GET /<view>`` answers for on this endpoint."""
        return self.shard_ids

    def read(self, view: str, shard_ids: Optional[List[str]] = None,
             query: Optional[dict] = None) -> Dict[str, Any]:
        """``{shard id: value}`` of one view (default: every shard)."""
        query = dict(query or {})
        return {shard_id: self._read_one(view, shard_id, query)
                for shard_id in (self.shard_ids if shard_ids is None
                                 else shard_ids)}

    def render(self, view: str, shard_ids: Optional[List[str]] = None,
               query: Optional[dict] = None) -> Any:
        """One view's response body over ``shard_ids`` (default: every
        shard) — exactly what ``GET /mesh/<view>`` serves."""
        query = dict(query or {})
        return VIEWS[view].render(self.topology,
                                  self.read(view, shard_ids, query), query)

    def stats(self) -> dict:
        """The :meth:`BrokerMesh.stats` aggregate over every shard."""
        return self.render("stats")

    def metrics_snapshots(self) -> Dict[str, dict]:
        """Every shard's metrics ``snapshot()`` tree, keyed by shard id."""
        return {shard_id: page["snapshot"]
                for shard_id, page in self.read("metrics").items()}

    def metrics_exposition(self) -> str:
        """One exposition page covering every shard (``shard`` label)."""
        return self.render("metrics")[1].decode("utf-8")

    def transport_stats(self) -> Dict[str, dict]:
        """Every shard node's transport snapshot, keyed by shard id."""
        return self.read("transport")

    def all_idle(self) -> bool:
        """Every shard reports an empty delivery buffer and an idle node."""
        return all(node["idle"] for node in self.transport_stats().values())

    def trace_events(self, trace: Optional[str] = None) -> List[dict]:
        """Span events from every shard's ring, stitched into one
        wall-clock timeline (optionally filtered to one trace id)."""
        query = {"id": trace} if trace else None
        return stitch(self.read("trace", query=query).values(), trace)

    def render_trace(self, trace: str) -> str:
        """The ``repro trace`` view: the stitched cross-shard timeline."""
        return render_timeline(self.trace_events(trace), trace)

    def admin_op(self, op: str, shard_id: Optional[str] = None,
                 args: Optional[dict] = None) -> dict:
        """Run one public admin operation (see :func:`run_admin_op`);
        shard-scope ops with no ``shard_id`` run against every shard."""
        return run_admin_op(self, op, shard_id, args)


def install_routes(server: ObsHttpServer, endpoint: MeshViews) -> None:
    """The one operational route table.  ``GET /<view>`` answers for the
    shards ``endpoint`` hosts, ``GET /mesh/<view>`` for every shard of
    its committed topology, ``?shard=`` narrows either (404 for a shard
    outside that set); ``POST /admin/<op>`` is token-guarded and runs
    through :func:`run_admin_op`.  A peer that cannot answer is a 502."""

    def read_route(view: str, mesh_wide: bool):
        def handler(query: dict, body: bytes):
            shard_ids = endpoint.topology.shard_ids if mesh_wide \
                else endpoint.hosted_ids
            target = query.get("shard")
            if target is not None:
                if target not in shard_ids:
                    raise HttpError(404, "no shard %r here" % target)
                shard_ids = [target]
            try:
                return endpoint.render(view, shard_ids, query)
            except NetworkError as error:
                raise HttpError(502, str(error))
        return handler

    def admin_route(op: str):
        def handler(query: dict, body: bytes):
            args = json_body(body)
            shard_id = args.pop("shard", None)
            try:
                return _jsonable(endpoint.admin_op(op, shard_id, args))
            except ValueError as error:
                raise HttpError(400, str(error))
            except NetworkError as error:
                raise HttpError(502, str(error))
        return handler

    for view in VIEWS:
        server.route("GET", "/" + view, read_route(view, False))
        server.route("GET", "/mesh/" + view, read_route(view, True))
    for op in ADMIN_OPS:
        server.route("POST", "/admin/" + op, admin_route(op), auth=True)


class SocketMesh(BrokerMesh, MeshViews):
    """N mesh shards on one :class:`SocketHub` — real sockets, one process.

    A :class:`~repro.apps.tps.mesh.BrokerMesh` that differs only in its
    fabric: every shard listens on its own hub node, and membership,
    draining and stats are the simulator mesh's.  Client peers join via
    :meth:`client_network` (a hub node routed to every shard, and kept
    routed as the membership changes) and the whole fabric drains
    deterministically with :meth:`run_until_idle`.  :meth:`serve_http`
    opens one HTTP operational endpoint for the whole mesh (polled from
    :meth:`flush`); admin routes require :attr:`auth_token`.  A
    ``sock_dir`` the mesh created itself is removed by :meth:`close`.
    """

    def __init__(self, *, topology: Optional[Topology] = None,
                 name: str = "mesh",
                 sock_dir: Optional[str] = None,
                 log_root: Optional[str] = None,
                 replication_factor: int = 0,
                 auth_token: Optional[str] = None,
                 scheme: str = "unix",
                 **broker_kwargs):
        config = MeshConfig(topology=topology, name=name, log_root=log_root,
                            replication_factor=replication_factor,
                            broker_kwargs=broker_kwargs)
        if scheme not in ("unix", "tcp"):
            raise ValueError("scheme must be 'unix' or 'tcp'")
        self.hub = SocketHub()
        self._tmp_dir = sock_dir is None
        self.sock_dir = sock_dir if sock_dir is not None \
            else tempfile.mkdtemp(prefix="repro-socketmesh-")
        self.auth_token = auth_token if auth_token is not None \
            else secrets.token_hex(8)
        self.scheme = scheme
        #: Shard id -> listening address of every live shard.
        self.addresses: Dict[str, str] = {}
        self._client_nodes: List[SocketNetwork] = []
        self.http: Optional[ObsHttpServer] = None
        self._http_polling = False
        self._build(config)

    @property
    def nodes(self) -> List[SocketNetwork]:
        """The live shards' hub nodes, in shard order."""
        return [shard.network for shard in self.shards]

    def client_network(self, node_id: str, **kwargs) -> SocketNetwork:
        """A hub node for client peers, pre-routed to every shard (and
        kept routed as the membership changes)."""
        node = self.hub.network(node_id, **kwargs)
        node.add_routes(self.addresses)
        self._client_nodes.append(node)
        return node

    # -- the fabric: one listening hub node per shard ----------------------

    def _spawn_shard(self, shard_id: str,
                     network: Optional[Any] = None) -> MeshShard:
        if network is None:
            address = shard_addresses(self.sock_dir, [shard_id],
                                      self.scheme)[shard_id]
            network = self.hub.network(shard_id + "-node")
            network.listen(address)
            network.add_routes(self.addresses)
        shard = super()._spawn_shard(shard_id, network)
        register_network_metrics(shard.metrics, network)
        return shard

    def _discard_shard(self, shard: MeshShard) -> None:
        super()._discard_shard(shard)
        # The closed node stays in hub.nodes: its frame counters must
        # keep participating in the idle balance.
        shard.network.close()

    def _commit_topology(self, topology: Topology) -> None:
        super()._commit_topology(topology)
        self.addresses = {shard.peer_id: shard.network.listen_addresses[0]
                          for shard in self.shards}
        for node in self._client_nodes + self.nodes:
            for shard_id in topology.departed:
                node.remove_route(shard_id)
            node.add_routes({shard_id: address for shard_id, address
                             in self.addresses.items()
                             if shard_id + "-node" != node.node_id})
        for node in self.nodes:
            node.set_epoch(topology.epoch)

    def _pump_fabric(self) -> int:
        progressed = self.hub.poll(0.001)
        if self.http is not None and not self._http_polling:
            # Admin handlers (add/remove/rebalance) pump the mesh via
            # flush(); the guard keeps a handler from re-entering the
            # HTTP poll that invoked it.
            self._http_polling = True
            try:
                self.http.poll()
            finally:
                self._http_polling = False
        return progressed

    def _fabric_idle(self) -> bool:
        # Every data frame sent was received or accounted lost.
        return self.hub.idle()

    def _fabric_nodes(self) -> List[Any]:
        return self.hub.nodes

    # -- the operational surface -------------------------------------------

    def _read_one(self, view: str, shard_id: str, query: dict) -> Any:
        return _read_shard(view, self._by_id[shard_id], query)

    def serve_http(self, host: str = "127.0.0.1",
                   port: int = 0) -> ObsHttpServer:
        """Open the mesh-wide HTTP endpoint (idempotent).  The server is
        polled from :meth:`flush`, so handlers run on the mesh's own
        pump thread."""
        if self.http is None:
            self.http = ObsHttpServer(host, port, token=self.auth_token)
            install_routes(self.http, self)
        return self.http

    def run_shard_op(self, shard_id: str, op: str, args: dict) -> Any:
        """Run one shard-scope registry op against one local shard."""
        shard = self._by_id.get(shard_id)
        if shard is None:
            raise ValueError("no shard %r in this mesh" % shard_id)
        return ADMIN_REGISTRY[op].run(shard, args)

    def close(self) -> None:
        if self.http is not None:
            self.http.close()
            self.http = None
        super().close()
        self.hub.close()
        if self._tmp_dir:
            shutil.rmtree(self.sock_dir, ignore_errors=True)
            self._tmp_dir = False


# ---------------------------------------------------------------------------
# one shard per OS process
# ---------------------------------------------------------------------------

#: Pump rounds a retiring shard grants its followers to acknowledge the
#: replication watermark before the removal aborts.
_RETIRE_COVERAGE_ROUNDS = 5000


class _ControlClient(MeshViews):
    """The client half of the process control plane, shared by the
    :class:`ProcessMesh` driver and every shard process: views and admin
    ops of shard processes, read over ``proc_read`` and run over
    ``proc_admin`` from the ``_src`` address on :attr:`network`."""

    @property
    def shard_ids(self) -> List[str]:
        return self.topology.shard_ids

    @property
    def epoch(self) -> int:
        return self.topology.epoch

    def _ask(self, shard_id: str, kind: str, request: dict) -> dict:
        """One JSON request to one shard; an ``error`` reply raises."""
        reply = json.loads(self.network.request(
            self._src, shard_id, kind,
            json.dumps(request).encode("utf-8")).decode("utf-8"))
        if "error" in reply:
            raise NetworkError("%s on %s failed: %s"
                               % (request.get("op") or request.get("view"),
                                  shard_id, reply["error"]))
        return reply

    def _read_one(self, view: str, shard_id: str, query: dict) -> Any:
        return self._ask(shard_id, KIND_PROC_READ,
                         {"view": view, "query": query})["value"]

    def admin(self, op: str, shard_id: str,
              args: Optional[dict] = None) -> dict:
        """Run a token-authenticated admin operation on one shard; the
        reply is the wire envelope (``{ok, op, shard, epoch, result}``)."""
        return self._ask(shard_id, KIND_PROC_ADMIN,
                         {"token": self.auth_token, "op": op,
                          "args": dict(args or {})})

    def run_shard_op(self, shard_id: str, op: str, args: dict) -> Any:
        """One shard-scope registry op over the wire (the
        :func:`run_admin_op` fan-out hook)."""
        if shard_id not in self.topology:
            raise ValueError("no shard %r in this mesh" % shard_id)
        return self.admin(op, shard_id, args).get("result")

    def restart_shard(self, shard_id: str) -> dict:
        """Ask one shard process to crash-restart its shard in place (the
        rebuild happens on the shard's next pump tick)."""
        return self.admin("restart_shard", shard_id)


class _ShardProcess(_ControlClient):
    """One shard process: the shard on its own socket node, the four
    control kinds, and the HTTP route table — reading and administering
    this shard in place and its peers over the control plane."""

    def __init__(self, shard_id: str, topology: Topology,
                 network: SocketNetwork, auth_token: Optional[str],
                 replication_factor: int, broker_kwargs: dict):
        self.shard_id = shard_id
        self.topology = topology
        self.network = network
        self.auth_token = auth_token
        self._src = shard_id + "-obs"  # reply address for peer requests
        self._replication_factor = replication_factor
        self._broker_kwargs = broker_kwargs
        self.stopping = False
        self.restart_pending = False
        #: Deferred membership jobs (retire / rebalance).  They must run
        #: at pump-loop top level: a job settles subscriber ack windows,
        #: and running it inside a blocking driver request would leave the
        #: driver pumping requests-only — its hosted subscribers' acks
        #: would stall and the settle could never drain.
        self.jobs: List[tuple] = []
        self.job_state: Dict[str, Any] = {"done": True, "error": None,
                                          "value": None}
        self.unauthorized = 0
        self.restarts = 0
        self.http: Optional[ObsHttpServer] = None
        self.shard = self._build_shard()

    def _build_shard(self) -> MeshShard:
        shard = MeshShard(self.shard_id, self.network,
                          replication_factor=self._replication_factor,
                          **self._broker_kwargs)
        register_network_metrics(shard.metrics, self.network)
        shard.metrics.gauge("control.unauthorized",
                            "rejected control-plane requests",
                            sample=lambda: self.unauthorized)
        shard.metrics.gauge("control.restarts",
                            "in-place shard restarts served",
                            sample=lambda: self.restarts)
        shard.metrics.gauge("control.http_unauthorized",
                            "rejected HTTP admin requests",
                            sample=lambda: self.http.unauthorized
                            if self.http is not None else 0)
        shard.on(KIND_PROC_PING, lambda payload, src: b"PONG")
        shard.on(KIND_PROC_READ, self._handle_read)
        shard.on(KIND_PROC_ADMIN, self._handle_admin)
        shard.on(KIND_PROC_STOP, self._handle_stop)
        return shard

    def _authorized(self, token: bytes) -> bool:
        # A mesh built without a token is explicitly unsecured.
        return self.auth_token is None \
            or token == self.auth_token.encode("utf-8")

    def _pump_once(self) -> None:
        self.network.poll(0.002)
        self.shard.flush_delivery()

    # -- this shard, in place ------------------------------------------------

    @property
    def hosted_ids(self) -> List[str]:
        return [self.shard_id]

    def _read_one(self, view: str, shard_id: str, query: dict) -> Any:
        if shard_id == self.shard_id:
            return _read_shard(view, self.shard, query)
        return super()._read_one(view, shard_id, query)

    def admin(self, op: str, shard_id: str,
              args: Optional[dict] = None) -> dict:
        if shard_id == self.shard_id:
            # HTTP handlers run from server.poll() at pump-loop top
            # level, so a membership job may run right here.
            return self._envelope(op, self._do_admin(op, dict(args or {}),
                                                     inline=True))
        return super().admin(op, shard_id, args)

    def add_shard(self, shard_id: Optional[str] = None) -> Any:
        raise ValueError("a shard process cannot spawn or reap shards; "
                         "ask the ProcessMesh driver")

    remove_shard = add_shard

    def rebalance(self) -> Dict[str, Any]:
        """Hand this shard's re-homed durable subscriptions off (the
        driver's :meth:`ProcessMesh.rebalance` runs this on every shard)."""
        moved = self._run_job("rebalance", {})["handed_off"]
        return {"epoch": self.epoch,
                "moved": {self.shard_id: moved} if moved else {}}

    def _envelope(self, op: str, result: Any) -> dict:
        return {"ok": True, "op": op, "shard": self.shard_id,
                "epoch": self.epoch, "result": result}

    # -- control-plane handlers --------------------------------------------

    def _handle_read(self, payload: bytes, src: str) -> bytes:
        try:
            request = json.loads(payload.decode("utf-8"))
            reply = {"value": _read_shard(request["view"], self.shard,
                                         request.get("query") or {})}
        except Exception as error:
            reply = {"error": "bad read: %r" % (error,)}
        return json.dumps(reply).encode("utf-8")

    def _handle_stop(self, payload: bytes, src: str) -> bytes:
        if not self._authorized(payload):
            self.unauthorized += 1
            return b"DENIED"
        self.stopping = True
        return b"OK"

    def _handle_admin(self, payload: bytes, src: str) -> bytes:
        try:
            request = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return json.dumps({"error": "bad admin request"}).encode("utf-8")
        token = request.get("token") or ""
        op = request.get("op")
        if not self._authorized(token.encode("utf-8")):
            self.unauthorized += 1
            reply: dict = {"error": "unauthorized"}
        elif op not in ADMIN_REGISTRY:
            reply = {"error": "unknown admin op %r" % (op,)}
        else:
            try:
                reply = self._envelope(op, self._do_admin(
                    op, request.get("args") or {}))
            except Exception as error:
                reply = {"error": str(error)}
        return json.dumps(_jsonable(reply)).encode("utf-8")

    def _run_job(self, op: str, args: dict) -> Any:
        if op == "retire":
            survivors = Topology.from_dict(args["topology"])
            return {"handed_off": self.shard.retire(
                survivors, self._pump_once, _RETIRE_COVERAGE_ROUNDS)}
        if op == "rebalance":
            moved = self.shard.handoff_durable_subscriptions(
                self.topology, pump=self._pump_once)
            return {"handed_off": moved}
        raise ValueError("unknown membership job %r" % op)

    def _do_admin(self, op: str, args: dict, inline: bool = False) -> Any:
        shard = self.shard
        if op == "restart_shard":
            # Deferred to the pump loop: rebuilding the shard from inside
            # a dispatch handler would re-enter the network mid-poll.
            self.restart_pending = True
            return {"restarting": self.shard_id}
        if op == "set_topology":
            topology = Topology.from_dict(args["topology"])
            extra = {sid: addr
                     for sid, addr in (args.get("addresses") or {}).items()
                     if sid != self.shard_id}
            if extra:
                self.network.add_routes(extra)
            committed = shard.set_topology(topology)
            if committed:
                self.topology = topology
                self.network.set_epoch(topology.epoch)
                shard.ensure_replica_coverage()
            return {"committed": committed, "epoch": shard.epoch}
        if op == "resync":
            return {"synced": shard._sync_summaries()}
        if op == "job_status":
            return dict(self.job_state)
        if op in ("retire", "rebalance"):
            if inline:
                return self._run_job(op, args)
            if not self.job_state["done"]:
                raise ValueError("a membership job is already running")
            self.job_state.update(done=False, error=None, value=None)
            self.jobs.append((op, dict(args)))
            return {"queued": op}
        spec = ADMIN_REGISTRY.get(op)
        if spec is None or spec.scope != "shard" or spec.run is None:
            raise ValueError("op %r is not a shard-process operation" % op)
        return spec.run(shard, args)

    # -- the pump loop -----------------------------------------------------

    def run(self) -> None:
        """Pump until told to stop, running deferred jobs and restarts
        at top level, then tear down."""
        while not self.stopping:
            self.network.poll(0.005)
            if self.jobs:
                op, args = self.jobs.pop(0)
                try:
                    value = self._run_job(op, args)
                except Exception as error:
                    self.job_state.update(done=True, error=str(error),
                                          value=None)
                else:
                    self.job_state.update(done=True, error=None, value=value)
            if self.restart_pending:
                self.restart_pending = False
                self.shard.close()
                self.shard = self._build_shard()
                self.shard.set_topology(self.topology)
                self.shard.recover()
                self.restarts += 1
            self.shard.flush_delivery()
            if self.http is not None:
                self.http.poll()
        # One farewell pump so the stop response and any buffered
        # deliveries reach the wire before teardown.
        for _ in range(10):
            self._pump_once()
        if self.http is not None:
            self.http.close()
        self.shard.close()
        self.network.close()


def _shard_process_main(shard_id: str, topology: Dict[str, Any],
                        sock_dir: str, log_root: Optional[str],
                        replication_factor: int,
                        broker_kwargs: dict,
                        auth_token: Optional[str] = None,
                        http: bool = True,
                        addresses: Optional[Dict[str, str]] = None) -> None:
    """Entry point of one shard process: build the shard on its own
    socket node, serve the control kinds and the HTTP API, and pump
    until told to stop.  ``topology`` is the membership view (wire
    shape) the shard starts from; the driver pushes newer epochs over
    ``set_topology``.  ``addresses`` carries the driver's resolved book
    for non-recomputable schemes (TCP ports); Unix meshes omit it and
    recompute the deterministic directory locally."""
    topo = Topology.from_dict(topology)
    if addresses is None:
        addresses = shard_addresses(sock_dir, topo.shard_ids)
    network = SocketNetwork(shard_id + "-node")
    network.listen(addresses[shard_id])
    kwargs = dict(broker_kwargs)
    if log_root is not None:
        kwargs["log_dir"] = os.path.join(log_root, shard_id)
    node = _ShardProcess(shard_id, topo, network, auth_token,
                         replication_factor, kwargs)
    network.add_routes({sid: addr for sid, addr in addresses.items()
                        if sid != shard_id})
    node.shard.set_topology(topo)
    network.set_epoch(topo.epoch)
    if http:
        node.http = ObsHttpServer(token=auth_token)
        install_routes(node.http, node)
        # The address file appears before the first poll answers a ping,
        # so a shard that responds to ping is already scrapable.
        with open(os.path.join(sock_dir, shard_id + ".http"), "w") as handle:
            handle.write(node.http.address)
    node.run()


class ProcessMesh(_ControlClient):
    """A mesh of shard *processes* plus a driver-side socket node.

    Spawns one OS process per shard (each running
    :func:`_shard_process_main`), waits for every shard to answer a ping,
    and exposes :attr:`network` — a :class:`SocketNetwork` in the calling
    process, routed to every shard — for client peers to register on.
    The control plane (:meth:`ping`, the :class:`MeshViews` reads over
    ``proc_read``, :meth:`admin`, :meth:`stop`) rides the same socket
    protocol as publishes and deliveries; mutating operations carry
    :attr:`auth_token`, minted here and shared with every shard at
    spawn.  Each shard also serves the HTTP API; :meth:`http_address`
    reads the advertised URL.

    Membership changes are driver-orchestrated: :meth:`add_shard`
    spawns a process, resynchronises it, and pushes the new epoch to
    every survivor; :meth:`remove_shard` runs the leaving shard's
    ``retire`` job (coverage gate + cursor handoff) *asynchronously* —
    the driver polls ``job_status`` while fully pumping its own node,
    so subscriber acks hosted on the driver keep flowing during the
    settle — and only then stops the process.
    """

    def __init__(self, *, topology: Optional[Topology] = None,
                 name: str = "procmesh",
                 sock_dir: Optional[str] = None,
                 log_root: Optional[str] = None,
                 replication_factor: int = 0,
                 start_timeout: float = 30.0,
                 auth_token: Optional[str] = None,
                 http: bool = True,
                 scheme: str = "unix",
                 **broker_kwargs):
        config = MeshConfig(topology=topology, name=name, log_root=log_root,
                            replication_factor=replication_factor,
                            broker_kwargs=broker_kwargs)
        if scheme not in ("unix", "tcp"):
            raise ValueError("scheme must be 'unix' or 'tcp'")
        self._tmp_dir = sock_dir is None
        self.sock_dir = sock_dir if sock_dir is not None \
            else tempfile.mkdtemp(prefix="repro-procmesh-")
        self.auth_token = auth_token if auth_token is not None \
            else secrets.token_hex(8)
        self.http_enabled = http
        self.scheme = scheme
        self.topology = config.topology
        self.name = config.topology.name
        self._log_root = config.log_root
        self._replication_factor = config.replication_factor
        self._broker_kwargs = config.broker_kwargs
        self._start_timeout = start_timeout
        self.addresses = shard_addresses(self.sock_dir, config.shard_ids,
                                         scheme)
        # fork (where available) keeps startup cheap and works however the
        # parent was launched; the child builds its event loop and sockets
        # from scratch, so no live I/O state crosses the fork.
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        self.processes: Dict[str, multiprocessing.process.BaseProcess] = {}
        for shard_id in config.shard_ids:
            self._spawn_process(shard_id, self.topology)
        self.network = SocketNetwork(name + "-driver")
        self.network.add_routes(self.addresses)
        self._src = name + "-admin"
        self._stopped = False
        try:
            self._wait_ready(start_timeout)
        except Exception:
            self.stop()
            raise

    def _spawn_process(self, shard_id: str, topology: Topology):
        process = self._context.Process(
            target=_shard_process_main,
            args=(shard_id, topology.as_dict(), self.sock_dir,
                  self._log_root, self._replication_factor,
                  dict(self._broker_kwargs), self.auth_token,
                  self.http_enabled,
                  dict(self.addresses) if self.scheme == "tcp" else None),
            daemon=True, name=shard_id)
        process.start()
        self.processes[shard_id] = process
        return process

    def _wait_ready(self, timeout: float,
                    shard_ids: Optional[List[str]] = None) -> None:
        deadline = time.monotonic() + timeout
        for shard_id in (shard_ids if shard_ids is not None
                         else self.topology.shard_ids):
            while True:
                try:
                    self.ping(shard_id)
                    break
                except NetworkError:
                    if time.monotonic() > deadline:
                        raise NetworkError(
                            "shard %s did not come up in %.0fs"
                            % (shard_id, timeout))
                    time.sleep(0.05)

    def shard_for(self, peer_id: str) -> str:
        return self.topology.shard_for(peer_id)

    def ping(self, shard_id: str) -> None:
        response = self.network.request(self._src, shard_id,
                                        KIND_PROC_PING, b"")
        if response != b"PONG":
            raise NetworkError("unexpected ping response %r" % response)

    # -- elastic membership ------------------------------------------------

    def _broadcast_topology(self, topology: Topology,
                            targets: List[str],
                            addresses: Optional[Dict[str, str]] = None
                            ) -> None:
        args: Dict[str, Any] = {"topology": topology.as_dict()}
        if addresses:
            args["addresses"] = dict(addresses)
        for sid in targets:
            self.admin("set_topology", sid, args)

    def add_shard(self, shard_id: Optional[str] = None) -> str:
        """Grow the mesh by one shard *process* (epoch + 1).

        The newcomer is spawned on the proposed topology, pinged up and
        resynchronised against every sibling's summaries, and only then
        is the new epoch pushed to the survivors — so the instant an
        old shard commits it, the newcomer is routable and
        forwarding-aware.  A newcomer that cannot come up is terminated
        and the epoch stays unchanged."""
        proposed = self.topology.with_shard(shard_id)
        new_id = [sid for sid in proposed.shard_ids
                  if sid not in self.topology][0]
        address = shard_addresses(self.sock_dir, [new_id],
                                  self.scheme)[new_id]
        self.addresses[new_id] = address
        process = self._spawn_process(new_id, proposed)
        self.network.add_route(new_id, address)
        try:
            self._wait_ready(self._start_timeout, [new_id])
            self.admin("resync", new_id)
            self._broadcast_topology(proposed, self.topology.shard_ids,
                                     addresses={new_id: address})
        except Exception:
            process.terminate()
            process.join(timeout=5.0)
            self.processes.pop(new_id, None)
            self.network.remove_route(new_id)
            self.addresses.pop(new_id, None)
            raise
        self.topology = proposed
        return new_id

    def remove_shard(self, shard_id: str,
                     timeout: float = 120.0) -> Topology:
        """Retire one shard process for good (epoch + 1), losing
        nothing: the shard runs its ``retire`` job (replica-coverage
        gate, then durable-cursor handoff) while the driver pumps its
        own node so hosted subscribers keep acking; the process is
        stopped only after the handoff lands and the survivors commit
        the new epoch."""
        proposed = removal_topology(self.topology, shard_id,
                                    self._replication_factor)
        self._run_job(shard_id, "retire",
                      {"topology": proposed.as_dict()}, timeout=timeout)
        self._broadcast_topology(proposed, proposed.shard_ids)
        self._stop_processes([shard_id])
        self.network.remove_route(shard_id)
        self.addresses.pop(shard_id, None)
        self.topology = proposed
        return proposed

    def rebalance(self, timeout: float = 120.0) -> Dict[str, Any]:
        """Move every durable subscription to its rendezvous home under
        the committed topology, one shard job at a time."""
        moved: Dict[str, List[str]] = {}
        for sid in list(self.topology.shard_ids):
            value = self._run_job(sid, "rebalance", {}, timeout=timeout)
            handed = (value or {}).get("handed_off") or []
            if handed:
                moved[sid] = handed
        return {"epoch": self.epoch, "moved": moved}

    def _run_job(self, shard_id: str, op: str, args: Optional[dict] = None,
                 timeout: float = 120.0) -> Any:
        """Queue a deferred membership job on one shard and poll it to
        completion, fully pumping the driver node between polls (the
        job settles subscriber ack windows; peers hosted on this very
        node must keep receiving and acking while it runs)."""
        self.admin(op, shard_id, args)
        deadline = time.monotonic() + timeout
        while True:
            self.network.poll(0.01)
            status = self.admin("job_status", shard_id).get("result") or {}
            if status.get("done"):
                if status.get("error"):
                    raise NetworkError("%s on %s failed: %s"
                                       % (op, shard_id, status["error"]))
                return status.get("value")
            if time.monotonic() > deadline:
                raise NetworkError("%s on %s did not finish in %.0fs"
                                   % (op, shard_id, timeout))

    # -- HTTP endpoints and lifecycle --------------------------------------

    def http_address(self, shard_id: str) -> str:
        """The ``http://host:port`` base URL one shard advertised."""
        path = os.path.join(self.sock_dir, shard_id + ".http")
        try:
            with open(path, "r") as handle:
                return handle.read().strip()
        except OSError:
            raise NetworkError("shard %s advertises no HTTP endpoint"
                               % shard_id)

    def http_addresses(self) -> Dict[str, str]:
        return {shard_id: self.http_address(shard_id)
                for shard_id in self.shard_ids}

    def _stop_processes(self, shard_ids: List[str],
                        timeout: float = 10.0) -> None:
        """Ask each shard process to stop (token-guarded), then reap it."""
        token = (self.auth_token or "").encode("utf-8")
        for shard_id in shard_ids:
            try:
                self.network.request(self._src, shard_id, KIND_PROC_STOP,
                                     token)
            except NetworkError:
                pass  # already gone; the join below settles it
        for shard_id in shard_ids:
            process = self.processes.pop(shard_id)
            process.join(timeout=timeout)
            if process.is_alive():  # pragma: no cover - stuck-shard safety
                process.terminate()
                process.join(timeout=5.0)

    def stop(self, timeout: float = 10.0) -> None:
        if self._stopped:
            return
        self._stopped = True
        self._stop_processes(list(self.processes), timeout)
        self.network.close()
        if self._tmp_dir:
            shutil.rmtree(self.sock_dir, ignore_errors=True)

    def close(self) -> None:
        self.stop()

    def __enter__(self) -> "ProcessMesh":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
