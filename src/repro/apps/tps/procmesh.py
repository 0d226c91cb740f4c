"""Socket-backed mesh runners: one logical TPS broker over real bytes.

Two deployment shapes of the very same :class:`~repro.apps.tps.mesh.MeshShard`:

- :class:`SocketMesh` — every shard on its own :class:`SocketNetwork`
  node of one shared-loop :class:`SocketHub`, all in this process.  The
  cheapest way to put the whole mesh protocol on real sockets: tests and
  benchmarks drive it deterministically (pump, then inspect), yet every
  publish, forward, replica batch and ack crosses a Unix-domain socket.
  It *is* a :class:`~repro.apps.tps.mesh.BrokerMesh` with a socket
  fabric: membership (:meth:`add_shard` / :meth:`remove_shard` /
  :meth:`rebalance` / :meth:`restart_shard`), draining and ``stats()``
  are the simulator mesh's code, not a copy of it.
- :class:`ProcessMesh` — one shard per OS process, each pumping its own
  event loop, the control plane (ping / stats / metrics / trace / admin
  / stop) riding the same length-prefixed socket protocol as the data
  plane.  This is the soak harness's substrate: real processes, real
  kernel buffers, real backpressure.  Its driver orchestrates the same
  membership surface over the control plane; the leaving shard's half
  of a removal is the shared :meth:`MeshShard.retire`, and the removal
  pre-check is the shared :func:`~repro.apps.tps.topology.removal_topology`.

Both expose the :class:`~repro.apps.tps.mesh.BrokerMesh` addressing
surface (``shard_ids``/``shard_for``) over the same epoch-versioned
:class:`~repro.apps.tps.topology.Topology`, so client code moves between
the simulator and the socket fabrics unchanged.  Admin operations live
in one table (:data:`ADMIN_REGISTRY`) shared by the HTTP routes, the
socket ``proc_admin`` kind and the CLI, and every admin response carries
the uniform ``{ok, op, shard, epoch, result}`` envelope.  Mutating
control operations are guarded by a shared bearer token minted at mesh
construction.  A socket directory either runner created itself is
removed when the runner closes.
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
from typing import Any, Callable, Dict, List, Optional

from ...net.network import NetworkError
from ...net.socket_transport import SocketHub, SocketNetwork
from ...obs.bridge import register_network_metrics
from ...obs.http import HttpError, ObsHttpServer, json_body
from ...obs.tracing import render_timeline, stitch
from .mesh import BrokerMesh, MeshShard
from .topology import MeshConfig, Topology, removal_topology

__all__ = [
    "KIND_PROC_PING",
    "KIND_PROC_STATS",
    "KIND_PROC_STOP",
    "KIND_PROC_METRICS",
    "KIND_PROC_TRACE",
    "KIND_PROC_ADMIN",
    "ADMIN_OPS",
    "ADMIN_REGISTRY",
    "AdminOp",
    "run_admin_op",
    "ProcessMesh",
    "SocketMesh",
    "shard_addresses",
]

KIND_PROC_PING = "proc_ping"
KIND_PROC_STATS = "proc_stats"
KIND_PROC_STOP = "proc_stop"
KIND_PROC_METRICS = "proc_metrics"
KIND_PROC_TRACE = "proc_trace"
KIND_PROC_ADMIN = "proc_admin"

_EXPOSITION_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def shard_addresses(sock_dir: str, shard_ids: List[str],
                    scheme: str = "unix",
                    ports: Optional[Dict[str, int]] = None) -> Dict[str, str]:
    """The deterministic address book: every shard listens on a Unix
    socket named after it, so each process computes the full directory
    from (dir, shard ids) alone — no discovery round.  The ``tcp``
    scheme needs driver-picked ``ports`` (port 0 would resolve
    differently in every process, breaking the recomputation property),
    so TCP meshes pass the resolved book to each shard instead."""
    if scheme == "tcp":
        if ports is None:
            raise ValueError("tcp shard addresses need pre-picked ports")
        return {shard_id: "tcp:127.0.0.1:%d" % ports[shard_id]
                for shard_id in shard_ids}
    return {shard_id: "unix:%s/%s.sock" % (sock_dir, shard_id)
            for shard_id in shard_ids}


def _allocate_tcp_ports(shard_ids: List[str]) -> Dict[str, int]:
    """One free loopback port per shard, picked by binding port 0 and
    releasing it (the standard ephemeral-port trick; SO_REUSEADDR keeps
    the just-released port bindable by the shard that inherits it)."""
    ports: Dict[str, int] = {}
    for shard_id in shard_ids:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", 0))
            ports[shard_id] = sock.getsockname()[1]
        finally:
            sock.close()
    return ports


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


class AdminOp:
    """One table entry of the shared admin-operation registry.

    ``scope`` places the implementation: ``"shard"`` ops run against one
    :class:`MeshShard` (or every shard when no target is named),
    ``"mesh"`` ops run against the mesh runner itself (membership and
    restarts), and ``"node"`` ops are internal to the process fabric's
    membership protocol — reachable over ``proc_admin`` but never
    published on the public surface (:data:`ADMIN_OPS`)."""

    __slots__ = ("name", "scope", "run", "needs_shard", "help")

    def __init__(self, name: str, scope: str,
                 run: Optional[Callable[..., Any]] = None,
                 needs_shard: bool = False, help: str = ""):
        self.name = name
        self.scope = scope
        self.run = run
        self.needs_shard = needs_shard
        self.help = help


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


class SocketMesh(BrokerMesh):
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
            address = shard_addresses(
                self.sock_dir, [shard_id], scheme=self.scheme,
                ports=_allocate_tcp_ports([shard_id])
                if self.scheme == "tcp" else None)[shard_id]
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

    # -- observability -----------------------------------------------------

    def transport_stats(self) -> Dict[str, dict]:
        return {node.node_id: node.transport_snapshot()
                for node in self.nodes}

    def metrics_exposition(self) -> str:
        """One exposition page covering every shard (``shard`` label)."""
        return merge_expositions([
            shard.metrics.exposition(
                extra_labels=(("shard", shard.peer_id),))
            for shard in self.shards])

    def trace_events(self, trace: Optional[str] = None) -> List[dict]:
        """Span events from every shard's ring, stitched into one
        wall-clock timeline (optionally filtered to one trace id)."""
        return stitch([shard.tracer.events(trace)
                       for shard in self.shards
                       if shard.tracer is not None], trace)

    def render_trace(self, trace: str) -> str:
        return render_timeline(self.trace_events(trace), trace)

    # -- HTTP operational API ----------------------------------------------

    def serve_http(self, host: str = "127.0.0.1",
                   port: int = 0) -> ObsHttpServer:
        """Open the mesh-wide HTTP endpoint (idempotent).  The server is
        polled from :meth:`flush`, so handlers run on the mesh's own
        pump thread."""
        if self.http is not None:
            return self.http
        server = ObsHttpServer(host, port, token=self.auth_token)
        _install_mesh_routes(server, self)
        self.http = server
        return server

    def run_shard_op(self, shard_id: str, op: str, args: dict) -> Any:
        """Run one shard-scope registry op against one local shard."""
        shard = self._by_id.get(shard_id)
        if shard is None:
            raise ValueError("no shard %r in this mesh" % shard_id)
        return ADMIN_REGISTRY[op].run(shard, args)

    def admin_op(self, op: str, shard_id: Optional[str] = None,
                 args: Optional[dict] = None) -> dict:
        """Run one admin operation (see :func:`run_admin_op`); shard-scope
        ops with no ``shard_id`` run against every shard."""
        return run_admin_op(self, op, shard_id, args)

    def close(self) -> None:
        if self.http is not None:
            self.http.close()
            self.http = None
        super().close()
        self.hub.close()
        if self._tmp_dir:
            shutil.rmtree(self.sock_dir, ignore_errors=True)
            self._tmp_dir = False


def _install_mesh_routes(server: ObsHttpServer, mesh: SocketMesh) -> None:
    """The whole-mesh route table: every read endpoint takes an optional
    ``?shard=`` filter; admin POSTs are token-guarded."""

    def target(query: dict) -> Optional[MeshShard]:
        shard_id = query.get("shard")
        if shard_id is None:
            return None
        shard = mesh._by_id.get(shard_id)
        if shard is None:
            raise HttpError(404, "no shard %r" % shard_id)
        return shard

    def metrics_route(query: dict, body: bytes):
        shard = target(query)
        if shard is not None:
            page = shard.metrics.exposition(
                extra_labels=(("shard", shard.peer_id),))
        else:
            page = mesh.metrics_exposition()
        return (_EXPOSITION_TYPE, page.encode("utf-8"))

    def stats_route(query: dict, body: bytes):
        shard = target(query)
        return _jsonable(shard.stats() if shard is not None
                         else mesh.stats())

    def per_shard(query: dict, pick) -> dict:
        shard = target(query)
        shards = [shard] if shard is not None else mesh.shards
        return _jsonable({s.peer_id: pick(s) for s in shards})

    def log_route(query: dict, body: bytes):
        return per_shard(query, lambda s: s.event_log.stats()
                         if s.event_log is not None else None)

    def cursors_route(query: dict, body: bytes):
        return per_shard(query, lambda s: s.cursors.as_dict()
                         if s.event_log is not None else None)

    def replicas_route(query: dict, body: bytes):
        return per_shard(query, lambda s: s.replicas.stats()
                         if s.replicas is not None else None)

    def topology_route(query: dict, body: bytes):
        return _jsonable({
            "epoch": mesh.epoch,
            "topology": mesh.topology.as_dict(),
            "shard_epochs": {shard.peer_id: shard.epoch
                             for shard in mesh.shards},
        })

    def trace_route(query: dict, body: bytes):
        trace = query.get("id")
        spans = mesh.trace_events(trace)
        result = {"spans": spans}
        if trace is not None:
            result["trace"] = trace
            result["timeline"] = render_timeline(spans, trace)
        else:
            seen: List[str] = []
            for span in spans:
                if span["trace"] not in seen:
                    seen.append(span["trace"])
            result["traces"] = seen
        return _jsonable(result)

    def admin_route(op: str):
        def handler(query: dict, body: bytes):
            args = json_body(body)
            shard_id = args.pop("shard", None)
            try:
                return _jsonable(mesh.admin_op(op, shard_id, args))
            except ValueError as error:
                raise HttpError(400, str(error))
            except NetworkError as error:
                raise HttpError(502, str(error))
        return handler

    server.route("GET", "/metrics", metrics_route)
    server.route("GET", "/stats", stats_route)
    server.route("GET", "/mesh/stats", stats_route)
    server.route("GET", "/log", log_route)
    server.route("GET", "/cursors", cursors_route)
    server.route("GET", "/replicas", replicas_route)
    server.route("GET", "/topology", topology_route)
    server.route("GET", "/trace", trace_route)
    for op in ADMIN_OPS:
        server.route("POST", "/admin/" + op, admin_route(op), auth=True)


# ---------------------------------------------------------------------------
# one shard per OS process
# ---------------------------------------------------------------------------

#: Pump rounds a retiring shard grants its followers to acknowledge the
#: replication watermark before the removal aborts.
_RETIRE_COVERAGE_ROUNDS = 5000


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
    stopping: List[bool] = []
    restart_queue: List[bool] = []
    #: Deferred membership jobs (retire / rebalance).  They must run at
    #: pump-loop top level: a job settles subscriber ack windows, and
    #: running it inside a blocking driver request would leave the
    #: driver pumping requests-only — its hosted subscribers' acks
    #: would stall and the settle could never drain.
    jobs: List[tuple] = []
    job_state: Dict[str, Any] = {"done": True, "error": None, "value": None}
    control = {"unauthorized": 0, "restarts": 0}
    state: Dict[str, Any] = {"topology": topo}
    server_box: Dict[str, ObsHttpServer] = {}  # filled once http binds
    probe = shard_id + "-obs"  # reply address for fan-out requests

    def http_unauthorized() -> int:
        server = server_box.get("server")
        return server.unauthorized if server is not None else 0

    def authorized(token_bytes: bytes) -> bool:
        if auth_token is None:
            return True  # explicitly unsecured mesh
        return token_bytes == auth_token.encode("utf-8")

    def pump_once() -> None:
        network.poll(0.002)
        state["shard"].flush_delivery()

    # -- control-plane handlers (closures over the mutable shard slot) ---

    def handle_ping(payload: bytes, src: str) -> bytes:
        return b"PONG"

    def node_snapshot() -> dict:
        shard = state["shard"]
        return {
            "shard": shard_id,
            "epoch": shard.epoch,
            "pending_deliveries": shard.pending_deliveries(),
            "network_pending": network.pending(),
            "idle": network.idle() and not shard.pending_deliveries(),
            "stats": shard.stats(),
            "transport": network.transport_snapshot(),
            "unauthorized": control["unauthorized"],
            "http_unauthorized": http_unauthorized(),
            "restarts": control["restarts"],
        }

    def handle_stats(payload: bytes, src: str) -> bytes:
        return json.dumps(_jsonable(node_snapshot())).encode("utf-8")

    def handle_metrics(payload: bytes, src: str) -> bytes:
        shard = state["shard"]
        body = {
            "shard": shard_id,
            "snapshot": shard.metrics.snapshot(),
            "exposition": shard.metrics.exposition(
                extra_labels=(("shard", shard_id),)),
        }
        return json.dumps(_jsonable(body)).encode("utf-8")

    def handle_trace(payload: bytes, src: str) -> bytes:
        shard = state["shard"]
        trace = payload.decode("utf-8") or None
        if shard.tracer is None:
            body = {"node": shard_id, "spans": [], "traces": []}
        else:
            body = {"node": shard_id,
                    "spans": shard.tracer.events(trace),
                    "traces": shard.tracer.trace_ids()}
        return json.dumps(_jsonable(body)).encode("utf-8")

    def handle_stop(payload: bytes, src: str) -> bytes:
        if not authorized(payload):
            control["unauthorized"] += 1
            return b"DENIED"
        stopping.append(True)
        return b"OK"

    def run_job(op: str, args: dict) -> Any:
        if op == "retire":
            survivors = Topology.from_dict(args["topology"])
            return {"handed_off": state["shard"].retire(
                survivors, pump_once, _RETIRE_COVERAGE_ROUNDS)}
        if op == "rebalance":
            moved = state["shard"].handoff_durable_subscriptions(
                state["topology"], pump=pump_once)
            return {"handed_off": moved}
        raise ValueError("unknown membership job %r" % op)

    def do_admin(op: str, args: dict, inline: bool = False) -> Any:
        shard = state["shard"]
        if op == "restart_shard":
            # Deferred to the pump loop: rebuilding the shard from inside
            # a dispatch handler would re-enter the network mid-poll.
            restart_queue.append(True)
            return {"restarting": shard_id}
        if op == "set_topology":
            topo = Topology.from_dict(args["topology"])
            extra = {sid: addr
                     for sid, addr in (args.get("addresses") or {}).items()
                     if sid != shard_id}
            if extra:
                network.add_routes(extra)
            committed = shard.set_topology(topo)
            if committed:
                state["topology"] = topo
                network.set_epoch(topo.epoch)
                shard.ensure_replica_coverage()
            return {"committed": committed, "epoch": shard.epoch}
        if op == "resync":
            return {"synced": shard._sync_summaries()}
        if op == "job_status":
            return dict(job_state)
        if op in ("retire", "rebalance"):
            if inline:
                # HTTP handlers run from server.poll() at pump-loop top
                # level, so the job may run right here.
                return run_job(op, args)
            if not job_state["done"]:
                raise ValueError("a membership job is already running")
            job_state.update(done=False, error=None, value=None)
            jobs.append((op, dict(args)))
            return {"queued": op}
        spec = ADMIN_REGISTRY.get(op)
        if spec is None or spec.scope != "shard" or spec.run is None:
            raise ValueError("op %r is not a shard-process operation" % op)
        return spec.run(shard, args)

    def admin_envelope(op: str, result: Any) -> dict:
        return {"ok": True, "op": op, "shard": shard_id,
                "epoch": state["shard"].epoch, "result": result}

    def handle_admin(payload: bytes, src: str) -> bytes:
        try:
            request = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return json.dumps({"error": "bad admin request"}).encode("utf-8")
        token = request.get("token") or ""
        if not authorized(token.encode("utf-8")):
            control["unauthorized"] += 1
            return json.dumps({"error": "unauthorized"}).encode("utf-8")
        op = request.get("op")
        if op not in ADMIN_REGISTRY:
            return json.dumps(
                {"error": "unknown admin op %r" % (op,)}).encode("utf-8")
        try:
            result = do_admin(op, request.get("args") or {})
        except Exception as error:
            return json.dumps({"error": str(error)}).encode("utf-8")
        return json.dumps(
            _jsonable(admin_envelope(op, result))).encode("utf-8")

    def build_shard() -> MeshShard:
        shard = MeshShard(shard_id, network,
                          replication_factor=replication_factor, **kwargs)
        register_network_metrics(shard.metrics, network)
        shard.metrics.gauge("control.unauthorized",
                            "rejected control-plane requests",
                            sample=lambda: control["unauthorized"])
        shard.metrics.gauge("control.restarts",
                            "in-place shard restarts served",
                            sample=lambda: control["restarts"])
        shard.metrics.gauge("control.http_unauthorized",
                            "rejected HTTP admin requests",
                            sample=http_unauthorized)
        shard.on(KIND_PROC_PING, handle_ping)
        shard.on(KIND_PROC_STATS, handle_stats)
        shard.on(KIND_PROC_METRICS, handle_metrics)
        shard.on(KIND_PROC_TRACE, handle_trace)
        shard.on(KIND_PROC_ADMIN, handle_admin)
        shard.on(KIND_PROC_STOP, handle_stop)
        state["shard"] = shard
        return shard

    build_shard()
    network.add_routes({sid: addr for sid, addr in addresses.items()
                        if sid != shard_id})
    state["shard"].set_topology(topo)
    network.set_epoch(topo.epoch)

    # -- HTTP API: any node answers for itself and (via the control
    # plane) for the whole mesh -------------------------------------------
    server: Optional[ObsHttpServer] = None
    if http:
        server = ObsHttpServer(token=auth_token)
        server_box["server"] = server
        _install_node_routes(server, state, shard_id, network,
                             probe, auth_token, do_admin)
        # The address file appears before the first poll answers a ping,
        # so a shard that responds to ping is already scrapable.
        with open(os.path.join(sock_dir, shard_id + ".http"), "w") as handle:
            handle.write(server.address)

    while not stopping:
        network.poll(0.005)
        if jobs:
            op, args = jobs.pop(0)
            try:
                value = run_job(op, args)
            except Exception as error:
                job_state.update(done=True, error=str(error), value=None)
            else:
                job_state.update(done=True, error=None, value=value)
        if restart_queue:
            del restart_queue[:]
            state["shard"].close()
            shard = build_shard()
            shard.set_topology(state["topology"])
            shard.recover()
            control["restarts"] += 1
        state["shard"].flush_delivery()
        if server is not None:
            server.poll()
    # One farewell pump so the stop response and any buffered deliveries
    # reach the wire before teardown.
    for _ in range(10):
        network.poll(0.002)
        state["shard"].flush_delivery()
    if server is not None:
        server.close()
    state["shard"].close()
    network.close()


def _install_node_routes(server: ObsHttpServer, state: Dict[str, Any],
                         shard_id: str,
                         network: SocketNetwork, probe: str,
                         auth_token: Optional[str],
                         do_admin) -> None:
    """The per-process route table.  ``/metrics``..``/trace`` read this
    node; the ``/mesh/*`` routes fan out over the ``proc_*`` control
    plane so any one node answers for the whole mesh; ``/admin/*``
    POSTs (token-guarded) run locally or forward to the named shard."""

    def shard_ids() -> List[str]:
        return state["topology"].shard_ids

    def metrics_route(query: dict, body: bytes):
        page = state["shard"].metrics.exposition(
            extra_labels=(("shard", shard_id),))
        return (_EXPOSITION_TYPE, page.encode("utf-8"))

    def stats_route(query: dict, body: bytes):
        shard = state["shard"]
        return _jsonable({
            "shard": shard_id,
            "epoch": shard.epoch,
            "pending_deliveries": shard.pending_deliveries(),
            "stats": shard.stats(),
            "transport": network.transport_snapshot(),
        })

    def log_route(query: dict, body: bytes):
        shard = state["shard"]
        if shard.event_log is None:
            raise HttpError(404, "shard has no event log")
        return _jsonable(shard.event_log.stats())

    def cursors_route(query: dict, body: bytes):
        shard = state["shard"]
        if shard.event_log is None:
            raise HttpError(404, "shard has no event log")
        return _jsonable(shard.cursors.as_dict())

    def replicas_route(query: dict, body: bytes):
        shard = state["shard"]
        if shard.replicas is None:
            return {}
        return _jsonable(shard.replicas.stats())

    def topology_route(query: dict, body: bytes):
        shard = state["shard"]
        snapshot = network.transport_snapshot()
        return _jsonable({
            "shard": shard_id,
            "epoch": shard.epoch,
            "topology": state["topology"].as_dict(),
            "peer_epochs": snapshot.get("peer_epochs", {}),
        })

    def trace_route(query: dict, body: bytes):
        shard = state["shard"]
        if shard.tracer is None:
            raise HttpError(404, "tracing disabled on this shard")
        trace = query.get("id")
        return _jsonable({"node": shard_id,
                          "spans": shard.tracer.events(trace),
                          "traces": shard.tracer.trace_ids()})

    def fan_out(kind: str, payload: bytes):
        """(shard_id, decoded JSON | None) for every *other* shard."""
        for sid in shard_ids():
            if sid == shard_id:
                continue
            try:
                response = network.request(probe, sid, kind, payload)
                yield sid, json.loads(response.decode("utf-8"))
            except (NetworkError, ValueError) as error:
                yield sid, {"error": str(error)}

    def mesh_stats_route(query: dict, body: bytes):
        snapshots = {shard_id: stats_route(query, body)}
        for sid, snapshot in fan_out(KIND_PROC_STATS, b""):
            snapshots[sid] = snapshot
        return {"mesh": _jsonable(snapshots)}

    def mesh_metrics_route(query: dict, body: bytes):
        pages = [state["shard"].metrics.exposition(
            extra_labels=(("shard", shard_id),))]
        for sid, result in fan_out(KIND_PROC_METRICS, b""):
            page = result.get("exposition") if isinstance(result, dict) \
                else None
            if page:
                pages.append(page)
        return (_EXPOSITION_TYPE, merge_expositions(pages).encode("utf-8"))

    def mesh_trace_route(query: dict, body: bytes):
        trace = query.get("id")
        shard = state["shard"]
        span_lists = []
        if shard.tracer is not None:
            span_lists.append(shard.tracer.events(trace))
        for sid, result in fan_out(KIND_PROC_TRACE,
                                   (trace or "").encode("utf-8")):
            if isinstance(result, dict) and "spans" in result:
                span_lists.append(result["spans"])
        spans = stitch(span_lists, trace)
        result = {"spans": spans}
        if trace is not None:
            result["trace"] = trace
            result["timeline"] = render_timeline(spans, trace)
        else:
            seen: List[str] = []
            for span in spans:
                if span["trace"] not in seen:
                    seen.append(span["trace"])
            result["traces"] = seen
        return _jsonable(result)

    def admin_route(op: str):
        def handler(query: dict, body: bytes):
            args = json_body(body)
            target = args.pop("shard", None)
            if target in (None, shard_id):
                try:
                    result = do_admin(op, args, inline=True)
                except ValueError as error:
                    raise HttpError(400, str(error))
                return _jsonable({"ok": True, "op": op, "shard": shard_id,
                                  "epoch": state["shard"].epoch,
                                  "result": result})
            if target not in shard_ids():
                raise HttpError(404, "no shard %r" % target)
            payload = json.dumps({"token": auth_token, "op": op,
                                  "args": args}).encode("utf-8")
            try:
                response = network.request(probe, target, KIND_PROC_ADMIN,
                                           payload)
            except NetworkError as error:
                raise HttpError(502, str(error))
            result = json.loads(response.decode("utf-8"))
            if "error" in result:
                raise HttpError(502, str(result["error"]))
            return _jsonable(result)
        return handler

    server.route("GET", "/metrics", metrics_route)
    server.route("GET", "/stats", stats_route)
    server.route("GET", "/log", log_route)
    server.route("GET", "/cursors", cursors_route)
    server.route("GET", "/replicas", replicas_route)
    server.route("GET", "/topology", topology_route)
    server.route("GET", "/trace", trace_route)
    server.route("GET", "/mesh/stats", mesh_stats_route)
    server.route("GET", "/mesh/metrics", mesh_metrics_route)
    server.route("GET", "/mesh/trace", mesh_trace_route)
    for op in ADMIN_OPS:
        # Driver-level ops (add_shard/remove_shard) answer 400 here: a
        # node cannot spawn or reap its peers' processes.
        server.route("POST", "/admin/" + op, admin_route(op), auth=True)


class ProcessMesh:
    """A mesh of shard *processes* plus a driver-side socket node.

    Spawns one OS process per shard (each running
    :func:`_shard_process_main`), waits for every shard to answer a ping,
    and exposes :attr:`network` — a :class:`SocketNetwork` in the calling
    process, routed to every shard — for client peers to register on.
    The control plane (:meth:`ping`, :meth:`shard_stats`,
    :meth:`shard_metrics`, :meth:`trace_events`, :meth:`admin`,
    :meth:`stop`) rides the same socket protocol as publishes and
    deliveries; mutating operations carry :attr:`auth_token`, minted
    here and shared with every shard at spawn.  Each shard also serves
    the HTTP API; :meth:`http_address` reads the advertised URL.

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
        self.addresses = shard_addresses(
            self.sock_dir, config.shard_ids, scheme=scheme,
            ports=_allocate_tcp_ports(config.shard_ids) if scheme == "tcp"
            else None)
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
        self._admin = name + "-admin"
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

    @property
    def shard_ids(self) -> List[str]:
        return self.topology.shard_ids

    @property
    def epoch(self) -> int:
        return self.topology.epoch

    def shard_for(self, peer_id: str) -> str:
        return self.topology.shard_for(peer_id)

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
        address = shard_addresses(
            self.sock_dir, [new_id], scheme=self.scheme,
            ports=_allocate_tcp_ports([new_id]) if self.scheme == "tcp"
            else None)[new_id]
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
        token = (self.auth_token or "").encode("utf-8")
        try:
            self.network.request(self._admin, shard_id, KIND_PROC_STOP,
                                 token)
        except NetworkError:
            pass  # already gone; the join below settles it
        process = self.processes.pop(shard_id, None)
        if process is not None:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - stuck-shard safety
                process.terminate()
                process.join(timeout=5.0)
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

    # -- control plane -----------------------------------------------------

    def ping(self, shard_id: str) -> None:
        response = self.network.request(self._admin, shard_id,
                                        KIND_PROC_PING, b"")
        if response != b"PONG":
            raise NetworkError("unexpected ping response %r" % response)

    def shard_stats(self, shard_id: str) -> dict:
        response = self.network.request(self._admin, shard_id,
                                        KIND_PROC_STATS, b"")
        return json.loads(response.decode("utf-8"))

    def shard_metrics(self, shard_id: str) -> dict:
        """One shard's registry: ``{"snapshot": tree, "exposition": text}``."""
        response = self.network.request(self._admin, shard_id,
                                        KIND_PROC_METRICS, b"")
        return json.loads(response.decode("utf-8"))

    def metrics_snapshots(self) -> Dict[str, dict]:
        """Every shard's ``snapshot()`` tree, keyed by shard id — the
        soak report embeds this."""
        return {shard_id: self.shard_metrics(shard_id).get("snapshot", {})
                for shard_id in self.shard_ids}

    def metrics_exposition(self) -> str:
        """One exposition page covering every shard."""
        return merge_expositions([
            self.shard_metrics(shard_id).get("exposition", "")
            for shard_id in self.shard_ids])

    def trace_events(self, trace: Optional[str] = None) -> List[dict]:
        """Collect every shard's span ring over ``proc_trace`` and stitch
        them into one wall-clock timeline."""
        payload = (trace or "").encode("utf-8")
        span_lists = []
        for shard_id in self.shard_ids:
            response = self.network.request(self._admin, shard_id,
                                            KIND_PROC_TRACE, payload)
            span_lists.append(
                json.loads(response.decode("utf-8")).get("spans", []))
        return stitch(span_lists, trace)

    def render_trace(self, trace: str) -> str:
        """The ``repro trace`` view: the stitched cross-process timeline."""
        return render_timeline(self.trace_events(trace), trace)

    def admin(self, op: str, shard_id: str,
              args: Optional[dict] = None) -> dict:
        """Run a token-authenticated admin operation on one shard; the
        reply is the wire envelope (``{ok, op, shard, epoch, result}``)."""
        payload = json.dumps({"token": self.auth_token, "op": op,
                              "args": dict(args or {})}).encode("utf-8")
        response = self.network.request(self._admin, shard_id,
                                        KIND_PROC_ADMIN, payload)
        result = json.loads(response.decode("utf-8"))
        if "error" in result:
            raise NetworkError("admin %s on %s failed: %s"
                               % (op, shard_id, result["error"]))
        return result

    def run_shard_op(self, shard_id: str, op: str, args: dict) -> Any:
        """One shard-scope registry op over the wire (the
        :func:`run_admin_op` fan-out hook)."""
        if shard_id not in self.topology:
            raise ValueError("no shard %r in this mesh" % shard_id)
        return self.admin(op, shard_id, args).get("result")

    def admin_op(self, op: str, shard_id: Optional[str] = None,
                 args: Optional[dict] = None) -> dict:
        """Run one public admin operation (see :func:`run_admin_op`)."""
        return run_admin_op(self, op, shard_id, args)

    def restart_shard(self, shard_id: str) -> dict:
        """Ask one shard process to crash-restart its shard in place (the
        rebuild happens on the shard's next pump tick)."""
        return self.admin("restart_shard", shard_id)

    def topology_view(self, shard_id: str) -> dict:
        """One shard's committed membership view (epoch + topology),
        read over ``proc_stats``."""
        snapshot = self.shard_stats(shard_id)
        return {"shard": shard_id, "epoch": snapshot.get("epoch")}

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

    def all_idle(self) -> bool:
        """Every shard reports an empty delivery buffer and an idle node
        — the cross-process quiescence check (the driver's own queues are
        its caller's to drain)."""
        return all(self.shard_stats(shard_id).get("idle")
                   for shard_id in self.shard_ids)

    def stop(self, timeout: float = 10.0) -> None:
        if self._stopped:
            return
        self._stopped = True
        token = (self.auth_token or "").encode("utf-8")
        for shard_id in list(self.processes):
            try:
                self.network.request(self._admin, shard_id, KIND_PROC_STOP,
                                     token)
            except NetworkError:
                pass  # already gone; the join below settles it
        for process in self.processes.values():
            process.join(timeout=timeout)
        for process in self.processes.values():
            if process.is_alive():  # pragma: no cover - stuck-shard safety
                process.terminate()
                process.join(timeout=5.0)
        self.network.close()
        if self._tmp_dir:
            shutil.rmtree(self.sock_dir, ignore_errors=True)

    def close(self) -> None:
        self.stop()

    def __enter__(self) -> "ProcessMesh":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
