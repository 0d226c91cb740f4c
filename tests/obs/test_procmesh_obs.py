"""Operational-API integration tests: SocketMesh and ProcessMesh.

The route-schema test runs one set of assertions against a
:class:`SocketMesh` endpoint and a :class:`ProcessMesh` shard node: both
serve the one route table, so every path answers in the same shape.
The in-process :class:`SocketMesh` tests cover auth and admin plumbing
cheaply; the :class:`ProcessMesh` acceptance test publishes a record
through real OS processes and checks the stitched cross-shard trace
timeline, every node's parseable ``/metrics`` page, one node answering
``/mesh/*`` for the whole mesh, and token-guarded admin end to end.
"""

import io
import json
import signal
import threading
import urllib.error
import urllib.request

import pytest

from repro.apps.tps import TpsPeer
from repro.apps.tps.procmesh import (
    ADMIN_OPS,
    KIND_PROC_STOP,
    VIEWS,
    ProcessMesh,
    SocketMesh,
)
from repro.apps.tps.topology import Topology
from repro.cli import main
from repro.fixtures import person_assembly_pair, person_java
from repro.obs.metrics import parse_exposition
from test_stats_schema import BROKER_MESH_KEYS, TRANSPORT_SNAPSHOT_KEYS


def get(url, token=None, method="GET", body=None, timeout=20):
    request = urllib.request.Request(url, data=body, method=method)
    if token is not None:
        request.add_header("Authorization", "Bearer " + token)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def pumped(pump, call):
    """Run ``call`` on a helper thread while this thread drives
    ``pump`` — an in-process SocketMesh's polled HTTP server only
    answers while the mesh is pumped."""
    box = {}
    thread = threading.Thread(target=lambda: box.update(result=call()),
                              daemon=True)
    thread.start()
    while thread.is_alive():
        pump()
        thread.join(timeout=0.001)
    return box["result"]


def mesh_get(mesh, url, **kwargs):
    """Fetch from an in-process SocketMesh node."""
    return pumped(mesh.flush, lambda: get(url, **kwargs))


def metric_groups(samples):
    """Top-level family groups present on an exposition page."""
    return {name.split("_")[1] for name in samples}


@pytest.fixture
def socket_mesh(tmp_path):
    mesh = SocketMesh(topology=Topology.sized(3, "obssock"),
                      log_root=str(tmp_path / "logs"), replication_factor=1)
    driver = mesh.client_network("obssock-driver")
    publisher = TpsPeer("publisher", driver)
    asm_a, _ = person_assembly_pair()
    publisher.host_assembly(asm_a)
    delivered = []
    subscriber = TpsPeer("sub0", driver)
    # Durable: the subscription is persisted with the shard's log, so it
    # survives the restart-in-place admin test below.
    subscriber.subscribe_durable_remote(mesh.shard_for("sub0"),
                                        person_java(), delivered.append,
                                        cursor="sub0-cursor")
    try:
        yield mesh, publisher, delivered
    finally:
        mesh.close()


def publish_one(mesh, publisher, shard_id, text="hello"):
    publisher.publish_async(
        shard_id, publisher.new_instance("demo.a.Person", [text]))
    mesh.run_until_idle()


class TestSocketMeshHttp:
    def test_metrics_page_parses_and_covers_families(self, socket_mesh):
        mesh, publisher, delivered = socket_mesh
        publish_one(mesh, publisher, mesh.shard_for("sub0"))
        assert delivered
        server = mesh.serve_http()
        assert mesh.serve_http() is server  # idempotent

        status, payload = mesh_get(mesh, server.address + "/metrics")
        assert status == 200
        samples = parse_exposition(payload.decode("utf-8"))
        groups = metric_groups(samples)
        assert {"pipeline", "log", "replication", "transport",
                "mesh", "trace"} <= groups
        # Every shard labels its samples on the merged page.
        labels = {dict(pairs).get("shard")
                  for pairs in samples["repro_pipeline_events_routed"]}
        assert labels == set(mesh.shard_ids)

    def test_stats_and_shard_filter(self, socket_mesh):
        mesh, publisher, _ = socket_mesh
        server = mesh.serve_http()
        status, payload = mesh_get(mesh, server.address + "/stats")
        assert status == 200
        assert set(json.loads(payload)["shards"]) == set(mesh.shard_ids)

        shard_id = mesh.shard_ids[0]
        status, payload = mesh_get(mesh, server.address + "/stats?shard=" + shard_id)
        assert status == 200
        narrowed = json.loads(payload)
        assert "events_routed" in narrowed
        assert set(narrowed["shards"]) == {shard_id}
        assert mesh_get(mesh, server.address + "/metrics?shard=nope")[0] == 404

    def test_log_cursors_replicas_pages(self, socket_mesh):
        mesh, publisher, _ = socket_mesh
        publish_one(mesh, publisher, mesh.shard_ids[0])
        server = mesh.serve_http()
        for path in ("/log", "/cursors", "/replicas"):
            status, payload = mesh_get(mesh, server.address + path)
            assert status == 200, path
            assert set(json.loads(payload)) == set(mesh.shard_ids), path

    def test_trace_listing_and_timeline(self, socket_mesh):
        mesh, publisher, delivered = socket_mesh
        publish_one(mesh, publisher, mesh.shard_for("sub0"))
        server = mesh.serve_http()
        status, payload = mesh_get(mesh, server.address + "/trace")
        traces = json.loads(payload)["traces"]
        assert status == 200 and traces
        status, payload = mesh_get(mesh, server.address + "/trace?id=" + traces[-1])
        body = json.loads(payload)
        assert body["spans"]
        assert "timeline" in body
        assert traces[-1] in mesh.render_trace(traces[-1])

    def test_admin_requires_token_and_counts_rejects(self, socket_mesh):
        mesh, publisher, _ = socket_mesh
        publish_one(mesh, publisher, mesh.shard_ids[0])
        server = mesh.serve_http()
        url = server.address + "/admin/compact"
        assert mesh_get(mesh, url, method="POST", body=b"")[0] == 401
        assert mesh_get(mesh, url, token="wrong", method="POST", body=b"")[0] == 401
        assert server.unauthorized == 2
        status, payload = mesh_get(mesh, url, token=mesh.auth_token,
                                   method="POST", body=b"")
        assert status == 200
        envelope = json.loads(payload)
        assert envelope["ok"] and envelope["op"] == "compact"
        assert envelope["epoch"] == mesh.epoch
        assert set(envelope["result"]) == set(mesh.shard_ids)

    def test_admin_prune_and_bad_op_routes(self, socket_mesh):
        mesh, publisher, _ = socket_mesh
        server = mesh.serve_http()
        status, payload = mesh_get(
            mesh, server.address + "/admin/prune", token=mesh.auth_token,
            method="POST", body=json.dumps({"max_idle_incarnations": 1})
            .encode("utf-8"))
        assert status == 200
        envelope = json.loads(payload)
        assert envelope["ok"] and envelope["op"] == "prune"
        assert set(envelope["result"]) == set(mesh.shard_ids)
        assert mesh_get(mesh, server.address + "/admin/explode",
                        token=mesh.auth_token, method="POST",
                        body=b"")[0] == 404
        assert "restart_shard" in ADMIN_OPS

    def test_restart_shard_over_http(self, socket_mesh):
        mesh, publisher, delivered = socket_mesh
        shard_id = mesh.shard_for("sub0")
        status, payload = mesh_get(
            mesh, mesh.serve_http().address + "/admin/restart_shard",
            token=mesh.auth_token, method="POST",
            body=json.dumps({"shard": shard_id}).encode("utf-8"))
        assert status == 200
        # The rebuilt shard recovered its subscriptions: a fresh publish
        # still reaches the durable subscriber.
        publish_one(mesh, publisher, shard_id, "after-restart")
        assert any(value.getPersonName() == "after-restart"
                   for value in delivered)

    def test_compact_without_log_is_400(self, tmp_path):
        mesh = SocketMesh(topology=Topology.sized(2, "obsnolog"))
        try:
            server = mesh.serve_http()
            status, payload = mesh_get(mesh, server.address + "/admin/compact",
                                  token=mesh.auth_token, method="POST",
                                  body=b"")
            assert status == 400
        finally:
            mesh.close()


class TestProcessMeshObservability:
    def test_cross_process_trace_http_and_admin(self, tmp_path):
        mesh = ProcessMesh(topology=Topology.sized(4, "obsproc"),
                           log_root=str(tmp_path / "logs"),
                           replication_factor=1)
        try:
            driver = mesh.network
            publisher = TpsPeer("publisher", driver)
            asm_a, _ = person_assembly_pair()
            publisher.host_assembly(asm_a)
            delivered = []
            subscriber = TpsPeer("sub0", driver)
            home = mesh.shard_for("sub0")
            subscriber.subscribe_remote(home, person_java(),
                                        delivered.append)
            # Warm every shard: the first record of a type pays the code
            # fetch.  Every later record is admitted header-only, and the
            # trace id travels in the frame bytes.
            for shard_id in mesh.shard_ids:
                publisher.publish_async(
                    shard_id,
                    publisher.new_instance("demo.a.Person", ["warm"]))
            for _ in range(2000):
                driver.poll(0.01)
                if len(delivered) >= len(mesh.shard_ids):
                    break
            warm_count = len(delivered)
            assert warm_count >= len(mesh.shard_ids)

            # Publish to a DIFFERENT shard: the record must cross a real
            # process boundary to reach the subscriber.
            target = next(sid for sid in mesh.shard_ids if sid != home)
            publisher.publish_async(
                target, publisher.new_instance("demo.a.Person", ["x"]))
            for _ in range(2000):
                driver.poll(0.01)
                if len(delivered) > warm_count:
                    break
            assert len(delivered) > warm_count

            # -- the acceptance path: a stitched cross-shard timeline --
            spans = mesh.trace_events()
            by_trace = {}
            for span in spans:
                by_trace.setdefault(span["trace"], []).append(span)
            trace, journey = next(
                (trace, journey) for trace, journey in by_trace.items()
                if len({span["node"] for span in journey}) >= 2)
            stages = {span["stage"] for span in journey}
            assert {"admit", "append", "route", "dispatch"} <= stages
            timeline = mesh.render_trace(trace)
            assert "2 node(s)" in timeline or "3 node(s)" in timeline
            assert "admit" in timeline

            # -- every node serves parseable /metrics with the four
            #    acceptance families --
            address = mesh.http_address(target)
            status, payload = get(address + "/metrics")
            assert status == 200
            groups = metric_groups(parse_exposition(payload.decode("utf-8")))
            assert {"pipeline", "log", "replication", "transport"} <= groups

            # -- one node answers for the whole mesh --
            status, payload = get(address + "/mesh/stats")
            assert status == 200
            assert set(json.loads(payload)["shards"]) == set(mesh.shard_ids)
            status, payload = get(address + "/mesh/metrics")
            assert status == 200
            merged = parse_exposition(payload.decode("utf-8"))
            shards_seen = {dict(pairs).get("shard")
                           for pairs in merged["repro_pipeline_events_routed"]}
            assert shards_seen == set(mesh.shard_ids)
            status, payload = get(address + "/mesh/trace?id=" + trace)
            assert status == 200
            assert trace in json.loads(payload)["timeline"]

            # -- admin surface: token-guarded over HTTP and sockets --
            assert get(address + "/admin/compact", method="POST",
                       body=b"")[0] == 401
            status, payload = get(address + "/admin/compact",
                                  token=mesh.auth_token, method="POST",
                                  body=b"")
            assert status == 200
            result = mesh.admin("prune", target,
                                {"max_idle_incarnations": 3})
            assert result["ok"] and "pruned" in result["result"]

            # Unauthorized proc_stop is refused and counted; the HTTP
            # 401 above is counted on its own gauge.
            assert driver.request("nosy", target, KIND_PROC_STOP,
                                  b"wrong-token") == b"DENIED"
            control = mesh.metrics_snapshots()[target]["control"]
            assert control["unauthorized"] >= 1
            assert control["http_unauthorized"] >= 1

            # -- a kill-restart: the shard process dies by SIGKILL and its
            #    respawned successor keeps the shard serving --
            old = mesh.processes[target]
            mesh.restart_shard(target)
            assert old.exitcode == -signal.SIGKILL
            before_restart = len(delivered)
            publisher.publish_async(
                target, publisher.new_instance("demo.a.Person", ["again"]))
            for _ in range(2000):
                driver.poll(0.01)
                if len(delivered) > before_restart:
                    break
            assert len(delivered) > before_restart
        finally:
            mesh.stop()


# ---------------------------------------------------------------------------
# one route schema: the same assertions against both runners
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def process_mesh(tmp_path_factory):
    mesh = ProcessMesh(topology=Topology.sized(2, "routeproc"),
                       log_root=str(tmp_path_factory.mktemp("routeproc")),
                       replication_factor=1)
    try:
        yield mesh
    finally:
        mesh.stop()


class Endpoint:
    """One HTTP endpoint under test.  ``GET /<view>`` answers for the
    ``hosted`` shards, ``GET /mesh/<view>`` for ``every`` shard;
    ``unauthorized`` reads the endpoint's rejected-admin count, and
    ``pump`` (in-process meshes only) keeps its server answering."""

    def __init__(self, base, hosted, every, token, unauthorized, pump=None):
        self.base = base
        self.hosted = list(hosted)
        self.every = list(every)
        self.token = token
        self.unauthorized = unauthorized
        self.pump = pump

    def call(self, fn):
        return fn() if self.pump is None else pumped(self.pump, fn)

    def fetch(self, path, **kwargs):
        return self.call(lambda: get(self.base + path, **kwargs))

    def json(self, path):
        status, payload = self.fetch(path)
        assert status == 200, (path, payload)
        return json.loads(payload)


@pytest.fixture(params=["socket", "process"])
def endpoint(request, tmp_path):
    if request.param == "socket":
        mesh = SocketMesh(topology=Topology.sized(2, "routesock"),
                          log_root=str(tmp_path / "logs"),
                          replication_factor=1)
        server = mesh.serve_http()
        try:
            yield Endpoint(server.address, mesh.shard_ids, mesh.shard_ids,
                           mesh.auth_token, lambda: server.unauthorized,
                           pump=mesh.flush)
        finally:
            mesh.close()
        return
    mesh = request.getfixturevalue("process_mesh")
    node = mesh.shard_ids[0]
    yield Endpoint(mesh.http_address(node), [node], mesh.shard_ids,
                   mesh.auth_token,
                   lambda: mesh.metrics_snapshots()[node]["control"]
                   ["http_unauthorized"])


class TestOneRouteSchema:
    def test_every_path_answers_in_one_shape(self, endpoint):
        assert set(VIEWS) == {"stats", "metrics", "log", "cursors",
                              "replicas", "transport", "topology", "trace"}
        for prefix, shards in (("", endpoint.hosted),
                               ("/mesh", endpoint.every)):
            stats = endpoint.json(prefix + "/stats")
            assert set(stats) == BROKER_MESH_KEYS
            assert set(stats["shards"]) == set(shards)
            for view in ("log", "cursors", "replicas"):
                pages = endpoint.json(prefix + "/" + view)
                assert set(pages) == set(shards), view
                assert all(page is not None for page in pages.values())
            transport = endpoint.json(prefix + "/transport")
            assert set(transport) == set(shards)
            for snapshot in transport.values():
                assert set(snapshot) == TRANSPORT_SNAPSHOT_KEYS | {"idle"}
            topology = endpoint.json(prefix + "/topology")
            assert set(topology) == {"epoch", "topology", "shard_epochs"}
            assert topology["topology"]["shards"] == endpoint.every
            assert topology["shard_epochs"] == {sid: topology["epoch"]
                                                for sid in shards}
            assert set(endpoint.json(prefix + "/trace")) == \
                {"spans", "traces"}
            assert set(endpoint.json(prefix + "/trace?id=t-none")) == \
                {"spans", "trace", "timeline"}
            status, payload = endpoint.fetch(prefix + "/metrics")
            assert status == 200
            samples = parse_exposition(payload.decode("utf-8"))
            labels = {dict(pairs).get("shard")
                      for pairs in samples["repro_pipeline_events_routed"]}
            assert labels == set(shards)

    def test_shard_filter_narrows_and_404s(self, endpoint):
        target = endpoint.hosted[0]
        for prefix in ("", "/mesh"):
            narrowed = endpoint.json(prefix + "/stats?shard=" + target)
            assert set(narrowed["shards"]) == {target}
            assert set(endpoint.json(prefix + "/log?shard=" + target)) == \
                {target}
            assert endpoint.fetch(prefix + "/stats?shard=nope")[0] == 404
            assert endpoint.fetch(prefix + "/metrics?shard=nope")[0] == 404
        for peer in set(endpoint.every) - set(endpoint.hosted):
            # A shard node answers for its peers only under /mesh/*.
            assert endpoint.fetch("/cursors?shard=" + peer)[0] == 404
            assert set(endpoint.json("/mesh/cursors?shard=" + peer)) == \
                {peer}

    def test_admin_routes_share_auth_ops_and_envelope(self, endpoint):
        before = endpoint.unauthorized()
        assert endpoint.fetch("/admin/compact", method="POST",
                              body=b"")[0] == 401
        assert endpoint.unauthorized() == before + 1
        assert endpoint.fetch("/admin/explode", token=endpoint.token,
                              method="POST", body=b"")[0] == 404
        status, payload = endpoint.fetch("/admin/compact",
                                         token=endpoint.token,
                                         method="POST", body=b"")
        assert status == 200
        envelope = json.loads(payload)
        assert set(envelope) == {"ok", "op", "shard", "epoch", "result"}
        assert envelope["ok"] and envelope["op"] == "compact"
        assert set(envelope["result"]) == set(endpoint.every)
        status, _ = endpoint.fetch(
            "/admin/prune", token=endpoint.token, method="POST",
            body=json.dumps({"shard": "nope"}).encode("utf-8"))
        assert status == 400

    def test_shard_node_refuses_process_lifecycle_ops(self, process_mesh):
        # Only the driver spawns, respawns or reaps shard processes: a
        # shard node answers 400 to the three ops that would need it.
        node = process_mesh.shard_ids[0]
        base = process_mesh.http_address(node)
        for op in ("add_shard", "remove_shard", "restart_shard"):
            status, payload = get(
                base + "/admin/" + op, token=process_mesh.auth_token,
                method="POST", body=json.dumps({"shard": node})
                .encode("utf-8"))
            assert status == 400, (op, payload)
        assert process_mesh.processes[node].is_alive()
        assert process_mesh.epoch == 1

    def test_cli_reads_both_runners_alike(self, endpoint):
        out = io.StringIO()
        assert endpoint.call(lambda: main(
            ["mesh", "topology", "--url", endpoint.base], out=out)) == 0
        listed = out.getvalue()
        assert "epoch     1" in listed
        assert "shards    " + " ".join(endpoint.every) in listed
        epochs = listed.split("shard epochs\n", 1)[1]
        assert sorted(line.split()[0] for line in epochs.splitlines()) == \
            sorted(endpoint.hosted)
        out = io.StringIO()
        assert endpoint.call(lambda: main(
            ["trace", "--list", "--url", endpoint.base], out=out)) == 0
        assert out.getvalue() == "(no spans)\n"
