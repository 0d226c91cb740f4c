"""Operational-API integration tests: SocketMesh and ProcessMesh.

The in-process :class:`SocketMesh` tests cover the HTTP route table,
auth and admin plumbing cheaply; the single :class:`ProcessMesh` test is
the PR's acceptance path — a record published through real OS processes
leaves a stitched cross-shard trace timeline, every node serves a
parseable ``/metrics`` page, one node answers ``/mesh/*`` for the whole
mesh, and admin operations are token-guarded end to end.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.apps.tps import TpsPeer
from repro.apps.tps.procmesh import (
    ADMIN_OPS,
    KIND_PROC_STOP,
    ProcessMesh,
    SocketMesh,
)
from repro.apps.tps.topology import Topology
from repro.fixtures import person_assembly_pair, person_java
from repro.obs.metrics import parse_exposition


def get(url, token=None, method="GET", body=None, timeout=20):
    request = urllib.request.Request(url, data=body, method=method)
    if token is not None:
        request.add_header("Authorization", "Bearer " + token)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def mesh_get(mesh, url, **kwargs):
    """Fetch from an in-process SocketMesh node.  The mesh's polled HTTP
    server only answers while the mesh is pumped, so the request runs on
    a helper thread while this thread drives :meth:`SocketMesh.flush`."""
    box = {}

    def fetch():
        box["result"] = get(url, **kwargs)

    thread = threading.Thread(target=fetch, daemon=True)
    thread.start()
    while thread.is_alive():
        mesh.flush()
        thread.join(timeout=0.001)
    return box["result"]


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
        assert "events_routed" in json.loads(payload)
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
            assert set(json.loads(payload)["mesh"]) == set(mesh.shard_ids)
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
            node = mesh.shard_stats(target)
            assert node["unauthorized"] >= 1
            assert node["http_unauthorized"] >= 1

            # -- in-place restart keeps the shard serving --
            restart = mesh.restart_shard(target)
            assert restart["ok"] and restart["result"]["restarting"] == target
            for _ in range(200):
                driver.poll(0.01)
                if mesh.shard_stats(target).get("restarts"):
                    break
            assert mesh.shard_stats(target)["restarts"] == 1
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
