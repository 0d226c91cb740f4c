"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import CliError, compile_file, main
from repro.fixtures import PERSON_CSHARP_SOURCE, PERSON_JAVA_SOURCE, PERSON_VB_SOURCE


@pytest.fixture
def sources(tmp_path):
    cs = tmp_path / "person_a.cs"
    cs.write_text(PERSON_CSHARP_SOURCE)
    java = tmp_path / "person_b.java"
    java.write_text(PERSON_JAVA_SOURCE)
    vb = tmp_path / "person_c.vb"
    vb.write_text(PERSON_VB_SOURCE)
    return {"cs": str(cs), "java": str(java), "vb": str(vb)}


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestCompileFile:
    def test_each_language(self, sources):
        for path in sources.values():
            types = compile_file(path)
            assert types[0].simple_name == "Person"

    def test_namespace_defaults_to_filename(self, sources):
        types = compile_file(sources["cs"])
        assert types[0].full_name == "person_a.Person"

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "x.py"
        path.write_text("")
        with pytest.raises(CliError):
            compile_file(str(path))


class TestDescribe:
    def test_prints_xml(self, sources):
        code, output = run(["describe", sources["cs"]])
        assert code == 0
        assert "<TypeDescription" in output
        assert 'name="person_a.Person"' in output
        assert "<Method" in output

    def test_missing_file(self):
        code, output = run(["describe", "/no/such/file.cs"])
        assert code == 2
        assert "error:" in output


class TestCheck:
    def test_pragmatic_pass(self, sources):
        code, output = run(["check", sources["cs"], sources["java"]])
        assert code == 0
        assert "conforms to" in output

    def test_strict_fails_renamed(self, sources):
        code, output = run(["check", sources["cs"], sources["java"], "--strict"])
        assert code == 1
        assert "does NOT conform" in output

    def test_strict_passes_identical_names(self, sources):
        code, output = run(["check", sources["vb"], sources["cs"], "--strict"])
        assert code == 0

    def test_behavioral_flag(self, sources):
        code, output = run(["check", sources["cs"], sources["java"], "--behavioral"])
        assert code == 0
        assert "behaviorally" in output

    def test_behavioral_divergence_detected(self, tmp_path, sources):
        rigged = tmp_path / "rigged.cs"
        rigged.write_text(
            """
            class Person {
                private string name;
                public Person(string n) { this.name = n; }
                public string GetName() { return this.name + "!"; }
                public void SetName(string n) { this.name = n; }
            }
            """
        )
        code, output = run(["check", str(rigged), sources["cs"], "--behavioral"])
        assert code == 1
        assert "Divergence" in output


class TestDemo:
    def test_demo_runs(self):
        code, output = run(["demo"])
        assert code == 0
        assert "Grace" in output


class TestLogInspect:
    @pytest.fixture
    def log_dir(self, tmp_path):
        from repro.apps.tps import TpsBroker, TpsPeer
        from repro.fixtures import person_assembly_pair, person_java
        from repro.net.network import SimulatedNetwork

        directory = tmp_path / "broker"
        network = SimulatedNetwork()
        broker = TpsBroker("broker", network, log_dir=str(directory))
        publisher = TpsPeer("pub", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        got = []
        broker.subscribe_durable(person_java(), got.append, cursor="local-c")
        for index in range(3):
            publisher.publish("broker",
                              publisher.new_instance("demo.a.Person",
                                                     ["n%d" % index]))
        broker.close()
        return str(directory)

    def test_inspect_broker_log_dir(self, log_dir):
        code, output = run(["log", "inspect", log_dir])
        assert code == 0
        assert "records       3" in output
        assert "[0, 3)" in output
        assert "local-c" in output
        assert "(0 behind)" in output

    def test_inspect_events_dir_directly(self, log_dir):
        import os
        code, output = run(["log", "inspect", os.path.join(log_dir, "events")])
        assert code == 0
        assert "records       3" in output

    def test_inspect_reports_torn_tail_nonzero_exit(self, log_dir):
        import os
        events = os.path.join(log_dir, "events")
        segment = sorted(name for name in os.listdir(events)
                         if name.endswith(".seg"))[-1]
        path = os.path.join(events, segment)
        with open(path, "r+b") as handle:
            handle.seek(0, 2)
            handle.truncate(handle.tell() - 5)
        code, output = run(["log", "inspect", log_dir])
        assert code == 1
        assert "TORN TAIL" in output

    def test_inspect_shows_journaled_offsets_and_writes_nothing(
            self, log_dir):
        import pathlib

        from repro.persistence import CursorStore
        cursors = pathlib.Path(log_dir) / "cursors.json"
        journal = pathlib.Path(log_dir) / "cursors.log"
        with CursorStore(str(cursors)) as store:
            store.register("journaled-c", peer_id="p")  # checkpointed
            store.advance("journaled-c", 1)             # journaled
            store.advance("journaled-c", 2)
            files = {path: path.read_bytes() for path in (cursors, journal)}
            assert files[journal]  # the advances are only in the journal
            code, output = run(["log", "inspect", log_dir])
            assert code == 0
            assert "journaled-c" in output
            assert "acked below 2 " in output
            assert {path: path.read_bytes() for path in files} == files
            assert "TORN JOURNAL" not in output
            # A half-written journal record is reported, not repaired.
            journal.write_bytes(files[journal] + b"CJR1")
            code, output = run(["log", "inspect", log_dir])
            assert "TORN JOURNAL" in output
            assert "acked below 2 " in output
            assert journal.read_bytes() == files[journal] + b"CJR1"

    def test_inspect_missing_directory(self):
        code, output = run(["log", "inspect", "/no/such/log"])
        assert code == 2
        assert "error:" in output


class TestLogReplicas:
    @pytest.fixture
    def mesh_log_root(self, tmp_path):
        from repro.apps.tps import BrokerMesh, TpsPeer
        from repro.apps.tps.topology import Topology
        from repro.fixtures import person_assembly_pair, person_java
        from repro.net.network import SimulatedNetwork

        network = SimulatedNetwork()
        mesh = BrokerMesh(network, topology=Topology.sized(3),
                          log_root=str(tmp_path / "logs"),
                          replication_factor=1)
        publisher = TpsPeer("pub", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        for shard_id in mesh.shard_ids:
            publisher.publish_async(
                shard_id, publisher.new_instance("demo.a.Person", ["x"]))
        mesh.run_until_idle()
        got = []
        late = TpsPeer("late", network)
        late.subscribe_durable_remote(mesh.shard_ids[0], person_java(),
                                      got.append, cursor="late-c")
        mesh.run_until_idle()
        mesh.close()
        return str(tmp_path / "logs"), mesh.shard_ids

    def test_replicas_lists_per_origin_logs(self, mesh_log_root):
        import os
        log_root, shard_ids = mesh_log_root
        listed = 0
        for shard_id in shard_ids:
            directory = os.path.join(log_root, shard_id)
            if not os.path.isdir(os.path.join(directory, "replicas")):
                continue
            code, output = run(["log", "replicas", directory])
            assert code == 0
            assert "own records" in output
            assert "origin(s)" in output
            assert "high-water" in output
            listed += 1
        assert listed >= 1  # replication really placed replicas somewhere

    def test_replicas_without_directory(self, mesh_log_root):
        import os
        log_root, shard_ids = mesh_log_root
        # An events-only broker dir (no replicas/) reports none.
        bare = os.path.join(log_root, "bare")
        os.makedirs(os.path.join(bare, "events"))
        code, output = run(["log", "replicas", bare])
        assert code == 0
        assert "none" in output

    def test_inspect_marks_fetch_cursors(self, mesh_log_root):
        import os
        log_root, shard_ids = mesh_log_root
        code, output = run(["log", "inspect",
                            os.path.join(log_root, shard_ids[0])])
        assert code == 0
        assert "late-c" in output
        assert "fetched below" in output  # the per-sibling fetch cursors


class TestTrace:
    """The `repro trace` subcommand stitches span dumps into a timeline."""

    @pytest.fixture
    def span_files(self, tmp_path):
        spans_a = [
            {"trace": "t-1", "stage": "admit", "node": "shard0",
             "src": "publisher", "ts": 1.0, "seq": 1, "attrs": {}},
            {"trace": "t-1", "stage": "append", "node": "shard0",
             "src": None, "ts": 2.0, "seq": 2, "attrs": {"offset": 0}},
            {"trace": "t-2", "stage": "admit", "node": "shard0",
             "src": "publisher", "ts": 5.0, "seq": 3, "attrs": {}},
        ]
        spans_b = [
            {"trace": "t-1", "stage": "admit", "node": "shard1",
             "src": "shard0", "ts": 3.0, "seq": 1,
             "attrs": {"via": "forward"}},
            {"trace": "t-1", "stage": "dispatch", "node": "shard1",
             "src": None, "ts": 4.0, "seq": 2, "attrs": {"deliveries": 2}},
        ]
        a = tmp_path / "a.json"
        a.write_text(__import__("json").dumps({"spans": spans_a}))
        b = tmp_path / "b.json"
        b.write_text(__import__("json").dumps(spans_b))  # bare list form
        return str(a), str(b)

    def test_timeline_across_files(self, span_files):
        code, output = run(["trace", "t-1", *span_files])
        assert code == 0
        assert "t-1" in output and "2 node(s)" in output
        assert "admit" in output and "dispatch" in output
        assert "t-2" not in output

    def test_list_traces(self, span_files):
        code, output = run(["trace", "--list", *span_files])
        assert code == 0
        assert "t-1" in output and "4 span(s)" in output
        assert "t-2" in output and "1 span(s)" in output

    def test_unknown_trace_exits_nonzero(self, span_files):
        code, output = run(["trace", "t-missing", *span_files])
        assert code == 1

    def test_no_id_and_no_list_is_an_error(self):
        code, output = run(["trace"])
        assert code == 2
        assert "trace id is required" in output

    def test_no_sources_is_an_error(self):
        code, output = run(["trace", "t-1"])
        assert code == 2
        assert "no span sources" in output
