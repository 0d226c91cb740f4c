"""The subscribe control plane pays for a type's compile, description
render and description parse once per distinct input.

Three exact memos sit on that path: parsed ASTs by (frontend, source
text) in ``langs.compiler``, rendered description XML by wire form in
``describe.xml_codec.description_bytes``, and parsed description types
by exact bytes, per node registry, in ``description_type``.  These tests
count the work each one saves and check that a hit answers exactly what
recomputing would.
"""

from collections import Counter
from unittest import mock

import pytest

from repro.apps.tps import BrokerMesh, TpsPeer
from repro.apps.tps import broker as broker_module
from repro.apps.tps import mesh as mesh_module
from repro.apps.tps.topology import Topology
from repro.cts.builder import TypeBuilder
from repro.cts.registry import BoundedMemo, TypeRegistry
from repro.describe import xml_codec
from repro.describe.description import TypeDescription
from repro.describe.xml_codec import (
    XmlCodecError,
    description_bytes,
    description_type,
    serialize_description_bytes,
)
from repro.fixtures import (
    PERSON_JAVA_SOURCE,
    person_assembly_pair,
    person_csharp,
    person_java,
    person_vb,
)
from repro.langs import compiler, java
from repro.langs.cfamily import Parser
from repro.langs.vb import _VbParser
from repro.net.network import SimulatedNetwork


@pytest.fixture
def cold_memos():
    """Empty the two process-wide memos, so counts start from nothing."""
    compiler._PARSED.clear()
    xml_codec._RENDERED.clear()
    yield
    compiler._PARSED.clear()
    xml_codec._RENDERED.clear()


def _counting(counter, key, function):
    def wrapper(*args, **kwargs):
        counter[key] += 1
        return function(*args, **kwargs)
    return wrapper


_REAL_DESERIALIZE = xml_codec.deserialize_description
_REAL_DESCRIPTION_TYPE = xml_codec.description_type


class _ParseLedger:
    """Attributes description parses to the registry they were made for."""

    def __init__(self):
        self.parses = Counter()        # registry id -> parses
        self.received = {}             # registry id -> distinct bytes
        self._calls = 0

    def deserialize(self, data):
        self._calls += 1
        return _REAL_DESERIALIZE(data)

    def description_type(self, data, registry):
        before = self._calls
        try:
            return _REAL_DESCRIPTION_TYPE(data, registry)
        finally:
            self.parses[id(registry)] += self._calls - before
            self.received.setdefault(id(registry), set()).add(bytes(data))


def _two_shard_world():
    network = SimulatedNetwork()
    mesh = BrokerMesh(network, topology=Topology.sized(2))
    return network, mesh


class TestSubscribeCounts:
    def test_each_input_is_compiled_rendered_and_parsed_once(self, cold_memos):
        network, mesh = _two_shard_world()
        peer = TpsPeer("subscriber", network)
        ledger = _ParseLedger()
        counts = Counter()
        handlers = []
        with mock.patch.object(Parser, "parse_unit", _counting(
                counts, "parse_unit", Parser.parse_unit)), \
                mock.patch.object(_VbParser, "parse_unit", _counting(
                    counts, "parse_unit", _VbParser.parse_unit)), \
                mock.patch.object(xml_codec, "serialize_description_bytes",
                                  _counting(counts, "render",
                                            serialize_description_bytes)), \
                mock.patch.object(xml_codec, "deserialize_description",
                                  ledger.deserialize), \
                mock.patch.object(broker_module, "description_type",
                                  ledger.description_type), \
                mock.patch.object(mesh_module, "description_type",
                                  ledger.description_type):
            for index in range(12):
                shard = mesh.shard_ids[index % 2]
                compile_type = (person_java, person_vb)[index // 2 % 2]
                got = []
                handlers.append(got)
                peer.subscribe_remote(shard, compile_type(), got.append)

        assert counts["parse_unit"] == 2
        assert counts["render"] == 2
        for shard in mesh.shards:
            key = id(shard.runtime.registry)
            assert ledger.received[key]
            assert ledger.parses[key] == len(ledger.received[key])

        publisher = TpsPeer("publisher", network)
        publisher.host_assembly(person_assembly_pair()[0])
        home = mesh.shard_for("publisher")
        publisher.publish_async(
            home, publisher.new_instance("demo.a.Person", ["once"]))
        mesh.run_until_idle()
        # One delivery per shard reaches the peer, and each one runs the
        # handler of the first declared interest it conforms to, once:
        # the later subscriptions' freshly compiled types are other
        # interests, even where they repeat a type.
        assert [len(got) for got in handlers] == [2] + [0] * 11
        assert [view.getPersonName() for view in handlers[0]] == \
            ["once", "once"]
        mesh.close()


class TestExactness:
    def test_type_replaced_in_place_sends_its_own_description(self):
        """Same GUID, new structure: the render memo compares the wire
        form, so the second subscribe carries the new structure and the
        shard parses it as a type of its own."""
        network, mesh = _two_shard_world()
        peer = TpsPeer("subscriber", network)
        shard_id = mesh.shard_for(peer.peer_id)
        original = person_java()
        peer.subscribe_remote(shard_id, original, lambda view: None)
        replacement = (TypeBuilder("demo.b.Person").field("age", "int")
                       .build())
        replacement.guid = original.guid
        assert description_bytes(replacement) == serialize_description_bytes(
            TypeDescription.from_type_info(replacement))
        assert description_bytes(replacement) != description_bytes(original)
        peer.subscribe_remote(shard_id, replacement, lambda view: None)
        shard = mesh.shard(shard_id)
        first, second = shard.remote_subscriptions()
        assert [f.name for f in first.expected.fields] == \
            [f.name for f in original.fields]
        assert [f.name for f in second.expected.fields] == ["age"]
        mesh.close()

    def test_a_new_download_path_renders_afresh(self):
        info = person_csharp()
        before = description_bytes(info)
        info.download_path = "repo://elsewhere/2.0"
        after = description_bytes(info)
        assert after != before
        assert after == serialize_description_bytes(
            TypeDescription.from_type_info(info))

    def test_compiles_and_parses_hand_out_fresh_objects(self):
        first, second = person_java(), person_java()
        assert first is not second
        assert first.guid == second.guid
        assert first.fields[0] is not second.fields[0]
        tree_a, tree_b = java.parse(PERSON_JAVA_SOURCE), \
            java.parse(PERSON_JAVA_SOURCE)
        assert tree_a is not tree_b
        assert tree_a[0] is not tree_b[0]

    def test_a_repeated_interest_type_does_not_double_deliver(self):
        """fanout's shape: a peer's 4th subscription repeats its 1st
        one's type.  The peer's gates key on interest identity and the
        first declared interest an event conforms to takes it, so one
        event runs one handler once; were the 4th compile to return the
        1st one's object, both gates would take it."""
        network, mesh = _two_shard_world()
        peer = TpsPeer("subscriber", network)
        shard_id = mesh.shard_for(peer.peer_id)
        handlers = []
        for compile_type in (person_java, person_vb, person_csharp,
                             person_java):
            got = []
            handlers.append(got)
            peer.subscribe_remote(shard_id, compile_type(), got.append)
        publisher = TpsPeer("publisher", network)
        publisher.host_assembly(person_assembly_pair()[0])
        publisher.publish_async(mesh.shard_for("publisher"),
                                publisher.new_instance("demo.a.Person",
                                                       ["x"]))
        mesh.run_until_idle()
        assert [len(got) for got in handlers] == [1, 0, 0, 0]
        mesh.close()

    def test_malformed_description_raises_on_every_subscribe(self):
        network, mesh = _two_shard_world()
        shard = mesh.shards[0]
        payload = shard._wire_codec.serialize(
            {"description": b"<TypeDescription name="})
        for _ in range(2):
            with pytest.raises(XmlCodecError):
                shard._handle_subscribe(payload, "subscriber")
        assert len(shard.runtime.registry.described) == 0
        mesh.close()

    def test_memos_store_only_through_put(self, cold_memos):
        """With ``BoundedMemo.put`` doing nothing (how the type-epoch
        differential suite runs memo-free) every new memo stays empty
        and every answer is still right."""
        registry = TypeRegistry()
        with mock.patch.object(BoundedMemo, "put",
                               lambda self, key, value: None):
            info = person_vb()
            data = description_bytes(info)
            assert data == description_bytes(person_vb())
            parsed = description_type(data, registry)
            again = description_type(data, registry)
        assert parsed is not again
        assert parsed.guid == again.guid == info.guid
        assert len(compiler._PARSED) == 0
        assert len(xml_codec._RENDERED) == 0
        assert len(registry.described) == 0

    def test_parse_memo_moves_with_the_registry_epoch(self):
        registry = TypeRegistry()
        data = description_bytes(person_java())
        first = description_type(data, registry)
        assert description_type(data, registry) is first
        registry.bump()
        assert description_type(data, registry) is not first
