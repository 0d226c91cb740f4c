"""Every type-derived memo is a bounded memo living for one type epoch.

For each memo: it never holds more than its cap, a bump of its own
node's registry drops it, and a bump of another node's registry leaves
it alone.  Each memo is filled through the code path that fills it in
production.
"""

import pytest

from repro.apps.tps.routing import RoutingIndex
from repro.core.rules import ConformanceChecker
from repro.cts.builder import TypeBuilder
from repro.cts.registry import BoundedMemo, TypeRegistry
from repro.describe.resolver import DescriptionResolver
from repro.net.network import SimulatedNetwork
from repro.runtime.loader import Runtime
from repro.serialization import binary, envelope
from repro.serialization.binary import BinarySerializer
from repro.serialization.envelope import EnvelopeCodec
from repro.transport.protocol import InteropPeer


def _type(index):
    return (TypeBuilder("memo.T%d" % index).field("f", "int")
            .method("Get", [], "int", body=lambda self: 1).build())


class _Runtime:
    """The runtime's plan memos: filled by invoking, instantiating and
    reading field defaults of unregistered types."""

    def __init__(self, memo):
        self.runtime = Runtime()
        self.registry = self.runtime.registry
        self.memo = getattr(self.runtime, memo)
        self.kind = memo

    def fill(self, index):
        info, runtime = _type(index), self.runtime
        if self.kind == "_calls":
            runtime.invoke(runtime.raw_instance(info, {}), "Get")
        elif self.kind == "_ctors":
            runtime.instantiate(info)
        else:
            runtime.field_defaults(info)


class _Decoding:
    """The binary type-plan memo and the envelope's header resolution
    memo: filled by decoding values of types registered up front."""

    def __init__(self, memo):
        runtime = Runtime()
        self.registry = runtime.registry
        cap = (binary._MAX_TYPE_PLANS if memo == "type plans"
               else envelope._MEMO_CAP)
        types = [_type(index) for index in range(cap + 5)]
        for info in types:
            runtime.load_type(info)
        if memo == "type plans":
            self.serializer = BinarySerializer(runtime)
            self.memo = self.serializer._type_plans
            self.frames = [self.serializer.serialize(runtime.raw_instance(info, {}))
                           for info in types]
        else:
            self.codec = EnvelopeCodec(runtime)
            self.memo = self.codec._resolve_memo
            self.frames = [self.codec.encode(runtime.raw_instance(info, {}))
                           for info in types]

    def fill(self, index):
        if hasattr(self, "serializer"):
            self.serializer.deserialize(self.frames[index])
        else:
            self.codec.lazy_batch(self.codec.parse(self.frames[index])).root_type(0)


class _Verdicts:
    """The peer's admission verdicts, the routing index's verdicts and
    the checker's pair cache: filled by checking new provider types."""

    expected = TypeBuilder("memo.Expected").field("f", "int").build()

    def __init__(self, memo):
        if memo == "admission":
            self.peer = InteropPeer("peer", SimulatedNetwork())
            self.peer.declare_interest(self.expected)
            self.registry = self.peer.runtime.registry
            self.memo = self.peer._verdicts
            self.fill = lambda index: self.peer._verdict("src", _type(index))
            return
        self.registry = TypeRegistry()
        checker = ConformanceChecker(DescriptionResolver(self.registry))
        if memo == "routing":
            index = RoutingIndex(checker, self.registry)
            self.memo = index._verdicts
            self.fill = lambda at: index.lookup(_type(at), self.expected)
        else:
            self.memo = checker._cache
            self.fill = lambda at: checker.conforms(_type(at), self.expected)


#: memo -> a factory of one node holding it.
MEMOS = {
    "Runtime._calls": lambda: _Runtime("_calls"),
    "Runtime._ctors": lambda: _Runtime("_ctors"),
    "Runtime._defaults": lambda: _Runtime("_defaults"),
    "BinarySerializer._type_plans": lambda: _Decoding("type plans"),
    "EnvelopeCodec._resolve_memo": lambda: _Decoding("resolve"),
    "InteropPeer._verdicts": lambda: _Verdicts("admission"),
    "RoutingIndex._verdicts": lambda: _Verdicts("routing"),
    "ConformanceChecker._cache": lambda: _Verdicts("checker"),
}


@pytest.mark.parametrize("name", sorted(MEMOS))
def test_memo_is_bounded_and_lives_for_one_epoch(name):
    node, other = MEMOS[name](), MEMOS[name]()
    memo = node.memo
    assert isinstance(memo, BoundedMemo)
    assert memo.owner is node.registry
    cap = memo.cap
    for index in range(cap + 3):
        node.fill(index)
        assert 0 < len(memo) <= cap
    held = len(memo)

    other.registry.bump()
    node.fill(cap + 3)
    assert len(memo) == held + 1  # another node's epoch is not ours

    node.registry.bump()
    node.fill(cap + 4)
    assert len(memo) == 1  # everything filled before the bump is gone
