"""Type-derived memos are invisible: a differential check against a
memo-free run.

Admission verdicts, runtime plans, binary type plans, header type
resolutions, routing verdicts and the checker's pair cache are each a
:class:`~repro.cts.registry.BoundedMemo` living for one type epoch of
its node's registry.  For every generated op sequence on a 2-shard mesh
-- publishes of one value, a same-type batch or a mixed record;
subscribes and unsubscribes, also from inside a handler part-way
through a record; interest declarations; loading, replacing (same name
and GUID, new structure) or shadowing a type on a subscriber or a
shard; retuning a checker's options (which clears its cache); shard-local
handlers; publishes from inside a handler -- the run as built must make
the same handler calls, fill the same inboxes and count the same
``objects_*`` transport stats, ``Subscription.delivered`` and
``events_routed`` as the same sequence run with ``BoundedMemo.put``
doing nothing, so that no memo ever holds an entry.
"""

import os
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.tps import BrokerMesh, TpsPeer
from repro.apps.tps.topology import Topology
from repro.core.context import ConformanceOptions
from repro.cts.assembly import Assembly
from repro.cts.registry import BoundedMemo
from repro.cts.types import TypeInfo
from repro.fixtures import (
    account_csharp,
    person_assembly_pair,
    person_csharp,
    person_java,
    person_vb,
)
from repro.langs.csharp import compile_source
from repro.net.network import SimulatedNetwork

#: Interest types: three Person dialects and the Account no Person
#: conforms to.
_TYPES = (person_java, person_vb, person_csharp, account_csharp)

#: Nodes an op can target: the two subscribers, then the two shards.
_SUBSCRIBERS = ("sub-a", "sub-b")

_OTHER_STRUCTURE = """
class Person {
    private int age;
    public Person(int a) { this.age = a; }
    public int GetAge() { return this.age; }
}
"""


def _other_person() -> TypeInfo:
    """A ``demo.a.Person`` of another structure, so another GUID."""
    return compile_source(_OTHER_STRUCTURE, namespace="demo.a",
                          assembly_name="person-a")[0]


def _replacement() -> TypeInfo:
    """The published ``demo.a.Person``'s name and GUID on another
    structure: what a type replaced in place looks like."""
    info = _other_person()
    info.guid = person_csharp().guid
    return info


def _unrelated() -> TypeInfo:
    return compile_source("class Unrelated { private int x; }",
                          namespace="demo.x", assembly_name="x")[0]


def _shadow(runtime):
    """Another version of a held ``demo.a.Person``, by GUID only (with
    no such name held, it would bind the name instead)."""
    if runtime.registry.contains_name("demo.a.Person"):
        runtime.load_type(_other_person(), shadow=True)


#: ``load`` variants: what each registers, and how.
_LOADS = {
    "account": lambda runtime: runtime.load_type(account_csharp()),
    "unrelated": lambda runtime: runtime.load_type(_unrelated()),
    "replace": lambda runtime: runtime.load_type(_replacement(), replace=True),
    "restore": lambda runtime: runtime.load_type(person_csharp(), replace=True),
    "shadow": _shadow,
}

#: What a handler does on its first call, part-way through a record.
_ACTIONS = (None, "subscribe", "unsubscribe", "declare", "load", "publish")

type_index = st.integers(0, len(_TYPES) - 1)
side = st.integers(0, 1)
action = st.sampled_from(_ACTIONS)
ops = st.one_of(
    st.tuples(st.just("publish"),
              st.sampled_from(("person", "account", "batch", "mixed"))),
    st.tuples(st.just("subscribe"), side, type_index, action),
    st.tuples(st.just("unsubscribe"), side, st.integers(0, 7)),
    st.tuples(st.just("declare"), side, type_index),
    # A shard-local durable subscription with an in-process handler.
    st.tuples(st.just("local"), side, type_index, action),
    # Node 0-1: a subscriber, 2-3: a shard.
    st.tuples(st.just("load"), st.integers(0, 3), st.sampled_from(sorted(_LOADS))),
    st.tuples(st.just("retune"), st.integers(0, 3)),
)


class _World:
    """One mesh, one publisher, two subscribers, and what they saw."""

    def __init__(self, root):
        self.network = SimulatedNetwork()
        self.mesh = BrokerMesh(self.network,
                               topology=Topology.sized(2, "epoch"),
                               log_root=os.path.join(root, "logs"))
        self.publisher = TpsPeer("pub", self.network)
        self.publisher.host_assembly(person_assembly_pair()[0])
        self.publisher.host_assembly(Assembly("bank", [account_csharp()]))
        self.subscribers = [TpsPeer(name, self.network)
                            for name in _SUBSCRIBERS]
        self.live = [[] for _ in _SUBSCRIBERS]  # subscription ids per side
        self.calls = []
        self.step = 0
        self.serial = 0
        self.exact_names = set()  # nodes retuned to exact names

    def close(self):
        self.mesh.close()

    # -- the ops ---------------------------------------------------------

    def run(self, sequence):
        for self.step, op in enumerate(sequence):
            getattr(self, "_" + op[0])(*op[1:])
            self.mesh.run_until_idle()

    def _publish(self, shape, inline=False):
        make = {
            "person": lambda: self.publisher.new_instance(
                "demo.a.Person", ["p%d" % self.step]),
            "account": lambda: self.publisher.new_instance(
                "demo.bank.Account", ["a%d" % self.step, self.step]),
        }
        home = self.mesh.shard_for(self.publisher.peer_id)
        if shape in make:
            value = make[shape]()
            if inline:  # re-enters the shard from inside a handler
                self.publisher.publish(home, value)
            else:
                self.publisher.publish_async(home, value)
            return
        kinds = (("person", "person") if shape == "batch"
                 else ("person", "account", "person", "person"))
        self.publisher.publish_durable(home, [make[kind]() for kind in kinds])

    def _subscribe(self, index, type_index, action=None):
        peer = self.subscribers[index]
        label = "s%d.%d" % (self.step, self.serial)
        self.serial += 1
        self.live[index].append(peer.subscribe_remote(
            self.mesh.shard_for(peer.peer_id), _TYPES[type_index](),
            self._handler(label, action, index, peer.runtime)))

    def _unsubscribe(self, index, position):
        peer, live = self.subscribers[index], self.live[index]
        if live:
            peer.unsubscribe_remote(self.mesh.shard_for(peer.peer_id),
                                    live.pop(position % len(live)))

    def _declare(self, index, type_index):
        self.subscribers[index].declare_interest(_TYPES[type_index]())

    def _local(self, index, type_index, action=None):
        shard = self.mesh.shards[index]
        label = "l%d.%d" % (self.step, self.serial)
        self.serial += 1
        shard.subscribe_durable(
            _TYPES[type_index](),
            self._handler(label, action, index, shard.runtime),
            cursor=label)

    def _load(self, node, what):
        _LOADS[what](self._node(node).runtime)

    def _retune(self, node):
        """Toggle the node's options between the pragmatic token-subset
        name match every node starts with (under which ``getPersonName``
        answers ``GetName``) and exact names, then clear the cache."""
        self.exact_names ^= {node}
        checker = self._node(node).checker
        checker.options = (ConformanceOptions() if node in self.exact_names
                           else ConformanceOptions.pragmatic())
        checker.clear_cache()

    def _node(self, node):
        if node < len(_SUBSCRIBERS):
            return self.subscribers[node]
        return self.mesh.shards[node - len(_SUBSCRIBERS)]

    def _handler(self, label, action, index, runtime):
        """Records each call; the first one also runs ``action``, with
        the rest of its record still to be delivered.  Subscribes,
        unsubscribes and declarations act for subscriber ``index`` (for a
        shard-local handler, the subscriber of the shard's index); loads
        go to ``runtime``, the handler's own node."""
        pending = [action] if action is not None else []

        def handler(view):
            self.calls.append((label, view._repro_type().full_name,
                               self.step))
            if not pending:
                return
            what = pending.pop()
            if what == "subscribe":
                self._subscribe(index, 0)
            elif what == "unsubscribe":
                self._unsubscribe(index, 0)
            elif what == "declare":
                self._declare(index, 3)
            elif what == "load":
                runtime.load_type(account_csharp())
                runtime.load_type(_unrelated())
            elif what == "publish":
                self._publish("account", inline=True)
        return handler

    # -- what was observed -------------------------------------------------

    def observed(self):
        inboxes = []
        for peer in self.subscribers:
            stats = peer.transport_stats.as_dict()
            inboxes.append((
                [(received.type_name, received.accepted,
                  None if received.interest is None else
                  next(at for at, interest in enumerate(peer.interests)
                       if interest is received.interest))
                 for received in peer.inbox],
                {name: count for name, count in stats.items()
                 if name.startswith("objects_")}))
        delivered = [(shard.peer_id, subscription.subscription_id,
                      subscription.delivered)
                     for shard in self.mesh.shards
                     for subscription in shard.index.subscriptions()]
        return self.calls, inboxes, delivered, self.mesh.events_routed()


def _observe(sequence, memo_free):
    with tempfile.TemporaryDirectory() as root:
        world = _World(root)
        try:
            if memo_free:
                with mock.patch.object(BoundedMemo, "put",
                                       lambda self, key, value: None):
                    world.run(sequence)
            else:
                world.run(sequence)
            return world.observed()
        finally:
            world.close()


def assert_memos_invisible(sequence):
    assert _observe(sequence, memo_free=False) == \
        _observe(sequence, memo_free=True)


@settings(max_examples=300, deadline=None)
@given(st.lists(ops, min_size=1, max_size=10))
# A shard-local handler registers types part-way through a value that
# the shard still has to deliver to later groups.
@example([("local", 0, 0, "load"), ("local", 0, 1, None),
          ("subscribe", 0, 1, None), ("subscribe", 1, 0, None),
          ("publish", "mixed"), ("publish", "person")])
# A shard-local handler publishes an Account (the shard fetches its code)
# from inside a handler, part-way through a mixed record.
@example([("local", 1, 0, "publish"), ("local", 0, 1, "publish"),
          ("subscribe", 0, 0, None), ("publish", "mixed"),
          ("publish", "mixed")])
# An Account the subscriber rejected is admitted once it declares the
# type it already holds.
@example([("subscribe", 0, 0, None), ("publish", "mixed"),
          ("declare", 0, 3), ("publish", "mixed")])
# The published type replaced in place, same GUID, on a warm subscriber
# and on a warm shard.
@example([("subscribe", 0, 1, None), ("publish", "person"),
          ("load", 0, "replace"), ("publish", "batch"),
          ("load", 0, "restore"), ("publish", "person")])
@example([("subscribe", 1, 2, None), ("publish", "person"),
          ("load", 2, "replace"), ("load", 3, "replace"),
          ("publish", "mixed")])
# A retuned checker decides the next value afresh.
@example([("subscribe", 0, 0, None), ("publish", "person"),
          ("retune", 0), ("publish", "person"), ("retune", 2),
          ("retune", 3), ("publish", "batch")])
def test_memos_are_invisible(sequence):
    assert_memos_invisible(sequence)
