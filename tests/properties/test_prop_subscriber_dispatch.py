"""Subscriber dispatch is invisible: closure-semantics equivalence.

A subscriber peer dispatches each accepted object with one lookup in a
table keyed by the identity of the interest it was accepted as, admits
through a per-provider-type verdict memo, and builds instances from
per-type runtime plans.  Those are optimisations, not behaviour changes.
For every generated sequence of plain subscribes, durable subscribes and
reconnects under one ``(broker, cursor)``, unsubscribes, bare interest
declarations (also from inside a handler) and receipts of conforming and
non-conforming objects (single, batched, in a mixed batch of several
same-type runs, direct or through the broker), the peer must make the
same handler calls, in the same order, and count the same
``TransportStats`` as a test-local reference peer that keeps the
closure semantics and admits a frame value by value:

- one callback per subscription, run for every received object, firing
  when the object's accepted interest *is* one of its gate's interests;
- admission re-checks conformance against every declared interest for
  every object, first conforming interest wins;
- a reconnect under the same key drops the earlier callback and extends
  the new one's gate with the earlier gate;
- an unsubscribe drops that subscription's callback (the interest stays
  declared);
- a frame's values are admitted one by one, each with its own verdict
  and its own ``LazyBatch.value``, so an interest declared part-way
  through a same-type run (by a handler, or by a receive callback on a
  rejected value) decides the run's later values.

Two targeted tests pin what invalidates the memos.
"""

import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.tps import TpsBroker, TpsPeer
from repro.apps.tps.broker import KIND_TPS_UNSUBSCRIBE
from repro.core.rules import ConformanceChecker
from repro.cts.assembly import Assembly
from repro.cts.builder import TypeBuilder
from repro.describe.description import TypeDescription
from repro.describe.xml_codec import serialize_description_bytes
from repro.fixtures import (
    account_csharp,
    person_assembly_pair,
    person_csharp,
    person_java,
    person_vb,
)
from repro.net.network import SimulatedNetwork
from repro.runtime.loader import Runtime
from repro.serialization.binary import BinarySerializer
from repro.transport import protocol

#: Interest types a subscriber may declare: three Person dialects the
#: published ``demo.a.Person`` conforms to (one is its own type), and
#: the ``demo.bank.Account`` it does not.
_TYPES = (person_java, person_vb, person_csharp, account_csharp)

#: Events a sender can produce: a conforming Person, a non-conforming
#: (unless an Account interest is declared) Account.
_EVENTS = ("person", "account")


class _ReferencePeer(TpsPeer):
    """A subscriber with the closure semantics the dispatch table
    replaced: every callback runs for every object, admission is not
    memoized, and a frame is admitted value by value rather than one
    same-type run at a time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.callbacks = []    # [(key, deliver)] in install order
        self.reconnects = {}   # replace_key -> (key, deliver, gate)

    def _subscribe_at(self, broker_id, kind, expected, handler, extra=None,
                      replace_key=None):
        self.declare_interest(expected)
        request = {"description": serialize_description_bytes(
            TypeDescription.from_type_info(expected))}
        request.update(extra or {})
        response = self.request(broker_id, kind,
                                self._wire_codec.serialize(request))
        subscription_id = self._wire_codec.deserialize(response)["id"]
        key = (broker_id, subscription_id)
        gate = [expected]
        if replace_key is not None:
            old = self.reconnects.get(replace_key)
            if old is not None:
                old_key, old_deliver, old_gate = old
                self.callbacks = [entry for entry in self.callbacks
                                  if entry[1] is not old_deliver]
                gate.extend(old_gate)

        def deliver(received):
            if received.accepted and any(received.interest is candidate
                                         for candidate in gate):
                handler(received.view)

        if replace_key is not None:
            self.reconnects[replace_key] = (key, deliver, gate)
        self.callbacks.append((key, deliver))
        return subscription_id

    def unsubscribe_remote(self, broker_id, subscription_id):
        self.request(broker_id, KIND_TPS_UNSUBSCRIBE,
                     self._wire_codec.serialize({"id": subscription_id}))
        self.callbacks = [entry for entry in self.callbacks
                          if entry[0] != (broker_id, subscription_id)]

    def _admit_batch(self, envelope, src, batch):
        """A received frame, its code loaded, admitted value by value:
        each value gets its own verdict and its own ``LazyBatch.value``.
        A direct send (``batch`` is ``None``) takes the production path,
        whose verdicts come from the unmemoized :meth:`_verdict` below."""
        if batch is None:
            super()._admit_batch(envelope, src, batch)
            return
        stats = self.transport_stats
        for index in range(len(batch)):
            stats.objects_received += 1
            provider_info = batch.root_type(index)
            name = provider_info.full_name
            verdict = (self._verdict(src, provider_info) if self.interests
                       else (None, None))
            if verdict is None:
                stats.objects_rejected += 1
                received = protocol.ReceivedObject(src, name, None, None,
                                                   None, None)
            else:
                interest, result = verdict
                value = batch.value(index)
                view = value if interest is None else \
                    protocol.wrap_with_result(value, interest, result,
                                              self.checker)
                received = protocol.ReceivedObject(src, name, value, view,
                                                   interest, result)
            self._deliver(received)

    def _verdict(self, src, provider_info):
        with self._fetching_from(src):
            for candidate in self.interests:
                result = self.checker.conforms(provider_info, candidate)
                if result.ok:
                    return candidate, result
        return None

    def _deliver(self, received):
        self.inbox.append(received)
        for callback in self._receive_callbacks:
            callback(received)
        for _, deliver in list(self.callbacks):
            deliver(received)


# -- operations -------------------------------------------------------------

type_index = st.integers(0, len(_TYPES) - 1)
ops = st.one_of(
    st.tuples(st.just("subscribe"), type_index, st.booleans()),
    st.tuples(st.just("durable"), type_index, st.booleans(),
              st.integers(0, 1)),
    st.tuples(st.just("unsubscribe"), st.integers(0, 7)),
    st.tuples(st.just("declare"), type_index),
    # A subscription whose handler declares an interest on its first call.
    st.tuples(st.just("declaring"), type_index, type_index),
    # A receive callback that declares an interest on the first object it
    # sees, accepted or rejected.
    st.tuples(st.just("watching"), type_index),
    st.tuples(st.just("send"), st.sampled_from(_EVENTS),
              st.sampled_from(("direct", "batch", "mixed", "publish"))),
)


class _Subscriber:
    """One side of the comparison: a peer, its calls and live ids."""

    def __init__(self, peer):
        self.peer = peer
        self.calls = []
        self.live = []        # subscription ids, in subscribe order
        self.declared = []    # interest objects this side created

    def handler(self, label, clock):
        def record(view):
            self.calls.append((label, view._repro_type().full_name, clock[0]))
        return record

    def declaring_handler(self, label, clock, declare):
        """Records like :meth:`handler`; its first call also declares an
        interest of type index ``declare``, part-way through a frame."""
        record = self.handler(label, clock)
        pending = [declare]

        def declaring(view):
            record(view)
            if pending:
                self.peer.declare_interest(
                    _interest(self, pending.pop(), reuse=False))
        return declaring

    def declaring_callback(self, declare):
        """A receive callback declaring an interest of type index
        ``declare`` on its first call: part-way through a frame, and
        also on a rejected value, where no handler runs."""
        pending = [declare]

        def declaring(received):
            if pending:
                self.peer.declare_interest(
                    _interest(self, pending.pop(), reuse=False))
        return declaring

    def summary(self):
        peer = self.peer
        inbox = [(r.type_name, r.accepted,
                  None if r.interest is None else
                  next(i for i, seen in enumerate(peer.interests)
                       if seen is r.interest))
                 for r in peer.inbox]
        return self.calls, peer.transport_stats.as_dict(), inbox


def _run(sequence, log_dir):
    network = SimulatedNetwork()
    broker = TpsBroker("broker", network, log_dir=log_dir)
    sender = TpsPeer("sender", network)
    sender.host_assembly(person_assembly_pair()[0])
    sender.host_assembly(Assembly("bank", [account_csharp()]))
    sides = [_Subscriber(TpsPeer("table", network)),
             _Subscriber(_ReferencePeer("closures", network))]
    clock = [0]
    try:
        for step, op in enumerate(sequence):
            clock[0] = step
            kind = op[0]
            if kind == "send":
                _send(network, sender, sides, op[1], op[2], step)
                continue
            # Each side declares its own interest objects; a reused one
            # is that side's earlier object of the same type (a second
            # subscription on one interest), else a fresh copy.
            for side in sides:
                peer = side.peer
                if kind == "subscribe":
                    expected = _interest(side, op[1], reuse=op[2])
                    side.live.append(peer.subscribe_remote(
                        "broker", expected,
                        side.handler("s%d" % step, clock)))
                elif kind == "durable":
                    expected = _interest(side, op[1], reuse=op[2])
                    side.live.append(peer.subscribe_durable_remote(
                        "broker", expected, side.handler("d%d" % step, clock),
                        cursor="%s-c%d" % (peer.peer_id, op[3])))
                elif kind == "unsubscribe" and side.live:
                    sid = side.live.pop(op[1] % len(side.live))
                    peer.unsubscribe_remote("broker", sid)
                elif kind == "declare":
                    peer.declare_interest(_interest(side, op[1], reuse=False))
                elif kind == "declaring":
                    expected = _interest(side, op[1], reuse=False)
                    side.live.append(peer.subscribe_remote(
                        "broker", expected,
                        side.declaring_handler("h%d" % step, clock, op[2])))
                elif kind == "watching":
                    peer.on_receive(side.declaring_callback(op[1]))
            network.run_until_idle()
        return [side.summary() for side in sides]
    finally:
        broker.close()


def _interest(side, index, reuse):
    for info in side.declared if reuse else ():
        if info.full_name == _TYPES[index]().full_name:
            return info
    info = _TYPES[index]()
    side.declared.append(info)
    return info


def _send(network, sender, sides, event, route, step):
    def make_event(kind):
        if kind == "person":
            return sender.new_instance("demo.a.Person", ["p%d" % step])
        return sender.new_instance("demo.bank.Account", ["a%d" % step, step])

    def make():
        return make_event(event)

    if route == "publish":
        sender.publish_async("broker", make())
    for side in sides:
        if route == "direct":
            sender.send(side.peer.peer_id, make())
        elif route == "batch":
            sender.send_batch(side.peer.peer_id, [make(), make()])
        elif route == "mixed":
            sender.send_batch(side.peer.peer_id,
                              [make_event("person"), make_event("account"),
                               make_event("person"), make_event("person")])
    network.run_until_idle()


@settings(max_examples=150, deadline=None)
@given(st.lists(ops, min_size=1, max_size=12))
# An object admitted before any interest loads its type; a declaration of
# that already-registered type must still reopen a memoized rejection.
@example([("send", "account", "direct"), ("subscribe", 0, False),
          ("send", "account", "direct"), ("declare", 3),
          ("send", "account", "batch")])
# A reconnect on the very interest object it had: one handler call.
@example([("durable", 1, False, 0), ("durable", 1, True, 0),
          ("send", "person", "direct")])
# Unsubscribing one of two subscriptions on one interest object.
@example([("subscribe", 0, False), ("subscribe", 0, True),
          ("unsubscribe", 0), ("send", "person", "direct")])
# A handler declares the Account interest on the first Person of a mixed
# batch: the batch's Account and later Persons are admitted afresh.
@example([("declaring", 0, 3), ("send", "account", "direct"),
          ("send", "person", "mixed"), ("send", "person", "mixed")])
# A rejected Account declares the Account interest: the batch's second
# Account, same run, is admitted afresh.
@example([("subscribe", 0, False), ("watching", 3),
          ("send", "account", "batch")])
def test_dispatch_table_matches_closure_semantics(sequence):
    with tempfile.TemporaryDirectory() as log_dir:
        table, closures = _run(sequence, log_dir)
    assert table == closures


def test_reconnect_keeps_the_earlier_gate_and_runs_once():
    """The durable reconnect case spelled out: the first incarnation's
    interest is declared first, so it keeps winning admission; the new
    handler must still fire (gate extension), once, and the old one not."""
    with tempfile.TemporaryDirectory() as log_dir:
        table, closures = _run(
            [("durable", 0, False, 0), ("durable", 0, False, 0),
             ("send", "person", "direct"), ("send", "person", "publish")],
            log_dir)
    assert table == closures
    calls = table[0]
    assert [label for label, _, _ in calls] == ["d1", "d1"]


# -- targeted: what invalidates the memos ------------------------------------

def test_superclass_registered_after_first_decode_is_seen():
    """Runtime plans are dropped when the registry changes: a parent type
    registered after a child was first decoded (and its methods looked
    up) contributes its fields and methods from then on."""
    runtime = Runtime()
    child = (TypeBuilder("x.Child").extends("x.Base")
             .field("own", "int").build())
    base = (TypeBuilder("x.Base").field("inherited", "int")
            .method("Seven", [], "int", body=lambda self: 7).build())
    runtime.load_type(child)
    codec = BinarySerializer(runtime)
    wire = codec.serialize(runtime.raw_instance(child, {"own": 1}))
    first = codec.deserialize(wire)
    assert first.fields == {"own": 1}
    assert runtime.find_method(child, "Seven") is None

    runtime.load_type(base)
    again = codec.deserialize(wire)
    assert again.fields == {"own": 1, "inherited": 0}
    assert runtime.raw_instance(child, {}).fields == {"own": 0, "inherited": 0}
    assert runtime.find_method(child, "Seven") is base.methods[0]
    assert again.Seven() == 7


def test_repeat_type_skips_conformance_but_still_wraps(monkeypatch):
    """After the first object of a type, admission makes zero conformance
    calls and exactly one ``wrap_with_result`` call per object; declaring
    an interest, a registry change and clearing the checker's cache each
    force one fresh check."""
    network = SimulatedNetwork()
    sender = TpsPeer("sender", network)
    sender.host_assembly(person_assembly_pair()[0])
    receiver = TpsPeer("receiver", network)
    receiver.declare_interest(person_java())

    counts = {"conforms": 0, "wrap": 0}
    conforms = ConformanceChecker.conforms
    wrap = protocol.wrap_with_result

    def counting_conforms(self, provider, expected):
        counts["conforms"] += 1
        return conforms(self, provider, expected)

    def counting_wrap(*args):
        counts["wrap"] += 1
        return wrap(*args)

    monkeypatch.setattr(ConformanceChecker, "conforms", counting_conforms)
    monkeypatch.setattr(protocol, "wrap_with_result", counting_wrap)

    def send_one():
        counts.update(conforms=0, wrap=0)
        sender.send("receiver", sender.new_instance("demo.a.Person", ["x"]))
        assert receiver.inbox[-1].accepted
        return counts["conforms"], counts["wrap"]

    send_one()  # first sight: description, check, code (a registry change)
    send_one()  # first sight of the now-registered type
    assert send_one() == (0, 1)
    assert send_one() == (0, 1)

    receiver.declare_interest(person_vb())
    assert send_one() == (1, 1)  # the first interest still wins
    assert send_one() == (0, 1)

    receiver.checker.clear_cache()
    assert send_one() == (1, 1)

    receiver.runtime.load_type(TypeBuilder("x.Unrelated").build())
    assert send_one() == (1, 1)
    assert send_one() == (0, 1)
    assert receiver.transport_stats.objects_received == 9
    assert receiver.transport_stats.objects_rejected == 0
