"""Deciding once per record and root type is invisible to handlers.

``DeliveryPipeline`` routes a multi-value record once per root type and
re-routes when a handler changes the routing index.  For generated
records (two root types, any order) and generated handler actions
(subscribe and unsubscribe, triggered by a given handler seeing a given
value), the pipeline's handler calls must equal a test-local reference
that routes every value on its own, lazily, exactly as a per-value
``RoutingIndex.route`` pass reads the index.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.tps import LocalBroker
from repro.apps.tps.pipeline import ValueBatch
from repro.langs.csharp import compile_source as compile_csharp
from repro.runtime.loader import Runtime
from repro.serialization.envelope import EnvelopeCodec

QUOTE_SOURCE = """
class Quote {
    private string text;
    public Quote(string t) { this.text = t; }
    public string GetText() { return this.text; }
}
"""

SOURCED_QUOTE_SOURCE = """
class Quote {
    private string text;
    public Quote(string t) { this.text = t; }
    public string GetText() { return this.text; }
    public string GetSource() { return this.text; }
}
"""


def _quote(source, namespace):
    return compile_csharp(source, namespace=namespace,
                          assembly_name=namespace)[0]


FEED = {"plain": _quote(QUOTE_SOURCE, "feed.plain"),
        "sourced": _quote(SOURCED_QUOTE_SOURCE, "feed.sourced")}
#: Expected types: ``any`` takes both feed types, ``sourced`` one.
WANT = {"any": _quote(QUOTE_SOURCE, "want.any"),
        "sourced": _quote(SOURCED_QUOTE_SOURCE, "want.sourced")}
TAGS = ["h%d" % index for index in range(5)]


class World:
    """One broker, its subscriptions by tag and the handler-call log;
    a handler call ``(tag, text)`` runs the actions keyed on it."""

    def __init__(self, initial, actions):
        runtime = Runtime()
        for info in FEED.values():
            runtime.load_type(info)
        self.runtime = runtime
        self.broker = LocalBroker(runtime=runtime)
        self.actions = actions
        self.subs = {}
        self.calls = []
        for tag, want in initial:
            self.subscribe(tag, want)

    def subscribe(self, tag, want):
        if tag not in self.subs:
            self.subs[tag] = self.broker.subscribe(WANT[want],
                                                   self.handler(tag))

    def handler(self, tag):
        def handle(view):
            text = view.GetText()
            self.calls.append((tag, text))
            for op, target, want in self.actions.get((tag, text), ()):
                if op == "subscribe":
                    self.subscribe(target, want)
                elif target in self.subs:
                    self.broker.unsubscribe(self.subs.pop(target))
        return handle

    def values(self, record):
        return [self.runtime.new_instance("feed.%s.Quote" % kind,
                                          ["v%d" % index])
                for index, kind in enumerate(record)]


def reference_fan_out(world, record):
    """Every value routed on its own: one lazy route pass per value."""
    index = world.broker.index
    for value in world.values(record):
        for entry, subscriptions in index.route(value.type_info):
            view = entry.view(value, index.checker)
            for subscription in subscriptions:
                subscription.handler(view)


records = st.lists(st.sampled_from(sorted(FEED)), min_size=1, max_size=8)
initial_subs = st.lists(st.tuples(st.sampled_from(TAGS),
                                  st.sampled_from(sorted(WANT))),
                        max_size=5)
action = st.tuples(st.sampled_from(["subscribe", "unsubscribe"]),
                   st.sampled_from(TAGS), st.sampled_from(sorted(WANT)))
action_tables = st.dictionaries(
    st.tuples(st.sampled_from(TAGS), st.sampled_from(
        ["v%d" % index for index in range(8)])),
    st.lists(action, min_size=1, max_size=2), max_size=6)


@settings(max_examples=300, deadline=None)
@given(record=records, initial=initial_subs, actions=action_tables,
       shape=st.sampled_from(["frame", "values"]))
# While one value fans out, a handler empties a group the value has not
# reached and another handler subscribes that expected type again: the
# value's own pass reads the emptied group, so the new subscription does
# not get that value.
@example(record=["plain", "sourced", "sourced"],
         initial=[("h2", "any"), ("h0", "sourced"), ("h1", "any")],
         actions={("h2", "v2"): [("unsubscribe", "h0", "any")],
                  ("h1", "v2"): [("subscribe", "h0", "sourced")]},
         shape="frame")
def test_record_fan_out_matches_per_value_routing(record, initial, actions,
                                                  shape):
    reference = World(initial, actions)
    reference_fan_out(reference, record)
    world = World(initial, actions)
    values = world.values(record)
    if shape == "frame":
        deliveries = world.broker.publish_frame(
            EnvelopeCodec(world.runtime).encode_batch(values))
    else:
        deliveries = world.broker.pipeline.process(
            ValueBatch(values), origin=None).deliveries
    assert world.calls == reference.calls
    assert deliveries == len(reference.calls) == world.broker.delivered
    assert sorted(world.subs) == sorted(reference.subs)
