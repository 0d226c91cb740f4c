"""The benchmark's span tracer: self time, generators, sides, clean unwrap."""

import importlib.util
import os
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from perf_trace import Tracer  # noqa: E402


class FakeClocks:
    """Wall and CPU clocks the code under test advances explicitly."""

    def __init__(self):
        self.wall = 0
        self.cpu = 0

    def run(self, ns: int) -> None:
        """Busy work: both clocks move."""
        self.wall += ns
        self.cpu += ns

    def sleep(self, ns: int) -> None:
        """Waiting: only the wall clock moves."""
        self.wall += ns


def make_tracer(clocks, **kwargs):
    return Tracer(clock=lambda: clocks.wall, cpu_clock=lambda: clocks.cpu,
                  **kwargs)


def layered(clocks):
    class Layer:
        def outer(self):
            clocks.run(10)
            self.inner()
            clocks.run(3)
            self.inner()
            return "done"

        def inner(self):
            clocks.run(5)

        def items(self):
            for value in range(3):
                clocks.run(2)
                yield value

    return Layer


def test_self_time_is_duration_minus_children():
    clocks = FakeClocks()
    Layer = layered(clocks)
    tracer = make_tracer(clocks)
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    tracer.start()
    assert Layer().outer() == "done"
    clocks.run(7)  # traced but outside every span
    tracer.stop()
    outer = tracer.ops[("outer", "pub")]
    inner = tracer.ops[("inner", "pub")]
    assert (outer.calls, outer.total_ns, outer.self_ns) == (1, 23, 13)
    assert (inner.calls, inner.total_ns, inner.self_ns) == (2, 10, 10)
    assert tracer.wall_ns == 30
    assert tracer.residual_ns() == 7
    assert tracer.self_total_ns() + tracer.residual_ns() == tracer.wall_ns


def test_generators_are_timed_per_next():
    clocks = FakeClocks()
    Layer = layered(clocks)
    tracer = make_tracer(clocks)
    tracer.wrap_generator(Layer, "items", "items")
    tracer.start()
    seen = []
    for value in Layer().items():
        clocks.run(100)  # the consumer's work is not the generator's
        seen.append(value)
    tracer.stop()
    stats = tracer.ops[("items", "pub")]
    assert seen == [0, 1, 2]
    assert stats.calls == 4  # three items plus the exhausting next()
    assert stats.self_ns == 6
    assert tracer.residual_ns() == 300


def test_early_exit_closes_the_wrapped_generator():
    closed = []

    class Source:
        def items(self):
            try:
                yield 1
                yield 2
            finally:
                closed.append(True)

    tracer = Tracer()
    tracer.wrap_generator(Source, "items", "items")
    tracer.start()
    iterator = Source().items()
    assert next(iterator) == 1
    iterator.close()
    tracer.stop()
    assert closed == [True]
    tracer.unwrap_all()


def test_spans_take_the_side_of_the_enclosing_handler():
    clocks = FakeClocks()
    Layer = layered(clocks)

    class Node:
        def __init__(self, side):
            self.side = side

        def dispatch(self, layer):
            clocks.run(1)
            layer.inner()

    tracer = make_tracer(clocks, side_of=lambda node: node.side)
    tracer.wrap_handler(Node, "dispatch", lambda side: "handler." + side)
    tracer.wrap(Layer, "inner", "inner")
    tracer.wrap_context(Layer, "outer", "shard")
    tracer.start()
    Node("sub").dispatch(Layer())
    Node("shard").dispatch(Layer())
    Layer().inner()
    Layer().outer()
    tracer.stop()
    assert tracer.ops[("inner", "sub")].calls == 1
    assert tracer.ops[("inner", "shard")].calls == 1 + 2  # context: 2 calls
    assert tracer.ops[("inner", "pub")].calls == 1
    assert tracer.ops[("handler.sub", "sub")].self_ns == 1
    assert ("outer", "shard") not in tracer.ops  # contexts record no span
    assert tracer.ops[("handler.shard", "shard")].self_ns \
        + tracer.ops[("inner", "shard")].self_ns == 1 + 5 + 10


def test_cpu_spans_split_busy_time_from_waiting():
    clocks = FakeClocks()

    class Fabric:
        def poll(self, wait_ns, work_ns, nested=False):
            clocks.sleep(wait_ns)
            clocks.run(work_ns)
            if nested:
                self.poll(40, 2)

    tracer = make_tracer(clocks)
    tracer.wrap(Fabric, "poll", "poll", cpu=True)
    tracer.start()
    Fabric().poll(100, 20)
    poll = tracer.ops[("poll", "pub")]
    assert (poll.wait_ns, poll.busy_ns) == (100, 20)
    tracer.ops.clear()
    Fabric().poll(100, 20, nested=True)
    tracer.stop()
    poll = tracer.ops[("poll", "pub")]
    # Two spans: the nested one waited 40 and ran 2; the outer one's own
    # waiting excludes the 40 its child already counts.
    assert poll.calls == 2
    assert poll.wait_ns == 100 + 40
    assert poll.busy_ns == 20 + 2
    assert poll.self_ns == 162


def test_poll_waiting_excludes_time_its_handlers_lost():
    """A handler inside a poll that is descheduled (wall time passes
    without CPU time) does not turn into the poll's waiting."""
    clocks = FakeClocks()

    class Fabric:
        def poll(self):
            clocks.sleep(30)
            self.handle()
            clocks.run(5)

        def handle(self):
            clocks.run(10)
            clocks.sleep(50)  # the thread was not running

    tracer = make_tracer(clocks)
    tracer.wrap(Fabric, "poll", "poll", cpu=True)
    tracer.wrap(Fabric, "handle", "handle")
    tracer.start()
    Fabric().poll()
    tracer.stop()
    poll = tracer.ops[("poll", "pub")]
    assert (poll.self_ns, poll.wait_ns, poll.busy_ns) == (35, 30, 5)
    assert tracer.ops[("handle", "pub")].self_ns == 60


def test_disabled_tracer_records_nothing():
    clocks = FakeClocks()
    Layer = layered(clocks)
    tracer = make_tracer(clocks)
    tracer.wrap(Layer, "outer", "outer")
    assert Layer().outer() == "done"
    assert tracer.ops == {}


def test_unwrap_restores_every_attribute():
    class Base:
        def inherited(self):
            return "base"

    class Child(Base):
        def own(self):
            return "child"

    own = vars(Child)["own"]
    tracer = Tracer()
    tracer.wrap(Child, "own", "own")
    tracer.wrap(Child, "inherited", "inherited")
    assert vars(Child)["own"] is not own
    tracer.unwrap_all()
    assert vars(Child)["own"] is own
    assert "inherited" not in vars(Child)
    assert tracer._patches == []


def _load_run_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_wrappers_leave_the_program_as_they_found_it():
    """After a traced run every wrapped class attribute is the original
    object again, so a following untraced run executes unchanged code."""
    run = _load_run_module()
    tracer = Tracer()
    run.install_layer_wrappers(tracer)
    owners = {id(owner): owner for owner, _, _ in tracer._patches}
    assert len(tracer._patches) >= 20
    tracer.unwrap_all()
    tracer2 = Tracer()
    run.install_layer_wrappers(tracer2)
    for owner, attr, original in tracer2._patches:
        assert id(owner) in owners
        # The second install saw the originals, not first-install wrappers.
        assert not hasattr(original, "__wrapped__"), (owner, attr)
    tracer2.unwrap_all()
    from repro.net.peer import Peer
    from repro.serialization.envelope import EnvelopeCodec

    assert not hasattr(vars(Peer)["_dispatch"], "__wrapped__")
    assert not hasattr(vars(EnvelopeCodec)["parse"], "__wrapped__")


def test_catalog_matches_benchmark_json():
    import json

    run = _load_run_module()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == run.per_layer_catalog()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
