"""Trace-propagation property: one id per record journey, zero decodes.

A hypothesis-generated publish script runs on a replicated
:class:`BrokerMesh`.  The properties:

- every publish mints exactly ONE trace id, and every span that id
  produces — across the home shard, forward hops and replica followers —
  carries that same id (the id travels inside the frame bytes, so a
  second mint anywhere would prove a header re-encode);
- each journey's home shard records the full ``admit -> append ->
  replicate -> route -> dispatch`` stage ladder;
- propagation costs nothing on the zero-copy path: no shard decodes a
  single value for warm-type records;
- every span ring stays within its configured capacity.
"""

import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.tps import BrokerMesh, TpsPeer
from repro.apps.tps.topology import Topology
from repro.fixtures import person_assembly_pair, person_java
from repro.net.network import SimulatedNetwork

N_SHARDS = 3

_publishes = st.lists(st.integers(0, N_SHARDS - 1), min_size=1, max_size=10)


def build_world(root, trace_capacity=512):
    network = SimulatedNetwork()
    mesh = BrokerMesh(network, topology=Topology.sized(N_SHARDS),
                      log_root=root, replication_factor=1,
                      trace_capacity=trace_capacity)
    publisher = TpsPeer("publisher", network)
    asm_a, _ = person_assembly_pair()
    publisher.host_assembly(asm_a)
    delivered = []
    subscribers = []
    for index in range(N_SHARDS * 2):
        peer = TpsPeer("sub%02d" % index, network)
        peer.subscribe_remote(mesh.shard_for(peer.peer_id), person_java(),
                              delivered.append)
        subscribers.append(peer)
    return network, mesh, publisher, delivered


def warm_and_reset(mesh, publisher):
    """Teach every shard the type, then zero the trace rings and decode
    counters so only the measured publishes are visible."""
    for shard_id in mesh.shard_ids:
        publisher.publish_async(
            shard_id, publisher.new_instance("demo.a.Person", ["warm"]))
    mesh.run_until_idle()
    for shard in mesh.shards:
        shard.tracer._events.clear()
        shard.codec.stats.decodes = 0


@settings(max_examples=10, deadline=None)
@given(script=_publishes)
def test_one_trace_id_per_journey_and_zero_decodes(script):
    root = tempfile.mkdtemp(prefix="traceprop-")
    try:
        network, mesh, publisher, delivered = build_world(root)
        warm_and_reset(mesh, publisher)
        delivered.clear()

        for index, shard_index in enumerate(script):
            publisher.publish_async(
                mesh.shard_ids[shard_index],
                publisher.new_instance("demo.a.Person", ["e%d" % index]))
        mesh.run_until_idle()
        assert len(delivered) == len(script) * len(mesh.shard_ids) * 2

        spans = [span for shard in mesh.shards
                 for span in shard.tracer.events()]
        by_trace = {}
        for span in spans:
            by_trace.setdefault(span["trace"], []).append(span)

        # One mint per publish: N publishes -> exactly N distinct ids.
        assert len(by_trace) == len(script)

        for trace, journey in by_trace.items():
            # The home shard saw the publisher directly; forward hops
            # admit the same id from the home shard — never a fresh one.
            admits = [span for span in journey if span["stage"] == "admit"]
            origins = {span["src"] for span in admits}
            assert "publisher" in origins
            home = next(span["node"] for span in admits
                        if span["src"] == "publisher")
            stages = [span["stage"] for span in journey
                      if span["node"] == home]
            assert stages[:3] == ["admit", "append", "replicate"]
            assert "route" in stages and "dispatch" in stages

        # Zero-copy preserved: tracing added no value decodes anywhere.
        for shard in mesh.shards:
            assert shard.codec.stats.decodes == 0, shard.peer_id
        mesh.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)


@settings(max_examples=5, deadline=None)
@given(n_events=st.integers(1, 40), capacity=st.integers(1, 16))
def test_span_ring_never_exceeds_capacity(n_events, capacity):
    root = tempfile.mkdtemp(prefix="tracering-")
    try:
        network, mesh, publisher, delivered = build_world(
            root, trace_capacity=capacity)
        home = mesh.shard_for("publisher")
        for index in range(n_events):
            publisher.publish_async(
                home, publisher.new_instance("demo.a.Person",
                                             ["r%d" % index]))
        mesh.run_until_idle()
        for shard in mesh.shards:
            assert len(shard.tracer) <= capacity
        mesh.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
