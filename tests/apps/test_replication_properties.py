"""Hypothesis property suite for cross-shard log replication.

The safety invariant, under arbitrary interleavings of publish, drain,
crash and restart: for every shard S and every follower F of S, the
replica log F keeps for S contains **every** origin record of S below the
replication watermark S holds for F (the last high-water F acknowledged)
— byte-identical, at the origin's own offsets.  Completeness above the
watermark is at-least-once territory (a batch may still be in flight or
have died with a crashed incarnation); below it, a hole is a bug.
"""

import shutil
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.tps import BrokerMesh, TpsPeer
from repro.apps.tps.topology import Topology
from repro.fixtures import person_assembly_pair
from repro.net.network import SimulatedNetwork
from repro.serialization.envelope import envelope_home

N_SHARDS = 3

#: One step of an interleaving: publish an event homed on shard i, drain
#: one mesh round, drain to idle, or crash-restart shard i.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("publish"), st.integers(0, N_SHARDS - 1)),
        st.tuples(st.just("flush"), st.just(0)),
        st.tuples(st.just("drain"), st.just(0)),
        st.tuples(st.just("restart"), st.integers(0, N_SHARDS - 1)),
    ),
    min_size=1, max_size=14,
)


def origin_offsets(shard):
    return {record.offset for record in shard.event_log.replay()
            if envelope_home(record.payload) is None}


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(ops=ops, factor=st.integers(1, 2))
def test_follower_superset_of_origin_up_to_watermark(ops, factor):
    tmp = tempfile.mkdtemp(prefix="repl-prop-")
    try:
        network = SimulatedNetwork()
        mesh = BrokerMesh(network, topology=Topology.sized(N_SHARDS),
                          log_root=tmp + "/logs",
                          replication_factor=factor)
        publisher = TpsPeer("publisher", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)

        sequence = 0
        for op, index in ops:
            if op == "publish":
                publisher.publish_async(
                    mesh.shard_ids[index],
                    publisher.new_instance("demo.a.Person",
                                           ["v%d" % sequence]))
                sequence += 1
            elif op == "flush":
                mesh.flush()
            elif op == "drain":
                mesh.run_until_idle()
            else:
                mesh.restart_shard(mesh.shard_ids[index])
        mesh.run_until_idle()

        for shard in mesh.shards:
            origin = origin_offsets(shard)
            assert shard.replication is not None
            for follower_id, marks in shard.replication.watermarks().items():
                follower = mesh.shard(follower_id)
                replica = follower.replicas.log_for(shard.peer_id,
                                                    create=False)
                held = ({record.offset for record in replica.replay()}
                        if replica is not None else set())
                below_watermark = {offset for offset in origin
                                   if offset < marks["acked"]}
                missing = below_watermark - held
                assert missing == set(), (
                    "follower %s is missing origin records %r of %s below "
                    "its acked watermark %d"
                    % (follower_id, sorted(missing), shard.peer_id,
                       marks["acked"]))
                # and what it holds is byte-identical to the origin
                if replica is not None:
                    for record in replica.replay():
                        if record.offset in origin:
                            assert record.payload == shard.event_log.read(
                                record.offset).payload
        mesh.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
