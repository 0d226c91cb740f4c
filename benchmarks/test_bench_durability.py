"""Durability — EventLog append/replay throughput and replay budget.

The persistence subsystem sits on the publish hot path (every admitted
batch is appended before fan-out), so its cost has to be measured next to
the mesh numbers it protects:

- **append throughput** — records durably appended per second (the tax on
  every publish through a logged broker);
- **replay throughput** — records scanned per second on reopen, and the
  full pipeline (parse envelope + decode RBS2B frame) a late subscriber's
  backlog actually pays;
- **acceptance** — replaying 10 000 events through the full decode
  pipeline after a close/reopen cycle completes within the quick-mode
  budget, so CI catches a replay-path regression without calibrating.
"""

import time

import pytest

from repro.fixtures import person_assembly_pair, person_java
from repro.apps.tps import BrokerMesh, TpsPeer
from repro.apps.tps.topology import Topology
from repro.net.network import SimulatedNetwork
from repro.persistence import EventLog
from repro.runtime.loader import Runtime
from repro.serialization.envelope import EnvelopeCodec

#: Acceptance scale and wall-clock ceiling for the 10k replay (quick mode
#: runs the body once; the budget is generous against CI jitter while
#: still catching an accidentally quadratic replay path).
N_ACCEPTANCE = 10_000
REPLAY_BUDGET_S = 10.0

N_BENCH = 2_000


def event_payload():
    runtime = Runtime()
    asm_a, _ = person_assembly_pair()
    runtime.load_assembly(asm_a)
    codec = EnvelopeCodec(runtime)
    event = runtime.new_instance("demo.a.Person", ["durability"])
    return codec, codec.encode_batch([event], origin="publisher")


class TestAcceptance:
    def test_replay_10k_events_within_budget(self, tmp_path):
        """Append 10k single-event batch records, reopen the log (recovery
        scan included), replay with full envelope decode — within budget."""
        codec, payload = event_payload()
        log = EventLog(str(tmp_path), segment_max_bytes=1 << 20)
        append_start = time.perf_counter()
        for _ in range(N_ACCEPTANCE):
            log.append(payload, origin="publisher")
        append_s = time.perf_counter() - append_start
        log.close()

        replay_start = time.perf_counter()
        reopened = EventLog(str(tmp_path), segment_max_bytes=1 << 20)
        events = 0
        for record in reopened.replay():
            events += len(codec.unwrap_batch(codec.parse(record.payload)))
        replay_s = time.perf_counter() - replay_start
        reopened.close()

        assert events == N_ACCEPTANCE
        assert replay_s < REPLAY_BUDGET_S, (
            "replaying %d events took %.2fs (budget %.1fs)"
            % (N_ACCEPTANCE, replay_s, REPLAY_BUDGET_S)
        )
        # Append is on the publish hot path: it must not be slower than
        # the decode-heavy replay by an order of magnitude either.
        assert append_s < REPLAY_BUDGET_S


class TestEventLogThroughput:
    def test_append_throughput(self, benchmark, tmp_path):
        codec, payload = event_payload()
        state = {"index": 0}

        def setup():
            directory = str(tmp_path / ("append-%d" % state["index"]))
            state["index"] += 1
            return (EventLog(directory, segment_max_bytes=1 << 20),), {}

        def run(log):
            for _ in range(N_BENCH):
                log.append(payload, origin="publisher")
            log.close()

        benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
        benchmark.extra_info["experiment"] = "durability-append"
        benchmark.extra_info["records"] = N_BENCH
        benchmark.extra_info["record_bytes"] = len(payload)

    def test_replay_throughput(self, benchmark, tmp_path):
        """Reopen + full-decode replay of a pre-written log."""
        codec, payload = event_payload()
        directory = str(tmp_path / "replay")
        log = EventLog(directory, segment_max_bytes=1 << 20)
        for _ in range(N_BENCH):
            log.append(payload, origin="publisher")
        log.close()

        def run():
            reopened = EventLog(directory, segment_max_bytes=1 << 20)
            events = 0
            for record in reopened.replay():
                events += len(codec.unwrap_batch(codec.parse(record.payload)))
            reopened.close()
            return events

        events = benchmark.pedantic(run, rounds=3, iterations=1)
        assert events == N_BENCH
        benchmark.extra_info["experiment"] = "durability-replay"
        benchmark.extra_info["records"] = N_BENCH


class TestDurableSubscriberReplay:
    def test_late_subscriber_backlog_drain(self, benchmark, tmp_path):
        """End-to-end: a late durable subscriber replays a 300-event
        backlog through the mesh (conformance check, batch encode, queued
        delivery, acks) — the user-visible cost of joining late."""
        n_backlog = 300
        network = SimulatedNetwork()
        mesh = BrokerMesh(network, topology=Topology.sized(2),
                          log_root=str(tmp_path / "mesh"))
        publisher = TpsPeer("publisher", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        home = mesh.shard_for("publisher")
        for index in range(n_backlog):
            publisher.publish_async(
                home, publisher.new_instance("demo.a.Person", ["b%d" % index]))
        mesh.run_until_idle()

        state = {"index": 0}

        def run():
            got = []
            late = TpsPeer("late-%d" % state["index"], network)
            state["index"] += 1
            late.subscribe_durable_remote(
                home, person_java(), got.append,
                cursor="late-%d" % state["index"])
            mesh.run_until_idle()
            late.close()
            return len(got)

        delivered = benchmark.pedantic(run, rounds=3, iterations=1,
                                       warmup_rounds=1)
        assert delivered == n_backlog
        benchmark.extra_info["experiment"] = "durability-subscriber-replay"
        benchmark.extra_info["backlog_events"] = n_backlog
        benchmark.extra_info["events_replayed"] = \
            mesh.shard(home).events_replayed
        mesh.close()
