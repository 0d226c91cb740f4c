"""Telemetry-plane overhead — metrics + tracing vs an untraced mesh.

The observability PR's acceptance gate: on the forwarding-heavy world
(1000 subscriptions over 4 shards, durable logs, replication to 2
followers, 90% non-local publishes), a mesh with the metrics registry
AND per-record tracing enabled (the defaults) stays within **1.1x** the
wall-clock of a ``tracing=False`` baseline — and keeps the zero-copy
guarantee: no shard decodes a single value for warm-type records, even
though every one of them is stamped with a trace id and recorded at
every pipeline stage it crosses.
"""

import statistics
import time

from repro.obs.metrics import parse_exposition
from test_bench_mesh_scaling import (
    N_EVENTS,
    N_PEERS,
    SUBS_PER_PEER,
    build_replicated_world,
    publish_nonlocal,
)

PAIRS = 40
MAX_OVERHEAD = 1.1


class TestTelemetryOverhead:
    def test_tracing_overhead_within_1_1x_and_zero_decodes(
            self, benchmark, tmp_path):
        """Alternating pairs: traced (default) vs ``tracing=False`` on
        identical forwarding-heavy worlds."""
        worlds = {}
        for tag, kwargs in (("traced", {}), ("untraced", {"tracing": False})):
            network, mesh, publisher, events = build_replicated_world(
                tmp_path, tag, **kwargs)
            for shard_id in mesh.shard_ids:  # teach every shard the type
                publisher.publish_async(
                    shard_id,
                    publisher.new_instance("demo.a.Person", ["warm"]))
            mesh.run_until_idle()
            for shard in mesh.shards:  # warm round pays the code fetches
                shard.codec.stats.decodes = 0
            worlds[tag] = (mesh, publisher)

        # A shared host's speed drifts by more than the budget over a
        # few seconds, so a best-of over separate timings can land on
        # either side of it.  Time back-to-back pairs instead (alternating
        # which goes first) and judge their median ratio: drift slower
        # than one pair cancels out.
        ratios = []

        def timed(tag):
            mesh, publisher = worlds[tag]
            start = time.perf_counter()
            publish_nonlocal(mesh, publisher, N_EVENTS, tag=tag[0])
            return time.perf_counter() - start

        def race():
            for index in range(PAIRS):
                if index % 2:
                    untraced = timed("untraced")
                    traced = timed("traced")
                else:
                    traced = timed("traced")
                    untraced = timed("untraced")
                ratios.append(traced / untraced)

        benchmark.pedantic(race, rounds=1, iterations=1)

        traced_mesh, _ = worlds["traced"]
        untraced_mesh, _ = worlds["untraced"]

        # Zero-copy preserved under full telemetry: forwarded and
        # replicated records crossed shard boundaries without a single
        # value decode, while every stage recorded spans.
        forwarded = sum(shard.stats().get("forwards_received", 0)
                        for shard in traced_mesh.shards)
        replicated = sum(shard.stats().get("replica_records", 0)
                         for shard in traced_mesh.shards)
        decodes = sum(shard.codec.stats.decodes
                      for shard in traced_mesh.shards)
        spans = sum(len(shard.tracer) for shard in traced_mesh.shards)
        assert forwarded > 0 and replicated > 0 and spans > 0
        assert decodes == 0, (
            "%d shard-side value decodes across %d forwarded records"
            % (decodes, forwarded))
        assert all(shard.tracer is None for shard in untraced_mesh.shards)

        # The exposition page stays parseable at full load.
        page = traced_mesh.shards[0].metrics.exposition(
            extra_labels=(("shard", traced_mesh.shard_ids[0]),))
        samples = parse_exposition(page)
        assert samples["repro_pipeline_events_routed"]

        overhead = statistics.median(ratios)
        benchmark.extra_info["experiment"] = "telemetry-overhead-1k-4shards"
        benchmark.extra_info["subscriptions"] = N_PEERS * SUBS_PER_PEER
        benchmark.extra_info["pairs"] = len(ratios)
        benchmark.extra_info["overhead_multiple"] = overhead
        benchmark.extra_info["forwarded_records"] = forwarded
        benchmark.extra_info["replicated_records"] = replicated
        benchmark.extra_info["spans_recorded"] = spans
        benchmark.extra_info["metrics_snapshot"] = (
            traced_mesh.shards[0].metrics.snapshot())
        traced_mesh.close()
        untraced_mesh.close()
        assert overhead <= MAX_OVERHEAD, (
            "traced/untraced median pair ratio %.3fx (> %.1fx budget)"
            % (overhead, MAX_OVERHEAD))
