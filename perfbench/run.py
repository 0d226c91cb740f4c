"""Layer-ledger benchmark: one command, three workloads, every metric named.

Run from the repository root::

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 20 --trace 0

``--trace 0`` builds the world several times (``setup_s`` is the median),
measures untraced and prints the end-to-end metrics, with closed-loop
times at the host's nominal speed (see ``perf_host``).  ``--trace 1``
measures half the time untraced and half traced, timing every call into
the layers listed in :data:`LAYER_OPS` by wrapping their class attributes
before the world is built (and restoring them afterwards), and prints
the per-layer metrics.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``
for every metric's meaning and the layer -> end-to-end map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from statistics import median
from typing import Dict, List, Tuple

from perf_host import NOMINAL_S, reference_s, scale_factors
from perf_stats import latency_summary, nearest_rank, tail
from perf_trace import OpStats, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

#: Traced operations and the sides each is reported for.  Spans of a
#: pair not listed here still count, in ``trace.other.share``.
LAYER_OPS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("serialization.envelope.parse", ("sub", "shard")),
    ("serialization.envelope.decode", ("sub", "shard")),
    ("serialization.envelope.encode", ("shard", "pub")),
    ("serialization.envelope.render", ("shard", "pub")),
    ("core.rules.conforms", ("sub", "shard")),
    ("remoting.dynamic.view", ("sub",)),
    ("persistence.log.append", ("shard",)),
    ("persistence.log.fsync", ("shard",)),
    ("persistence.log.replay", ("shard",)),
    ("persistence.cursors.advance", ("shard",)),
    ("apps.tps.pipeline.ack", ("shard",)),
    ("apps.tps.pipeline.replication_flush", ("shard",)),
    ("apps.tps.pipeline.process", ("shard",)),
    ("apps.tps.pipeline.delivery_flush", ("shard",)),
    ("apps.tps.routing.route", ("shard",)),
    ("apps.tps.routing.add", ("shard",)),
    ("apps.tps.routing.remove", ("shard",)),
    ("apps.tps.mesh.dispatch", ("shard",)),
    ("transport.protocol.admit", ("sub", "pub")),
)
SIDES = ("shard", "sub", "pub")
POLL = "net.socket_transport.poll"
REQUEST = "net.socket_transport.request"

#: Program counters and benchmark figures reported next to the spans.
COUNTER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("codec.header_parses_per_item", "count"),
    ("codec.decodes_per_item", "count"),
    ("codec.header_renders_per_item", "count"),
    ("codec.header_splices_per_item", "count"),
    ("codec.shard_live_decodes", "count"),
    ("net.messages_per_delivery", "count"),
    ("net.bytes_copied", "B"),
    ("net.queue_high_water", "B"),
    ("net.frames_lost", "count"),
    ("log.fsyncs_per_append", "count"),
    ("routing.verdict_hit_ratio", "ratio"),
    ("bench.generator.late_p99_ms", "ms"),
    ("bench.replay_values_per_s", "1/s"),
    ("bench.subscribe_p50_ms", "ms"),
    ("bench.tail_pct", "pct"),
    ("bench.tail_ms", "ms"),
    ("bench.latency_samples", "count"),
    ("bench.failed_ratio", "ratio"),
    ("bench.host_ref_ms", "ms"),
    ("trace.overhead", "x"),
    ("trace.other.share", "ratio"),
    ("trace.residual.share", "ratio"),
)

#: End-to-end metrics, measured untraced: (name, unit).
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("wire_bytes_per_delivery", "B"),
    ("rss_peak_mb", "MB"),
)


def per_layer_catalog() -> List[Tuple[str, str]]:
    """Every per-layer metric as (name, unit), in output order."""
    out: List[Tuple[str, str]] = []
    for op, sides in LAYER_OPS:
        for side in sides:
            out.append(("%s.%s.calls_per_item" % (op, side), "count"))
            out.append(("%s.%s.self_ns" % (op, side), "ns"))
            out.append(("%s.%s.share" % (op, side), "ratio"))
    out += [(POLL + ".calls_per_item", "count"), (POLL + ".busy_ns", "ns"),
            (POLL + ".wait_ns", "ns"), (POLL + ".share", "ratio"),
            (REQUEST + ".calls_per_subscribe", "count"),
            (REQUEST + ".share", "ratio")]
    for side in SIDES:
        out.append(("side.%s.ns_per_delivery" % side, "ns"))
        out.append(("side.%s.share" % side, "ratio"))
    out += list(COUNTER_METRICS)
    return out


def install_layer_wrappers(tracer) -> None:
    """Wrap each layer's entry points (see :data:`LAYER_OPS`)."""
    import repro.transport.protocol as protocol
    from repro.apps.tps.mesh import MeshShard
    from repro.apps.tps.pipeline import (
        AckTracker,
        BufferedDelivery,
        DeliveryPipeline,
        ReplicationStage,
    )
    from repro.apps.tps.routing import RoutingIndex
    from repro.core.rules import ConformanceChecker
    from repro.net.peer import Peer
    from repro.net.socket_transport import SocketHub, SocketNetwork
    from repro.persistence.cursors import CursorStore
    from repro.persistence.log import EventLog
    from repro.serialization.envelope import EnvelopeCodec, LazyBatch

    tracer.wrap_handler(Peer, "_dispatch",
                        lambda side: "apps.tps.mesh.dispatch"
                        if side == "shard" else "transport.protocol.admit")
    tracer.wrap_context(MeshShard, "flush_delivery", "shard")
    tracer.wrap(EnvelopeCodec, "parse", "serialization.envelope.parse")
    tracer.wrap(LazyBatch, "value", "serialization.envelope.decode")
    tracer.wrap(EnvelopeCodec, "unwrap", "serialization.envelope.decode")
    tracer.wrap(EnvelopeCodec, "unwrap_batch",
                "serialization.envelope.decode")
    tracer.wrap(EnvelopeCodec, "wrap", "serialization.envelope.encode")
    tracer.wrap(EnvelopeCodec, "wrap_batch", "serialization.envelope.encode")
    tracer.wrap(EnvelopeCodec, "envelope_to_bytes",
                "serialization.envelope.render")
    tracer.wrap(ConformanceChecker, "conforms", "core.rules.conforms")
    tracer.wrap(protocol, "wrap_with_result", "remoting.dynamic.view")
    tracer.wrap(EventLog, "append", "persistence.log.append")
    tracer.wrap(EventLog, "append_at", "persistence.log.append")
    tracer.wrap(EventLog, "_fsync_handle", "persistence.log.fsync")
    tracer.wrap_generator(EventLog, "replay", "persistence.log.replay")
    tracer.wrap(CursorStore, "advance", "persistence.cursors.advance")
    tracer.wrap(AckTracker, "acknowledge", "apps.tps.pipeline.ack")
    tracer.wrap(ReplicationStage, "flush",
                "apps.tps.pipeline.replication_flush")
    tracer.wrap(DeliveryPipeline, "process", "apps.tps.pipeline.process")
    tracer.wrap(BufferedDelivery, "flush", "apps.tps.pipeline.delivery_flush")
    tracer.wrap_generator(RoutingIndex, "route", "apps.tps.routing.route")
    tracer.wrap(RoutingIndex, "add", "apps.tps.routing.add")
    tracer.wrap(RoutingIndex, "remove", "apps.tps.routing.remove")
    tracer.wrap(SocketHub, "poll", POLL, cpu=True)
    tracer.wrap(SocketNetwork, "poll", POLL, cpu=True)
    tracer.wrap(SocketNetwork, "request", REQUEST)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print_percentiles(label: str, summary) -> None:
    for pct, entry in summary.items():
        print("  %-24s %-6s %10.3f ms  (n=%d, %d beyond)"
              % (label, pct, entry["value"], entry["samples"],
                 entry["beyond"]))


def _measure(world, seconds: float, gate):
    """Measure with the built world frozen out of the cyclic collector:
    its long-lived objects would otherwise be rescanned by every full
    collection, a pause that grows with the world, not with the work."""
    gc.collect()
    gc.freeze()
    try:
        return world.measure(seconds, gate)
    finally:
        gc.unfreeze()


def _timed_build(cls, seed: int, workdir: str):
    """Build one world; returns it and its build time at nominal host
    speed (scaled by host reference samples taken around the build)."""
    gc.collect()  # each build starts from the same heap, not the last's
    refs = [reference_s() for _ in range(3)]
    began = time.perf_counter()
    world = cls(seed, workdir)
    took = time.perf_counter() - began
    refs += [reference_s() for _ in range(3)]
    return world, took * NOMINAL_S / median(refs)


def measured_worlds(cls, seed: int, seconds: float, workdir: str,
                    setups: List[float], builds: int = 0):
    """Build worlds and yield each one that is to be measured, with the
    seconds left for it; each world is closed once measured.

    A workload with ``ROUNDS`` measures every world it builds, one round
    each, until ``seconds`` of measuring are used; the others build
    ``builds`` worlds (default ``SETUPS``) and measure only the last, for
    all of ``seconds``.  Every build's scaled time is appended to
    ``setups``."""
    builds = builds or getattr(cls, "SETUPS", 1)
    used = 0.0
    attempt = 0
    while True:
        world, setup = _timed_build(
            cls, seed, os.path.join(workdir, "world%d" % attempt))
        setups.append(setup)
        attempt += 1
        try:
            if not cls.ROUNDS and attempt < builds:
                continue
            began = time.perf_counter()
            yield world, seconds - used
            used += time.perf_counter() - began
        finally:
            world.close()
        if not cls.ROUNDS or used >= seconds:
            return


def run_untraced(cls, seed: int, seconds: float, workdir: str):
    from perf_workloads import Gate, Measurement

    setups: List[float] = []
    total = Measurement()
    for world, left in measured_worlds(cls, seed, seconds, workdir, setups):
        total.absorb(_measure(world, left, Gate()))
    return total, setups


def scaled_figures(measurement) -> Dict[str, float]:
    """Items per second and exact p50 at nominal host speed (closed
    loops).

    Each window's seconds and latency samples are scaled by the host
    reference samples around it (``perf_host``), so a run that lands in
    a slow stretch of the host reads like one that does not.  Both
    figures are the median window's, so a stall or a collection in a few
    windows does not move them: items per second, and p50, the exact
    nearest-rank median of a window's latency samples."""
    factors = scale_factors(measurement.refs)
    rates = []
    p50s = []
    samples = 0
    for items, seconds, window_samples, ref in measurement.windows:
        factor = factors[ref]
        rates.append(items / (seconds * factor))
        if window_samples:
            p50s.append(nearest_rank(sorted(window_samples), 50) * factor)
            samples += len(window_samples)
    return {"items_per_s": median(rates), "p50_ms": median(p50s),
            "windows": len(rates), "samples": samples}


def end_to_end_metrics(name: str, seed: int, seconds: float, workdir: str,
                       cls) -> Tuple[Dict[str, float], object]:
    measurement, setups = run_untraced(cls, seed, seconds, workdir)
    rss_peak_mb = _peak_rss_mb()  # before the figures' own copies
    busy = measurement.busy_s
    if cls.OPEN_LOOP:
        # The schedule fixes the open loop's rate, and what a record waits
        # there is not in proportion to the host's speed (the reference
        # loop did not follow it): both as measured, over the whole run.
        figures = {"items_per_s": measurement.items / busy,
                   "p50_ms": nearest_rank(sorted(measurement.latencies_ms),
                                          50),
                   "windows": 1, "samples": len(measurement.latencies_ms)}
    else:
        figures = scaled_figures(measurement)
    metrics = {
        "setup_s": median(setups),
        "items_per_s": figures["items_per_s"],
        "p50_ms": figures["p50_ms"],
        "wire_bytes_per_delivery":
            measurement.wire_bytes / measurement.deliveries,
        "rss_peak_mb": rss_peak_mb,
    }
    print("workload %s seed %d: %d items in %.3f s (%.1f/s as measured); "
          "p50 from %d samples in %d windows; setups %s"
          % (name, seed, measurement.items, busy, measurement.items / busy,
             figures["samples"], figures["windows"],
             " ".join("%.3f" % s for s in setups)))
    if measurement.refs:
        refs_ms = sorted(ref * 1e3 for ref in measurement.refs)
        print("  host reference loop: median %.3f ms over %d samples "
              "(%.3f..%.3f; nominal %.3f)"
              % (median(refs_ms), len(refs_ms), refs_ms[0], refs_ms[-1],
                 NOMINAL_S * 1e3))
    _print_percentiles("latency (whole run, as measured)",
                       latency_summary(measurement.latencies_ms))
    _print_notes(measurement)
    return metrics, measurement


def _print_notes(measurement) -> None:
    for key, value in sorted(measurement.notes.items()):
        if isinstance(value, list):
            _print_percentiles(key, latency_summary(value))
        else:
            print("  note  %-26s %s" % (key, value))


def per_layer_metrics(name: str, seed: int, seconds: float, workdir: str,
                      cls) -> Tuple[Dict[str, float], List[object]]:
    from perf_workloads import Gate, Measurement

    half = seconds / 2.0
    host_ref = median(reference_s() for _ in range(9)) * 1e3
    # Untraced half: the reference for trace.overhead and the source of
    # the benchmark-level figures.
    plain = Measurement()
    for world, left in measured_worlds(cls, seed, half,
                                       os.path.join(workdir, "untraced"),
                                       [], builds=1):
        plain.absorb(_measure(world, left, Gate()))

    holder = {}
    tracer = Tracer(side_of=lambda peer: holder["world"].side_of(peer))
    install_layer_wrappers(tracer)
    traced = Measurement()
    codec: Dict[str, int] = {}
    counters: Dict[str, float] = {}
    try:
        for world, left in measured_worlds(cls, seed, half,
                                           os.path.join(workdir, "traced"),
                                           [], builds=1):
            holder["world"] = world
            before = _codec_totals(world.codec_peers())
            traced.absorb(_measure(world, left,
                                   Gate(tracer.start, tracer.stop)))
            for key, value in _codec_totals(world.codec_peers()).items():
                codec[key] = codec.get(key, 0) + value - before.get(key, 0)
            for key, value in world.counters().items():
                counters[key] = (max(counters.get(key, 0), value)
                                 if key == "queue_high_water"
                                 else counters.get(key, 0) + value)
    finally:
        tracer.unwrap_all()

    items = max(1, traced.items)
    wall = max(1, tracer.wall_ns)
    metrics: Dict[str, float] = {}
    listed = set()
    side_self = dict.fromkeys(SIDES, 0)
    for op, sides in LAYER_OPS:
        for side in sides:
            listed.add((op, side))
            stats = tracer.ops.get((op, side), OpStats())
            metrics["%s.%s.calls_per_item" % (op, side)] = stats.calls / items
            metrics["%s.%s.self_ns" % (op, side)] = stats.self_ns / items
            metrics["%s.%s.share" % (op, side)] = stats.self_ns / wall
    poll = OpStats()
    request = OpStats()
    other_ns = 0
    for (op, side), stats in tracer.ops.items():
        if op in (POLL, REQUEST):
            target = poll if op == POLL else request
            target.calls += stats.calls
            target.self_ns += stats.self_ns
            target.wait_ns += stats.wait_ns
            continue
        if side in side_self:
            side_self[side] += stats.self_ns
        if (op, side) not in listed:
            other_ns += stats.self_ns
    subscribes = traced.notes.get("churn_cycles", 0)
    metrics.update({
        POLL + ".calls_per_item": poll.calls / items,
        POLL + ".busy_ns": poll.busy_ns / items,
        POLL + ".wait_ns": poll.wait_ns / items,
        POLL + ".share": poll.self_ns / wall,
        REQUEST + ".calls_per_subscribe":
            request.calls / subscribes if subscribes else 0.0,
        REQUEST + ".share": request.self_ns / wall,
    })
    for side in SIDES:
        metrics["side.%s.ns_per_delivery" % side] = side_self[side] / items
        metrics["side.%s.share" % side] = side_self[side] / wall

    latency = latency_summary(plain.latencies_ms)
    top = tail(latency)
    late = latency_summary(plain.notes.get("late_ms", []))
    rtt = latency_summary(plain.notes.get("subscribe_rtt_ms", []))
    if cls.OPEN_LOOP:
        # The schedule fixes the open loop's wall time and its driver
        # polls without waiting: compare what a record waits instead.
        overhead = median(traced.latencies_ms) / median(plain.latencies_ms)
    else:
        overhead = (traced.busy_s / items) / (
            plain.busy_s / max(1, plain.items))
    attempted = plain.attempted + traced.attempted
    metrics.update({
        "codec.header_parses_per_item":
            codec.get("header_parses", 0) / items,
        "codec.decodes_per_item":
            codec.get("decodes", 0) / items,
        "codec.header_renders_per_item":
            codec.get("header_renders", 0) / items,
        "codec.header_splices_per_item":
            codec.get("header_splices", 0) / items,
        "codec.shard_live_decodes": traced.notes["shard_live_decodes"],
        "net.messages_per_delivery":
            traced.messages / max(1, traced.deliveries),
        "net.bytes_copied": counters["bytes_copied"],
        "net.queue_high_water": counters["queue_high_water"],
        "net.frames_lost": counters["frames_lost"],
        "log.fsyncs_per_append":
            counters["fsyncs"] / counters["appends"]
            if counters["appends"] else 0.0,
        "routing.verdict_hit_ratio":
            counters["verdict_hits"] / counters["verdict_lookups"]
            if counters["verdict_lookups"] else 0.0,
        "bench.generator.late_p99_ms":
            late["p99"]["value"] if "p99" in late else 0.0,
        "bench.replay_values_per_s":
            plain.notes["replayed"] / plain.notes["replay_s"]
            if plain.notes.get("replay_s") else 0.0,
        "bench.subscribe_p50_ms": rtt["p50"]["value"] if "p50" in rtt else 0.0,
        "bench.tail_pct": latency[top]["pct"],
        "bench.tail_ms": latency[top]["value"],
        "bench.latency_samples": len(plain.latencies_ms),
        "bench.failed_ratio":
            (plain.failed + traced.failed) / max(1, attempted),
        "bench.host_ref_ms": host_ref,
        "trace.overhead": overhead,
        "trace.other.share": other_ns / wall,
        "trace.residual.share": tracer.residual_ns() / wall,
    })
    print("workload %s seed %d (traced): %d items, traced wall %.3f s, "
          "untraced %d items in %.3f s"
          % (name, seed, traced.items, wall / 1e9, plain.items, plain.busy_s))
    _print_percentiles("untraced latency", latency)
    _print_notes(plain)
    _print_ledger(tracer, items, wall)
    return metrics, [plain, traced]


def _codec_totals(peers) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for peer in peers:
        for key, value in peer.codec.stats.as_dict().items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _print_ledger(tracer, items: int, wall: int) -> None:
    """The traced ledger: self time per (op, side), largest first, plus
    the residual no span covers; the shares sum to 1."""
    rows = sorted(tracer.ops.items(), key=lambda kv: -kv[1].self_ns)
    print("  %-42s %-6s %10s %12s %7s" % ("op", "side", "calls/item",
                                          "self ns/item", "share"))
    for (op, side), stats in rows:
        print("  %-42s %-6s %10.3f %12.1f %7.4f"
              % (op, side, stats.calls / items, stats.self_ns / items,
                 stats.self_ns / wall))
    print("  %-42s %-6s %10s %12.1f %7.4f"
          % ("(residual: outside every span)", "-", "-",
             tracer.residual_ns() / items, tracer.residual_ns() / wall))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print("perfbench: no program source at %s" % source, file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    from perf_workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(sorted(WORKLOADS))), file=sys.stderr)
        return 2
    workdir = os.path.join(".perfbench-work", "%s-%d" % (args.workload,
                                                          os.getpid()))
    try:
        if args.trace:
            values, runs = per_layer_metrics(args.workload, args.seed,
                                             args.seconds, workdir, cls)
            units = dict(per_layer_catalog())
        else:
            values, run = end_to_end_metrics(args.workload, args.seed,
                                             args.seconds, workdir, cls)
            runs = [run]
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".perfbench-work")
        except OSError:
            pass  # another run still uses it, or it never existed
    warm_failed = sum(int(run.notes.get("warmup_failed", 0)) for run in runs)
    failed = sum(run.failed for run in runs) + warm_failed
    attempted = sum(run.attempted for run in runs)
    drained = all(run.notes.get("drained", True) for run in runs)
    result = {
        "correct": failed == 0 and drained,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


#: The string-hash salt every run uses.  Python salts ``str`` hashes per
#: process, so set and dict layouts differ from run to run, and with
#: them, for one, the order in which a socket poll serves its
#: connections, which moved the socket workload's median latency by a
#: tenth between runs of the same seed.  One fixed salt makes every run,
#: of this program or of a later change to it, use the same layout.
HASH_SEED = "0"


def _rerun_with_fixed_hash_seed() -> None:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)


if __name__ == "__main__":
    _rerun_with_fixed_hash_seed()
    sys.exit(main())
