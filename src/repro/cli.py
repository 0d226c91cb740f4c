"""Command-line interface.

Usage::

    python -m repro describe FILE [--namespace NS]
    python -m repro check PROVIDER_FILE EXPECTED_FILE [--strict] [--behavioral]
    python -m repro demo
    python -m repro log inspect DIR
    python -m repro log compact DIR
    python -m repro log replicas DIR
    python -m repro soak [--shards N] [--http-file PATH] [--emit PATH]
    python -m repro mesh topology --url http://host:port
    python -m repro mesh rebalance --url http://host:port --token TOKEN
    python -m repro trace TRACE_ID SPANS.json... [--url http://host:port]

``describe`` prints the XML type description(s) of a source file;
``check`` compiles a provider and an expected type from two source files
and reports the conformance verdict (exit status 0 = conformant);
``demo`` runs the paper's Section 3.1 scenario end to end;
``mesh`` reads a live mesh's membership (``topology``) or drives its
token-guarded admin operations — ``add_shard``, ``remove_shard``,
``rebalance``, ``restart_shard``, ``compact``, ``prune`` — over the
operational HTTP API, printing the uniform admin envelope;
``log inspect`` dumps segment/offset statistics of a durable event log
directory (a broker ``log_dir``, or the ``events`` directory inside one)
without modifying it; ``log compact`` rewrites its closed segments
keeping only the latest record per (type fingerprint, entity key) —
bounded by the slowest cursor in ``cursors.json``, so nothing a durable
subscriber has yet to acknowledge is lost; ``log replicas`` lists the
per-origin replica logs a mesh shard keeps for its siblings (the
cross-shard replication state) next to the shard's own log.

Source language is inferred from the extension: ``.cs`` (C#-like),
``.java`` (Java-like), ``.vb`` (VB-like).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .core import (
    BehavioralChecker,
    ConformanceChecker,
    ConformanceOptions,
    IncomparableError,
)
from .cts.types import TypeInfo
from .describe.description import TypeDescription
from .describe.xml_codec import serialize_description
from .langs.csharp import compile_source as compile_csharp
from .langs.java import compile_source as compile_java
from .langs.vb import compile_source as compile_vb
from .runtime.loader import Runtime

_COMPILERS = {
    ".cs": compile_csharp,
    ".java": compile_java,
    ".vb": compile_vb,
}


class CliError(Exception):
    pass


def compile_file(path: str, namespace: str = "") -> List[TypeInfo]:
    for extension, compiler in _COMPILERS.items():
        if path.endswith(extension):
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            ns = namespace or path.rsplit("/", 1)[-1][: -len(extension)]
            return compiler(source, namespace=ns, assembly_name=ns)
    raise CliError(
        "cannot infer language of %r (expected .cs, .java or .vb)" % path
    )


def cmd_describe(args, out) -> int:
    types = compile_file(args.file, args.namespace)
    for info in types:
        out.write(serialize_description(TypeDescription.from_type_info(info)))
        out.write("\n")
    return 0


def cmd_check(args, out) -> int:
    provider_types = compile_file(args.provider)
    expected_types = compile_file(args.expected)
    if not provider_types or not expected_types:
        raise CliError("each file must declare at least one type")
    provider = provider_types[0]
    expected = expected_types[0]

    options = (
        ConformanceOptions.paper_defaults()
        if args.strict
        else ConformanceOptions.pragmatic()
    )
    checker = ConformanceChecker(options=options)
    result = checker.conforms(provider, expected)
    out.write(result.explain() + "\n")

    if result.ok and args.behavioral:
        runtime = Runtime()
        for info in provider_types + expected_types:
            runtime.load_type(info)
        behavioral = BehavioralChecker(runtime, structural=checker)
        try:
            behavioral_result = behavioral.check(provider, expected)
        except IncomparableError as exc:
            out.write("behavioral: incomparable (%s)\n" % exc)
            return 1
        out.write(behavioral_result.explain() + "\n")
        return 0 if behavioral_result.ok else 1

    return 0 if result.ok else 1


def cmd_demo(args, out) -> int:
    from . import fixtures
    from .remoting.dynamic import wrap

    provider = fixtures.person_csharp()
    expected = fixtures.person_java()
    checker = ConformanceChecker(options=ConformanceOptions.pragmatic())
    result = checker.conforms(provider, expected)
    out.write(result.explain() + "\n")

    runtime = Runtime()
    runtime.load_type(provider)
    someone = runtime.instantiate(provider, ["Ada"])
    view = wrap(someone, expected, checker)
    out.write("view.getPersonName() -> %s\n" % view.getPersonName())
    view.setPersonName("Grace")
    out.write("after setPersonName('Grace') -> %s\n" % view.getPersonName())
    return 0


def cmd_log(args, out) -> int:
    import os

    from .persistence import CursorStore
    from .persistence.log import inspect_log

    directory = args.directory
    if not os.path.isdir(directory):
        raise CliError("no such directory: %s" % directory)
    # A broker's log_dir holds events/ + cursors.json + cursors.log;
    # accept either level.
    events_dir = directory
    cursors_dir = directory
    if os.path.isdir(os.path.join(directory, "events")):
        events_dir = os.path.join(directory, "events")
    else:
        cursors_dir = os.path.dirname(directory.rstrip("/")) or directory
    if args.action == "compact":
        return _compact_log(events_dir, cursors_dir, out)
    if args.action == "replicas":
        return _replicas_log(events_dir, cursors_dir, out)
    info = inspect_log(events_dir)

    out.write("event log %s\n" % events_dir)
    out.write("  records       %d\n" % info["records"])
    out.write("  offsets       [%d, %d)\n"
              % (info["first_offset"], info["next_offset"]))
    out.write("  segments      %d (%s bytes valid)\n"
              % (info["segment_count"], format(info["bytes"], ",")))
    if info["torn_segments"]:
        out.write("  TORN TAIL     %d segment(s) end mid-record "
                  "(recovery will truncate)\n" % info["torn_segments"])
    for segment in info["segments"]:
        marker = "  torn" if segment["torn"] else ""
        first = ("%d" % segment["first_offset"]
                 if segment["first_offset"] is not None else "-")
        out.write("    %-24s %6d records  from offset %-8s %10s bytes%s\n"
                  % (segment["file"], segment["records"], first,
                     format(segment["valid_bytes"], ","), marker))

    cursors_path = os.path.join(cursors_dir, "cursors.json")
    if os.path.exists(cursors_path):
        # Read-only: loads the checkpoint, replays the journal, writes
        # neither.
        with CursorStore(cursors_path) as store:
            out.write("  cursors       %d\n" % len(store))
            if store.journal_torn:
                out.write("  TORN JOURNAL  cursors.log ends mid-record "
                          "(the first mutation truncates it)\n")
            for name in store.names():
                entry = store.entry(name)
                if entry.get("origin"):
                    # A fetch cursor holds a position in a SIBLING shard's
                    # offset space — "behind" the local log is meaningless.
                    out.write("    %-24s fetched below %-6d from %s  peer=%s\n"
                              % (name, store.get(name), entry["origin"],
                                 entry.get("peer_id") or "local"))
                    continue
                behind = info["next_offset"] - store.get(name)
                if behind < 0:
                    state = "AHEAD of log end by %d (tail lost?)" % -behind
                else:
                    state = "%d behind" % behind
                out.write("    %-24s acked below %-8d (%s)  peer=%s\n"
                          % (name, store.get(name), state,
                             entry.get("peer_id") or "local"))
    return 1 if info["torn_segments"] else 0


def _replicas_log(events_dir, cursors_dir, out) -> int:
    """The ``log replicas`` action: this shard's own log next to the
    per-origin replica logs it keeps for its siblings."""
    import os
    from urllib.parse import unquote

    from .persistence.log import inspect_log

    own = inspect_log(events_dir)
    out.write("shard log %s\n" % events_dir)
    out.write("  own records   %d in [%d, %d)\n"
              % (own["records"], own["first_offset"], own["next_offset"]))
    replicas_root = os.path.join(cursors_dir, "replicas")
    if not os.path.isdir(replicas_root):
        out.write("  replicas      none (no replicas/ directory)\n")
        return 0
    origins = sorted(os.listdir(replicas_root))
    out.write("  replicas      %d origin(s)\n" % len(origins))
    for name in origins:
        info = inspect_log(os.path.join(replicas_root, name))
        out.write("    %-24s %6d records  high-water %-8d %10s bytes\n"
                  % (unquote(name), info["records"], info["next_offset"],
                     format(info["bytes"], ",")))
    return 0


def _compact_log(events_dir, cursors_dir, out) -> int:
    """The ``log compact`` action: key-aware compaction of a log on disk,
    bounded by the slowest cursor so unacknowledged records survive."""
    import os

    from .persistence import CursorStore, EventLog

    retain_from = None
    cursors_path = os.path.join(cursors_dir, "cursors.json")
    if os.path.exists(cursors_path):
        # The broker's own bound: fetch cursors hold offsets in a sibling
        # shard's space and must not bound this log.
        with CursorStore(cursors_path) as store:
            retain_from = store.min_offset()
    with EventLog(events_dir) as log:  # recovery scan included
        before_records, before_bytes = log.record_count, log.size_bytes
        summary = log.compact(retain_from=retain_from)
    out.write("compacted %s\n" % events_dir)
    out.write("  records       %d -> %d (%d dropped)\n"
              % (before_records, summary["records"],
                 summary["dropped_records"]))
    out.write("  bytes         %s -> %s (%s reclaimed)\n"
              % (format(before_bytes, ","), format(summary["bytes"], ","),
                 format(summary["reclaimed_bytes"], ",")))
    out.write("  bound         below offset %d%s\n"
              % (summary["bound"],
                 "" if retain_from is None
                 else " (slowest cursor %d)" % retain_from))
    if summary["removed_segments"]:
        out.write("  segments      %d emptied and removed\n"
                  % summary["removed_segments"])
    return 0


def cmd_soak(args, out) -> int:
    import json

    from .apps.tps.soak import run_soak

    report = run_soak(
        shards=args.shards,
        duration_s=args.duration,
        payload_bytes=args.payload_bytes,
        publishers=args.publishers,
        subscribers=args.subscribers,
        churners=args.churners,
        skew=args.skew,
        seed=args.seed,
        scheme=args.scheme,
        processes=args.processes,
        log_root=args.log_root,
        http_file=args.http_file,
        expand_to=args.expand_to,
        leaves=args.leaves,
        durable=args.durable,
        replication_factor=args.replication_factor,
    )
    latency = report["latency_ms"]
    out.write("soak %s: %d shard(s), %.1fs publish window\n"
              % ("processes" if args.processes else "in-process",
                 args.shards, report["publish_elapsed_s"]))
    out.write("  published     %d (%.1f events/s)\n"
              % (report["published"], report["publish_eps"]))
    out.write("  deliveries    %d of %d expected (%.1f events/s)\n"
              % (report["deliveries"], report["expected_deliveries"],
                 report["delivery_eps"]))
    out.write("  lost          %d\n" % report["lost"])
    out.write("  duplicates    %d\n" % report["duplicates"])
    out.write("  churn ops     %d\n" % report["churn_ops"])
    out.write("  latency ms    p50=%.2f p99=%.2f p999=%.2f max=%.2f\n"
              % (latency["p50"], latency["p99"], latency["p999"],
                 latency["max"]))
    if report.get("membership_ops"):
        ops = report["membership_ops"]
        out.write("  membership    %d op(s), final epoch %d: %s\n"
                  % (len(ops), report["epoch"],
                     " ".join("%s(%s)@%.1fs" % (op["op"], op["shard"],
                                                op["at_s"])
                              for op in ops)))
        for label in ("steady", "migration"):
            bucket = report["latency_phases"][label]
            if bucket["samples"]:
                out.write("  %-9s ms  p50=%.2f p99=%.2f max=%.2f (%d)\n"
                          % (label, bucket["p50"], bucket["p99"],
                             bucket["max"], bucket["samples"]))
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        out.write("  report        %s\n" % args.emit)
    return 1 if (report["lost"] or report["duplicates"]) else 0


def cmd_mesh(args, out) -> int:
    """``repro mesh ACTION --url BASE``: read or administer a live mesh
    over its operational HTTP API.  ``topology`` is a read; every other
    action resolves through the same admin-op registry the HTTP routes
    and socket admin protocol are built from, so the CLI surface can
    never drift from what the mesh actually serves."""
    from urllib.error import HTTPError, URLError
    from urllib.request import Request, urlopen

    from .apps.tps.procmesh import ADMIN_REGISTRY

    base = args.url.rstrip("/")
    if args.action == "topology":
        try:
            with urlopen(base + "/topology", timeout=args.timeout) as response:
                data = json.loads(response.read().decode("utf-8"))
        except (HTTPError, URLError) as exc:
            raise CliError("cannot read %s/topology: %s" % (base, exc))
        topology = data.get("topology", {})
        out.write("epoch     %s\n" % data.get("epoch"))
        out.write("shards    %s\n" % " ".join(topology.get("shards", [])))
        departed = topology.get("departed") or []
        if departed:
            out.write("departed  %s\n" % " ".join(departed))
        # The committed epoch of every shard the endpoint hosts.
        entries = data.get("shard_epochs") or {}
        if entries:
            out.write("shard epochs\n")
            for shard_id, epoch in sorted(entries.items()):
                out.write("  %-24s %s\n" % (shard_id, epoch))
        return 0

    op = ADMIN_REGISTRY.get(args.action)
    if op is None or op.run is None:
        choices = ["topology"] + sorted(
            name for name, entry in ADMIN_REGISTRY.items()
            if entry.run is not None)
        raise CliError("unknown mesh action %r (one of: %s)"
                       % (args.action, ", ".join(choices)))
    if op.needs_shard and not args.shard:
        raise CliError("mesh %s requires --shard" % op.name)
    body = dict(args.body or {})
    if args.shard:
        body["shard"] = args.shard
    request = Request(base + "/admin/" + op.name,
                      data=json.dumps(body).encode("utf-8"), method="POST")
    if args.token:
        request.add_header("Authorization", "Bearer " + args.token)
    try:
        with urlopen(request, timeout=args.timeout) as response:
            payload = response.read()
    except HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace").strip()
        raise CliError("mesh %s failed: HTTP %d %s"
                       % (op.name, exc.code, detail))
    except URLError as exc:
        raise CliError("cannot reach %s: %s" % (base, exc))
    envelope = json.loads(payload)
    out.write("op        %s\n" % envelope.get("op"))
    if envelope.get("shard"):
        out.write("shard     %s\n" % envelope["shard"])
    out.write("epoch     %s\n" % envelope.get("epoch"))
    out.write("result    %s\n"
              % json.dumps(envelope.get("result"), sort_keys=True))
    return 0 if envelope.get("ok") else 1


def cmd_trace(args, out) -> int:
    import json
    from urllib.request import urlopen

    from .obs.tracing import render_timeline, stitch

    if args.list_traces and args.trace_id is not None:
        # `repro trace --list spans.json`: the optional trace-id
        # positional ate the first source path — hand it back.
        args.sources.insert(0, args.trace_id)
        args.trace_id = None
    if not args.list_traces and args.trace_id is None:
        raise CliError("a trace id is required (or use --list)")
    span_lists = []
    for path in args.sources:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        span_lists.append(data.get("spans", []) if isinstance(data, dict)
                          else data)
    for base in args.url:
        target = base.rstrip("/")
        if not target.endswith("/trace"):
            target += "/trace"
        if args.trace_id is not None:
            target += "?id=" + args.trace_id
        data = json.loads(urlopen(target, timeout=10).read().decode("utf-8"))
        span_lists.append(data.get("spans", []))
    if not span_lists:
        raise CliError("no span sources (give JSON files and/or --url)")
    if args.list_traces:
        spans = stitch(span_lists)
        counts: dict = {}
        for span in spans:
            counts[span["trace"]] = counts.get(span["trace"], 0) + 1
        for trace_id, count in counts.items():
            out.write("%-24s %d span(s)\n" % (trace_id, count))
        if not counts:
            out.write("(no spans)\n")
        return 0
    spans = stitch(span_lists, args.trace_id)
    out.write(render_timeline(spans, args.trace_id) + "\n")
    return 0 if spans else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pragmatic type interoperability: describe and check types.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    describe = sub.add_parser("describe", help="print XML type descriptions")
    describe.add_argument("file")
    describe.add_argument("--namespace", default="")
    describe.set_defaults(func=cmd_describe)

    check = sub.add_parser("check", help="check implicit structural conformance")
    check.add_argument("provider", help="source file of the provider type")
    check.add_argument("expected", help="source file of the expected type")
    check.add_argument("--strict", action="store_true",
                       help="use the paper's verbatim rules (LD = 0)")
    check.add_argument("--behavioral", action="store_true",
                       help="also sample behavioural conformance")
    check.set_defaults(func=cmd_check)

    demo = sub.add_parser("demo", help="run the Section 3.1 demo")
    demo.set_defaults(func=cmd_demo)

    log = sub.add_parser("log", help="inspect or compact a durable event log")
    log.add_argument("action", choices=["inspect", "compact", "replicas"],
                     help="inspect: print segment/offset/cursor statistics; "
                          "compact: rewrite closed segments keeping the "
                          "latest record per entity key (cursor-bounded); "
                          "replicas: list the per-origin replica logs a "
                          "mesh shard keeps for its siblings")
    log.add_argument("directory", help="broker log_dir (or its events/ dir)")
    log.set_defaults(func=cmd_log)

    soak = sub.add_parser(
        "soak", help="run a multi-process publish/subscribe soak")
    soak.add_argument("--shards", type=int, default=4)
    soak.add_argument("--duration", type=float, default=5.0,
                      help="publish window in seconds (default 5)")
    soak.add_argument("--payload-bytes", type=int, default=64)
    soak.add_argument("--publishers", type=int, default=2)
    soak.add_argument("--subscribers", type=int, default=3)
    soak.add_argument("--churners", type=int, default=2)
    soak.add_argument("--skew", choices=["uniform", "zipf"],
                      default="uniform",
                      help="shard selection for publishes and churn")
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument("--scheme", choices=["unix", "tcp"], default="unix",
                      help="shard transport: unix domain sockets or "
                           "loopback TCP")
    soak.add_argument("--log-root", default=None,
                      help="root directory for per-shard durable logs")
    soak.add_argument("--expand-to", type=int, default=None, metavar="N",
                      help="grow the mesh to N shards live, during the "
                           "publish window (add + rebalance per joiner)")
    soak.add_argument("--leaves", type=int, default=0, metavar="K",
                      help="remove K shards live after any joins "
                           "(needs --durable)")
    soak.add_argument("--durable", action="store_true",
                      help="stable subscribers use durable cursors (they "
                           "survive shard removal via handoff)")
    soak.add_argument("--replication-factor", type=int, default=0,
                      help="replicate each shard's log to this many "
                           "siblings")
    soak.add_argument("--in-process", dest="processes", action="store_false",
                      help="run every shard on one in-process socket hub "
                           "instead of one OS process per shard")
    soak.add_argument("--emit", default=None, metavar="PATH",
                      help="write the full JSON report to PATH")
    soak.add_argument("--http-file", default=None, metavar="PATH",
                      help="serve the harness metrics over HTTP and write "
                           "the endpoint map (driver + shards) to PATH")
    soak.set_defaults(func=cmd_soak, processes=True)

    mesh = sub.add_parser(
        "mesh", help="read or administer a live mesh over HTTP")
    mesh.add_argument("action",
                      help="topology (read the membership view), or an "
                           "admin operation: add_shard, remove_shard, "
                           "rebalance, restart_shard, compact, prune")
    mesh.add_argument("--url", required=True, metavar="BASE",
                      help="a mesh node's HTTP base URL")
    mesh.add_argument("--token", default=None,
                      help="bearer token for admin operations")
    mesh.add_argument("--shard", default=None,
                      help="target shard id (required by shard-targeted "
                           "operations)")
    mesh.add_argument("--body", type=json.loads, default=None,
                      metavar="JSON",
                      help="extra JSON arguments for the operation")
    mesh.add_argument("--timeout", type=float, default=60.0,
                      help="HTTP timeout in seconds (default 60)")
    mesh.set_defaults(func=cmd_mesh)

    trace = sub.add_parser(
        "trace", help="stitch per-shard span dumps into one timeline")
    trace.add_argument("trace_id", nargs="?", default=None,
                       help="the trace id to reconstruct (omit with --list)")
    trace.add_argument("sources", nargs="*",
                       help="span dump JSON files — the /trace or "
                            "/mesh/trace response of a node, or a bare "
                            "span list")
    trace.add_argument("--url", action="append", default=[],
                       metavar="BASE",
                       help="also scrape BASE/trace from a live node "
                            "(repeatable)")
    trace.add_argument("--list", action="store_true", dest="list_traces",
                       help="list the trace ids present in the sources")
    trace.set_defaults(func=cmd_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except (CliError, OSError) as exc:
        out.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
