"""Scrape a live soak's HTTP endpoints mid-run (the CI soak-smoke job).

The soak harness serves its registry over HTTP when ``SOAK_HTTP_FILE``
is set, writing the endpoint map to that path once the servers are
listening: ``driver``, ``mesh`` (an endpoint answering ``/mesh/*`` for
every shard — one shard node of a process mesh, the one endpoint of an
in-process mesh) and, for a process mesh, every shard node's address
under ``shards``.  This script waits for the map, curls ``/metrics`` and
``/stats`` from the driver and ``/metrics`` from every shard node while
the soak is still publishing, asserts the Prometheus exposition parses,
the loss-oracle gauges (``repro_soak_lost``, ``repro_soak_duplicates``)
read zero, and the zero-copy oracle (``repro_transport_bytes_copied``)
is flat on every node mid-forwarding.  It then reads ``/mesh/stats``
from the mesh endpoint and fails unless every shard of the committed
topology answered, and writes the scraped snapshot to ``--emit`` for
the artifact upload.

Usage:
    PYTHONPATH=src python benchmarks/scrape_soak.py ENDPOINT_FILE \
        [--emit SNAPSHOT.json] [--timeout SECONDS]
"""

import argparse
import json
import sys
import time
import urllib.error
import urllib.request

from repro.obs.metrics import parse_exposition


def fetch(url, deadline):
    """GET with retries until ``deadline`` — the soak's polled servers
    answer only once their pump loops are running."""
    last_error = None
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(url, timeout=10) as response:
                return response.read().decode("utf-8")
        except (urllib.error.URLError, OSError, ValueError) as error:
            last_error = error
            time.sleep(0.2)
    raise SystemExit("could not fetch %s: %s" % (url, last_error))


def wait_for_endpoints(path, deadline):
    while time.monotonic() < deadline:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            time.sleep(0.2)
    raise SystemExit("endpoint map %s never appeared" % path)


def gauge_value(samples, name):
    if name not in samples:
        raise SystemExit("loss-oracle gauge %s missing from /metrics" % name)
    return sum(samples[name].values())


def assert_zero_copy(samples, node):
    """The send path carries payloads by reference: mid-run, with
    records actively forwarded, no node may have snapshotted a byte."""
    if "repro_transport_bytes_copied" not in samples:
        raise SystemExit("bytes_copied family missing from %s" % node)
    copied = sum(samples["repro_transport_bytes_copied"].values())
    if copied:
        raise SystemExit("zero-copy oracle violated on %s: bytes_copied=%s"
                         % (node, copied))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("endpoint_file")
    parser.add_argument("--emit", default=None,
                        help="write the scraped snapshot here")
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--expect-epoch", type=int, default=None,
                        help="membership soak: poll the /mesh/topology "
                             "view until its epoch reaches this value "
                             "(the elastic-smoke job's mid-run gate), and "
                             "require the replication watermark-lag "
                             "gauges on every shard page")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + args.timeout
    endpoints = wait_for_endpoints(args.endpoint_file, deadline)
    snapshot = {"endpoints": endpoints}

    driver = endpoints["driver"]
    page = fetch(driver + "/metrics", deadline)
    samples = parse_exposition(page)
    lost = gauge_value(samples, "repro_soak_lost")
    duplicates = gauge_value(samples, "repro_soak_duplicates")
    if lost or duplicates:
        raise SystemExit("loss oracle violated mid-run: lost=%s dup=%s"
                         % (lost, duplicates))
    if "repro_soak_published" not in samples:
        raise SystemExit("repro_soak_published missing from driver /metrics")
    assert_zero_copy(samples, "driver")
    snapshot["driver_metrics"] = page
    snapshot["driver_stats"] = json.loads(fetch(driver + "/stats", deadline))

    # Every shard node serves its own parseable exposition page.
    snapshot["shards"] = {}
    for shard_id, address in sorted(endpoints.get("shards", {}).items()):
        page = fetch(address + "/metrics", deadline)
        shard_samples = parse_exposition(page)
        if "repro_pipeline_events_routed" not in shard_samples:
            raise SystemExit("pipeline family missing from %s" % shard_id)
        assert_zero_copy(shard_samples, shard_id)
        if args.expect_epoch is not None \
                and "repro_replication_watermark_lag" not in shard_samples:
            raise SystemExit("watermark-lag gauges missing from %s"
                             % shard_id)
        snapshot["shards"][shard_id] = page

    # One endpoint answers for every shard: on a process mesh the node
    # reads its peers over the control plane, so each shard must answer.
    base = endpoints["mesh"]
    while True:
        view = json.loads(fetch(base + "/mesh/topology", deadline))
        stats = json.loads(fetch(base + "/mesh/stats", deadline))
        if stats["epoch"] == view["epoch"]:
            break  # no membership change between the two reads
        if time.monotonic() > deadline:
            raise SystemExit("mesh epoch kept moving under /mesh/stats")
    missing = set(view["topology"]["shards"]) - set(stats["shards"])
    if missing:
        raise SystemExit("/mesh/stats missing shard(s) %s"
                         % ", ".join(sorted(missing)))
    snapshot["mesh_stats"] = stats

    if args.expect_epoch is not None:
        # The expansion fires while the soak is still publishing: poll
        # the membership view until every scheduled join has committed.
        view = {}
        while time.monotonic() < deadline:
            view = json.loads(fetch(base + "/mesh/topology", deadline))
            if int(view.get("epoch", 0)) >= args.expect_epoch:
                break
            time.sleep(0.5)
        if int(view.get("epoch", 0)) < args.expect_epoch:
            raise SystemExit("mesh epoch stuck at %s (expected >= %d)"
                             % (view.get("epoch"), args.expect_epoch))
        snapshot["topology"] = view
        # Replication health is what makes an eventual removal safe:
        # the aggregated mesh page must expose the per-follower
        # watermark-lag gauges mid-migration.
        page = fetch(base + "/mesh/metrics", deadline)
        if "repro_replication_watermark_lag" not in parse_exposition(page):
            raise SystemExit("watermark-lag gauges missing from the "
                             "mesh /metrics page")
        snapshot["mesh_metrics"] = page

    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print("scraped driver + %d shard node(s) + /mesh/stats over %d "
          "shard(s): lost=0 duplicates=0 bytes_copied=0 published=%s"
          % (len(snapshot["shards"]), len(snapshot["mesh_stats"]["shards"]),
             snapshot["driver_stats"].get("published")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
