"""Soak harness: sustained publish/subscribe churn over a socket mesh.

Drives a :class:`~repro.apps.tps.procmesh.ProcessMesh` (one shard per OS
process; the default) or an in-process
:class:`~repro.apps.tps.procmesh.SocketMesh` with a configurable load:

- **publishers** spread events over the shards, uniformly or Zipf-skewed
  (hot-shard traffic), with configurable payload sizes;
- **stable subscribers** live for the whole run and are the loss oracle:
  every one of them must receive *every* published event exactly once —
  ``lost``/``duplicates`` in the report must both be zero;
- **churn subscribers** subscribe and unsubscribe continuously (at the
  Zipf-hot shards when skew is on), exercising the gossip/forwarding
  control plane under load; their deliveries are traffic, not oracle;
- **membership churn** (``expand_to=`` / ``leaves=``) adds and removes
  live shards *during* the publish window — the elastic-membership
  acceptance path.  Every op is followed by a rebalance, the publish
  pick-list refreshes around each change (a leaver is excluded *before*
  its removal starts, a joiner included once rebalanced in), and each
  latency sample is tagged ``steady`` or ``migration`` so the report can
  price the migration window separately (``latency_phases``).

Latency is measured end to end: each event's payload embeds the
publisher's ``monotonic_ns`` stamp, read back in the subscriber's handler
(one machine, one clock — exactly the soak setting).  The report carries
p50/p99/p999/max percentiles, throughput, and the transport counters
(per-kind bytes/messages, queue high-water marks, receive-pool hits) in
the shape ``benchmarks/report.py --emit`` folds into ``BENCH_<sha>.json``.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional

from ...fixtures import person_assembly_pair, person_java
from ...net.network import NetworkError
from ...obs.bridge import register_network_metrics
from ...obs.http import ObsHttpServer
from ...obs.metrics import MetricsRegistry
from .broker import TpsPeer
from .procmesh import _EXPOSITION_TYPE, ProcessMesh, SocketMesh, _jsonable
from .topology import Topology

__all__ = ["latency_percentiles", "run_soak"]

_DRAIN_TIMEOUT_S = 60.0
_IDLE_CHECK_EVERY_S = 0.05


def latency_percentiles(samples_ms: List[float]) -> Dict[str, float]:
    """p50/p99/p999/max over one latency sample set (milliseconds)."""
    if not samples_ms:
        return {"p50": 0.0, "p99": 0.0, "p999": 0.0, "max": 0.0,
                "samples": 0}
    ordered = sorted(samples_ms)
    last = len(ordered) - 1

    def at(q: float) -> float:
        return ordered[min(last, int(q * len(ordered)))]

    return {
        "p50": at(0.50),
        "p99": at(0.99),
        "p999": at(0.999),
        "max": ordered[-1],
        "samples": len(ordered),
    }


class _StableSubscriber:
    """A run-long subscriber: counts deliveries, checks uniqueness and
    measures the publisher-stamp → handler latency per event, kept per
    phase.  Once the harness attaches :attr:`histogram` (after warm-up),
    every latency sample also lands in the registry's fixed-bucket
    histogram — the source of the report's p50/p99/p999."""

    def __init__(self, peer: TpsPeer, shard_id: str,
                 phase: Optional[Dict[str, Any]] = None):
        self.peer = peer
        self.shard_id = shard_id
        self.received = 0
        self.duplicates = 0
        self.seen = set()
        self.histogram = None
        # Shared phase box ({"active": bool, "until": monotonic s}): set
        # by the harness around membership ops so each sample lands in
        # the right per-phase bucket.
        self.phase = phase
        self.phase_latencies: Dict[str, List[float]] = {
            "steady": [], "migration": []}

    def deliver(self, event: Any) -> None:
        name = event.getPersonName()
        seq, _, rest = name.partition("|")
        stamp, _, _ = rest.partition("|")
        now = time.monotonic_ns()
        self.received += 1
        if seq in self.seen:
            self.duplicates += 1
        else:
            self.seen.add(seq)
        try:
            latency_ms = (now - int(stamp)) / 1e6
        except ValueError:
            return  # malformed stamp: latency lost, the count still stands
        if self.phase is not None:
            migrating = (self.phase["active"]
                         or now / 1e9 < self.phase["until"])
            self.phase_latencies[
                "migration" if migrating else "steady"].append(latency_ms)
        if self.histogram is not None:
            self.histogram.observe(latency_ms)


def _shard_picker(shard_ids: List[str], skew: str, zipf_s: float,
                  rng: random.Random):
    """Uniform or Zipf-ranked shard selection for publishes and churn."""
    if skew == "zipf":
        weights = [1.0 / (rank + 1) ** zipf_s
                   for rank in range(len(shard_ids))]
        return lambda: rng.choices(shard_ids, weights=weights)[0]
    if skew != "uniform":
        raise ValueError("skew must be 'uniform' or 'zipf', got %r" % skew)
    return lambda: rng.choice(shard_ids)


def run_soak(shards: int = 4,
             duration_s: float = 5.0,
             payload_bytes: int = 64,
             publishers: int = 2,
             subscribers: int = 3,
             churners: int = 2,
             churn_every: int = 50,
             burst: int = 10,
             skew: str = "uniform",
             zipf_s: float = 1.2,
             seed: int = 0,
             processes: bool = True,
             log_root: Optional[str] = None,
             http_file: Optional[str] = None,
             name: str = "soak",
             scheme: str = "unix",
             expand_to: Optional[int] = None,
             leaves: int = 0,
             durable: bool = False,
             replication_factor: int = 0,
             migration_window_s: float = 1.0) -> Dict[str, Any]:
    """Run one soak; returns the report dict (see module docstring).

    ``processes=True`` runs one shard per OS process
    (:class:`ProcessMesh`); ``False`` keeps every shard in-process on one
    :class:`SocketHub` — same sockets, cheaper setup, fully
    deterministic pumping.

    ``scheme`` selects the shard transport: ``"unix"`` (domain sockets
    in the mesh's socket directory) or ``"tcp"`` (loopback, driver-picked
    ports) — the CI smoke jobs run one soak under each.

    ``http_file`` additionally serves the harness's own metrics registry
    (loss-oracle gauges, the latency histogram, the driver transport)
    over HTTP and writes a JSON map ``{"driver": url, "shards": {...}}``
    to that path, so an external watcher (the CI smoke job) can scrape a
    live run mid-flight.

    ``expand_to=N`` grows the mesh to ``N`` shards during the publish
    window (one :meth:`add_shard` + :meth:`rebalance` per joiner, spread
    over the window); ``leaves=K`` then removes ``K`` shards live.
    Removals need ``durable=True`` — plain remote subscriptions die with
    their home shard, durable ones hand off — which in turn needs a
    ``log_root`` (a private temporary one is made when none is given).
    Each latency sample is phase-tagged: everything from the start of a
    membership op until ``migration_window_s`` after it commits counts
    as ``migration``, the rest as ``steady``."""
    if expand_to is not None and expand_to < shards:
        raise ValueError("expand_to=%d is below the starting %d shards"
                         % (expand_to, shards))
    joins = (expand_to - shards) if expand_to is not None else 0
    if leaves and not durable:
        raise ValueError("leaves=%d needs durable=True: non-durable "
                         "subscriptions die with their home shard"
                         % leaves)
    if leaves >= shards + joins:
        raise ValueError("leaves=%d would empty the mesh" % leaves)
    own_log_root = None
    if (durable or replication_factor) and log_root is None:
        import tempfile

        own_log_root = tempfile.mkdtemp(prefix=name + "-logs-")
        log_root = own_log_root
    rng = random.Random(seed)
    pick_shard = None
    mesh: Any = None
    report: Dict[str, Any] = {
        "config": {
            "shards": shards, "duration_s": duration_s,
            "payload_bytes": payload_bytes, "publishers": publishers,
            "subscribers": subscribers, "churners": churners,
            "churn_every": churn_every, "burst": burst, "skew": skew,
            "zipf_s": zipf_s, "seed": seed, "processes": processes,
            "scheme": scheme, "expand_to": expand_to, "leaves": leaves,
            "durable": durable, "replication_factor": replication_factor,
        },
    }
    topology = Topology.sized(shards, name)
    if processes:
        mesh = ProcessMesh(topology=topology, log_root=log_root,
                           scheme=scheme,
                           replication_factor=replication_factor)
        driver = mesh.network
    else:
        mesh = SocketMesh(topology=topology, log_root=log_root,
                          scheme=scheme,
                          replication_factor=replication_factor)
        driver = mesh.client_network(name + "-driver")
    try:
        shard_ids = list(mesh.shard_ids)
        pick_shard = _shard_picker(shard_ids, skew, zipf_s, rng)
        published = 0
        http_server: Optional[ObsHttpServer] = None
        #: The subscribing peers: their handlers consume every delivery,
        #: so the pump empties their inboxes, which nothing reads.
        consumers: List[TpsPeer] = []

        def pump() -> None:
            driver.poll(0.001)
            if not processes:
                mesh.flush()
            if http_server is not None:
                http_server.poll()
            for peer in consumers:
                peer.inbox.clear()

        asm_a, _ = person_assembly_pair()
        pub_peers = []
        for index in range(publishers):
            peer = TpsPeer("%s-pub-%d" % (name, index), driver)
            peer.host_assembly(asm_a)
            pub_peers.append(peer)

        phase = {"active": False, "until": 0.0}
        membership_ops: List[Dict[str, Any]] = []
        stable: List[_StableSubscriber] = []
        for index in range(subscribers):
            peer = TpsPeer("%s-sub-%d" % (name, index), driver)
            subscriber = _StableSubscriber(
                peer, shard_ids[index % len(shard_ids)], phase=phase)
            if durable:
                peer.subscribe_durable_remote(
                    subscriber.shard_id, person_java(), subscriber.deliver,
                    cursor="%s-cursor-%d" % (name, index))
            else:
                peer.subscribe_remote(subscriber.shard_id, person_java(),
                                      subscriber.deliver)
            stable.append(subscriber)

        churn_peers = [TpsPeer("%s-churn-%d" % (name, index), driver)
                       for index in range(churners)]
        consumers.extend([subscriber.peer for subscriber in stable]
                         + churn_peers)
        churn_subs: Dict[int, tuple] = {}
        churn_ops = 0

        # The harness's own registry: the loss oracle as gauges, the
        # end-to-end latency histogram, and the driver node's transport.
        registry = MetricsRegistry()
        latency_hist = registry.histogram(
            "soak.latency_ms", "publisher-stamp to handler latency (ms)")
        registry.counter("soak.published", "events published",
                         sample=lambda: published)
        registry.counter("soak.delivered", "stable-subscriber deliveries",
                         sample=lambda: sum(s.received for s in stable))
        registry.gauge("soak.duplicates",
                       "oracle violations: events seen twice",
                       sample=lambda: sum(s.duplicates for s in stable))
        lost_gauge = registry.gauge(
            "soak.lost", "oracle violations: events missing after drain")
        registry.counter("soak.churn_ops", "subscribe/unsubscribe cycles",
                         sample=lambda: churn_ops)
        register_network_metrics(registry, driver)

        if http_file is not None:
            import json as _json

            http_server = ObsHttpServer(token=mesh.auth_token)
            http_server.route(
                "GET", "/metrics",
                lambda query, body: (_EXPOSITION_TYPE, registry.exposition(
                    extra_labels=(("node", "driver"),)).encode("utf-8")))
            http_server.route(
                "GET", "/stats",
                lambda query, body: _jsonable({
                    "published": published,
                    "delivered": sum(s.received for s in stable),
                    "duplicates": sum(s.duplicates for s in stable),
                    "churn_ops": churn_ops,
                }))
            # "mesh" answers /mesh/* for every shard: any shard node of a
            # process mesh, the one endpoint of an in-process mesh.
            endpoints: Dict[str, Any] = {"driver": http_server.address}
            if processes:
                endpoints["shards"] = mesh.http_addresses()
                endpoints["mesh"] = endpoints["shards"][shard_ids[0]]
            else:
                endpoints["mesh"] = mesh.serve_http().address
            with open(http_file, "w", encoding="utf-8") as handle:
                _json.dump(endpoints, handle, indent=2)
                handle.write("\n")

        def churn_step() -> None:
            nonlocal churn_ops
            if not churn_peers:
                return
            index = rng.randrange(len(churn_peers))
            peer = churn_peers[index]
            active = churn_subs.pop(index, None)
            if active is not None:
                shard_id, subscription_id = active
                peer.unsubscribe_remote(shard_id, subscription_id)
            shard_id = pick_shard()
            subscription_id = peer.subscribe_remote(
                shard_id, person_java(), lambda event: None)
            churn_subs[index] = (shard_id, subscription_id)
            churn_ops += 1

        # Membership ops fire at evenly spaced fractions of the publish
        # window: joins first (each followed by a rebalance), leaves
        # after, so the mesh peaks at ``expand_to`` before shrinking.
        plan: List[str] = ["add"] * joins + ["remove"] * leaves
        op_count = len(plan)

        def refresh_picker(exclude: Optional[str] = None) -> None:
            nonlocal shard_ids, pick_shard
            shard_ids = [sid for sid in mesh.shard_ids if sid != exclude]
            pick_shard = _shard_picker(shard_ids, skew, zipf_s, rng)

        def membership_step(op: str, at_s: float) -> None:
            phase["active"] = True
            try:
                if op == "add":
                    shard = mesh.add_shard().peer_id
                    mesh.rebalance()
                    refresh_picker()
                else:
                    shard = rng.choice(list(mesh.shard_ids))
                    # Publishes stop targeting the leaver BEFORE its
                    # retirement starts; churn subscriptions on it die
                    # with the shard, so drop the unsubscribe debt.
                    refresh_picker(exclude=shard)
                    for index, active in list(churn_subs.items()):
                        if active[0] == shard:
                            churn_subs.pop(index)
                    mesh.remove_shard(shard)
                    refresh_picker()
            finally:
                phase["active"] = False
                phase["until"] = time.monotonic() + migration_window_s
            membership_ops.append({"op": op, "shard": shard,
                                   "epoch": mesh.epoch,
                                   "at_s": round(at_s, 3)})

        # Warm every (publisher, shard) path so the one-time code fetches
        # happen before the clock starts — the soak measures the
        # steady-state protocol, not the cold start the paper prices
        # separately.
        warmed = 0
        for peer in pub_peers:
            for shard_id in shard_ids:
                peer.publish_async(shard_id, peer.new_instance(
                    "demo.a.Person", ["w%d|0|" % warmed]))
                warmed += 1
        deadline = time.monotonic() + _DRAIN_TIMEOUT_S
        while any(s.received < warmed for s in stable):
            pump()
            if time.monotonic() > deadline:
                raise NetworkError("soak warm-up did not drain")
        for subscriber in stable:
            subscriber.received = 0
            subscriber.seen.clear()
            for bucket in subscriber.phase_latencies.values():
                bucket.clear()
            # Measurement starts here: warm-up samples never reach the
            # histogram (it has no reset).
            subscriber.histogram = latency_hist

        padding = "x" * max(0, payload_bytes - 32)
        next_op = 0
        start = time.monotonic()
        while time.monotonic() - start < duration_s:
            for peer in pub_peers:
                target = pick_shard()
                for _ in range(burst):
                    stamp = time.monotonic_ns()
                    event = peer.new_instance(
                        "demo.a.Person",
                        ["%d|%d|%s" % (published, stamp, padding)])
                    peer.publish_async(target, event)
                    published += 1
            pump()
            elapsed_s = time.monotonic() - start
            if next_op < op_count and \
                    elapsed_s >= duration_s * (next_op + 1) / (op_count + 1):
                membership_step(plan[next_op], elapsed_s)
                next_op += 1
            if churn_every and published % (churn_every * burst) < burst:
                churn_step()
        # A window too short for its schedule still honours the
        # expand_to/leaves contract: run the leftover ops now.
        while next_op < op_count:
            membership_step(plan[next_op], time.monotonic() - start)
            next_op += 1
        publish_elapsed = time.monotonic() - start

        # Drain to quiescence: every stable subscriber holds every event.
        deadline = time.monotonic() + _DRAIN_TIMEOUT_S
        last_idle_check = 0.0
        while True:
            pump()
            if all(s.received >= published for s in stable):
                now = time.monotonic()
                if now - last_idle_check >= _IDLE_CHECK_EVERY_S:
                    last_idle_check = now
                    if mesh.all_idle() and driver.idle():
                        break
            if time.monotonic() > deadline:
                break  # report the loss instead of raising
        elapsed = time.monotonic() - start

        delivered = sum(subscriber.received for subscriber in stable)
        expected = published * len(stable)
        lost_gauge.set(max(0, expected - delivered))
        transport = {"driver": driver.transport_snapshot()}
        transport.update(mesh.transport_stats())
        report.update({
            "published": published,
            "expected_deliveries": expected,
            "deliveries": delivered,
            "lost": max(0, expected - delivered),
            "duplicates": sum(s.duplicates for s in stable),
            "churn_ops": churn_ops,
            "publish_elapsed_s": round(publish_elapsed, 3),
            "elapsed_s": round(elapsed, 3),
            "publish_eps": round(published / publish_elapsed, 1)
            if publish_elapsed else 0.0,
            "delivery_eps": round(delivered / elapsed, 1)
            if elapsed else 0.0,
            "latency_ms": latency_hist.labels().percentiles(),
            "latency_phases": {
                label: latency_percentiles(
                    [sample for subscriber in stable
                     for sample in subscriber.phase_latencies[label]])
                for label in ("steady", "migration")},
            "membership_ops": membership_ops,
            "epoch": mesh.epoch,
            "per_subscriber": {
                subscriber.peer.peer_id: {
                    "shard": subscriber.shard_id,
                    "received": subscriber.received,
                    "duplicates": subscriber.duplicates,
                }
                for subscriber in stable
            },
            "transport": transport,
            "metrics": _jsonable({
                "driver": registry.snapshot(),
                "shards": mesh.metrics_snapshots(),
            }),
        })
        return report
    finally:
        mesh.close()
        if own_log_root is not None:
            import shutil

            shutil.rmtree(own_log_root, ignore_errors=True)
