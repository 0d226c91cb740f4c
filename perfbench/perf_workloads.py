"""The benchmark's three workloads, their correctness oracles and counters.

Every workload runs in one process on one thread and builds its inputs
from a seed.  A workload object owns one world: ``__init__`` builds it
(mesh, peers, subscriptions) and warms it up, :meth:`measure` drives the
timed traffic and checks every delivery, :meth:`counters` reads the
program's own counters and :meth:`close` releases files and sockets.

- ``fanout``: the forwarding-heavy reference world on the simulated
  network, 4 shards, ``replication_factor=2``, durable logs, 250
  subscriber peers with 4 subscriptions each.  Closed loop: bursts of 8
  events, each burst drained before the next; 90% of events are homed
  away from the publisher's shard.  Item = one delivery.
- ``durable``: 4 shards, ``replication_factor=2``, logs fsync every 8
  appends, one durable subscriber per shard.  Closed loop with one batch
  in flight: 50-value ``publish_durable`` batches, each waiting for its
  ``publish_ack``.  Afterwards a late durable subscriber replays the whole
  backlog.  A world does a fixed amount of this (one round); a run
  measures round after round, each on a freshly built world, so memory
  and replay size do not grow with the host's speed.  Item = one
  published value.
- ``socket``: 2 shards on an in-process ``SocketMesh`` over Unix domain
  sockets.  Open loop: 150 single-event publishes per second to
  seeded-random shards, 8 stable subscribers, and two churn peers doing
  2 subscribe/unsubscribe cycles per second on a fixed schedule.  The
  driver polls without waiting.  Latency counts from each publish's due
  time.  Item = one delivery.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import time
from array import array
from collections import Counter
from typing import Any, Dict, List

from repro.apps.tps import BrokerMesh, TpsPeer
from repro.apps.tps import broker as tps_broker
from repro.apps.tps import pipeline as tps_pipeline
from repro.apps.tps.procmesh import SocketMesh
from repro.apps.tps.topology import Topology
from repro.fixtures import (
    person_assembly_pair,
    person_csharp,
    person_java,
    person_vb,
)
from repro.net.network import SimulatedNetwork

from perf_host import reference_s

__all__ = ["WORKLOADS", "Gate", "Measurement"]

PERSON = "demo.a.Person"

#: Subscriber interest factories (rename, case-policy and identical-
#: structure matches) with the getter each one's view exposes.
EXPECTED = ((person_java, "getPersonName"),
            (person_vb, "GetName"),
            (person_csharp, "GetName"))


class Gate:
    """Marks the timed regions of a measurement.

    Wall time accumulates only between :meth:`open` and :meth:`close`;
    ``on_open``/``on_close`` let a tracer record the same regions.
    Oracle checks run outside them."""

    def __init__(self, on_open=None, on_close=None):
        self.wall_ns = 0
        self._on_open = on_open
        self._on_close = on_close
        self._wall = 0

    def open(self) -> None:
        if self._on_open is not None:
            self._on_open()
        self._wall = time.perf_counter_ns()

    def close(self) -> None:
        self.wall_ns += time.perf_counter_ns() - self._wall
        if self._on_close is not None:
            self._on_close()


class Measurement:
    """What one timed run produced.

    Besides run totals, a closed-loop run is cut into short windows
    (``windows``: items, seconds, latency samples and the index in
    ``refs`` of the host reference sample taken just before, each) from
    which its end-to-end figures come; see ``run.scaled_figures``."""

    #: Notes that describe the world, not the work: kept from the first
    #: measurement when several are added up.
    KEEP_FIRST = ("wire_digest", "first_block_bytes")

    def __init__(self):
        self.items = 0            # deliveries or published values
        self.busy_s = 0.0         # seconds those items took
        self.attempted = 0        # oracle items attempted
        self.failed = 0           # lost + duplicated + wrong + unacked
        # Samples as raw doubles: a run's memory should not grow with how
        # many items a fast stretch of the host let it time.
        self.latencies_ms = array("d")
        self.windows: List[tuple] = []
        self.deliveries = 0
        self.wire_bytes = 0
        self.messages = 0
        self.notes: Dict[str, Any] = {}  # counts, flags, sample lists
        self.refs: List[float] = []  # host reference samples (perf_host)

    def mark(self, gate: Gate) -> tuple:
        """Where a window starts: a host reference sample (taken outside
        the gate), then items, gated wall time and samples so far."""
        self.refs.append(reference_s())
        return self.items, gate.wall_ns, len(self.latencies_ms)

    def close_window(self, mark: tuple, gate: Gate) -> None:
        items, wall_ns, samples = mark
        self.windows.append((self.items - items,
                             (gate.wall_ns - wall_ns) / 1e9,
                             self.latencies_ms[samples:],
                             len(self.refs) - 1))

    def absorb(self, other: "Measurement") -> "Measurement":
        """Add another world's measurement of the same workload to this
        one: totals and counts add up, samples, windows and lists join,
        flags must all hold."""
        offset = len(self.refs)
        self.refs += other.refs
        self.windows += [(items, seconds, samples, ref + offset)
                         for items, seconds, samples, ref in other.windows]
        self.latencies_ms += other.latencies_ms
        for name in ("items", "busy_s", "attempted", "failed", "deliveries",
                     "wire_bytes", "messages"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for key, value in other.notes.items():
            if key not in self.notes:
                self.notes[key] = value
            elif key in self.KEEP_FIRST:
                continue
            elif isinstance(value, bool):
                self.notes[key] = self.notes[key] and value
            else:
                self.notes[key] = self.notes[key] + value
        return self


class _Inbox:
    """A subscriber handler: records the name each view reports and when."""

    __slots__ = ("getter", "names", "stamps")

    def __init__(self, getter: str):
        self.getter = getter
        self.names: List[str] = []
        self.stamps: List[int] = []

    def __call__(self, view: Any) -> None:
        self.names.append(getattr(view, self.getter)())
        self.stamps.append(time.perf_counter_ns())

    def clear(self) -> None:
        self.names.clear()
        self.stamps.clear()


def _mismatch(got: Counter, expected: Counter) -> int:
    """Lost + duplicated + unexpected items between two multisets."""
    return sum(((got - expected) + (expected - got)).values())


def _wire_digest(log) -> str:
    digest = hashlib.sha256()
    for src, dst, kind, size in log:
        digest.update(("%s>%s:%s:%d;" % (src, dst, kind, size)).encode())
    return digest.hexdigest()[:16]


class _SimulatedMeshWorkload:
    """Shared parts of the two simulated-network workloads."""

    def _start_mesh(self, workdir: str, **mesh_kwargs) -> None:
        # Durable-publish tokens and ack-token epochs come from
        # process-wide counters; restart them so a world's wire bytes
        # depend on its seed alone, not on how many worlds this process
        # built before (a closed world's tokens never meet a new one's).
        tps_broker._PUBLISH_SEQ = itertools.count(1)
        tps_pipeline._EPOCH = itertools.count(1)
        self.network = SimulatedNetwork()
        self.mesh = BrokerMesh(self.network,
                               topology=Topology.sized(4, "mesh"),
                               log_root=workdir, replication_factor=2,
                               **mesh_kwargs)
        self.publisher = TpsPeer("publisher", self.network)
        self.publisher.host_assembly(person_assembly_pair()[0])
        self.home = self.mesh.shard_for("publisher")
        self.others = [sid for sid in self.mesh.shard_ids if sid != self.home]

    def _block(self, rng: random.Random, size: int) -> List[str]:
        """One schedule block: a tenth of the sends to the publisher's
        home shard, the rest spread evenly over the other shards, in
        seeded-random order."""
        home = size // 10
        rest = size - home
        block = [self.home] * home + self.others * (rest // len(self.others))
        block += rng.sample(self.others, rest % len(self.others))
        rng.shuffle(block)
        return block

    def side_of(self, peer: Any) -> str:
        if peer is self.publisher:
            return "pub"
        return "shard" if peer in self.mesh.shards else "sub"

    def shard_decodes(self) -> int:
        return sum(shard.codec.stats.decodes for shard in self.mesh.shards)

    def counters(self) -> Dict[str, float]:
        shards = self.mesh.shards
        appended = sum(s.event_log.appended for s in shards if s.event_log)
        fsyncs = sum(s.event_log.fsyncs for s in shards if s.event_log)
        hits = sum(s.index.stats.hits for s in shards)
        misses = sum(s.index.stats.misses for s in shards)
        return {
            "fsyncs": fsyncs, "appends": appended,
            "verdict_hits": hits, "verdict_lookups": hits + misses,
            "bytes_copied": 0, "queue_high_water": 0, "frames_lost": 0,
        }

    def close(self) -> None:
        self.mesh.close()


class FanoutWorkload(_SimulatedMeshWorkload):
    name = "fanout"
    SETUPS = 5  # world builds per run; setup_s is their median
    ROUNDS = False  # the last world built is measured for the whole run
    OPEN_LOOP = False
    PEERS = 250
    SUBS_PER_PEER = 4
    BURST = 8
    BLOCK = 40  # five bursts; runs end on block boundaries

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self._start_mesh(workdir)
        self.inboxes: List[_Inbox] = []
        self.subscribers: List[TpsPeer] = []
        for index in range(self.PEERS):
            peer = TpsPeer("sub%03d" % index, self.network)
            inbox = _Inbox(EXPECTED[index % 3][1])
            home = self.mesh.shard_for(peer.peer_id)
            for s in range(self.SUBS_PER_PEER):
                peer.subscribe_remote(home, EXPECTED[(index + s) % 3][0](),
                                      inbox)
            self.subscribers.append(peer)
            self.inboxes.append(inbox)
        self.block = self._block(rng, self.BLOCK)
        self.sequence = 0
        # Warm-up: one block pays the one-time code and description
        # fetches; its wire log is the determinism digest.
        warm = Measurement()
        self._run_block(warm, Gate())
        self.notes = {"warmup_failed": warm.failed,
                      "wire_digest": _wire_digest(self.network.log)}
        self.network.log_enabled = False
        self.network.reset_accounting()

    def _run_block(self, out: Measurement, gate: Gate) -> None:
        publisher = self.publisher
        for start in range(0, self.BLOCK, self.BURST):
            names = ["e%08d" % (self.sequence + k) for k in range(self.BURST)]
            self.sequence += self.BURST
            mark = out.mark(gate)
            gate.open()
            began = time.perf_counter_ns()
            for dst, name in zip(self.block[start:start + self.BURST], names):
                publisher.publish_async(
                    dst, publisher.new_instance(PERSON, [name]))
            self.mesh.run_until_idle()
            gate.close()
            # A peer's subscriptions share one delivery per event.
            expected = Counter(names)
            for inbox in self.inboxes:
                out.failed += _mismatch(Counter(inbox.names), expected)
                out.deliveries += len(inbox.names)
                out.latencies_ms.extend(
                    (stamp - began) / 1e6 for stamp in inbox.stamps)
                inbox.clear()
            for peer in self.subscribers:
                peer.inbox.clear()  # the application consumed them
            out.attempted += len(names) * self.PEERS
            out.items = out.deliveries
            out.close_window(mark, gate)  # one burst is one window

    def measure(self, seconds: float, gate: Gate) -> Measurement:
        out = Measurement()
        decodes = self.shard_decodes()
        deadline = time.perf_counter() + seconds
        while True:
            self._run_block(out, gate)
            out.notes.setdefault("first_block_bytes",
                                 self.network.stats.bytes_sent)
            if time.perf_counter() >= deadline:
                break
        out.busy_s = gate.wall_ns / 1e9
        out.wire_bytes = self.network.stats.bytes_sent
        out.messages = self.network.stats.messages
        out.notes["shard_live_decodes"] = self.shard_decodes() - decodes
        out.notes.update(self.notes)
        return out

    def codec_peers(self):
        return list(self.mesh.shards) + self.subscribers + [self.publisher]


class _Tally:
    """A durable subscriber's handler that counts values by sequence
    number (names ``v%08d``) instead of keeping them, so its memory stays
    flat however long the run is."""

    __slots__ = ("counts", "bad", "received")

    def __init__(self):
        self.counts = bytearray()
        self.bad = 0
        self.received = 0

    def __call__(self, view: Any) -> None:
        self.received += 1
        name = view.getPersonName()
        if len(name) != 9 or name[0] != "v" or not name[1:].isdigit():
            self.bad += 1
            return
        seq = int(name[1:])
        if seq >= len(self.counts):
            self.counts.extend(bytes(seq + 1 - len(self.counts) + 4096))
        if self.counts[seq] < 255:
            self.counts[seq] += 1

    def settle(self, low: int, high: int) -> int:
        """Failures against "each of ``low..high-1`` exactly once" (lost,
        duplicated or wrong items), then forget everything counted."""
        failed = self.bad
        for seq, count in enumerate(self.counts):
            failed += abs(count - 1) if low <= seq < high else count
        failed += max(0, high - max(low, len(self.counts)))
        self.counts = bytearray()
        self.bad = 0
        return failed


class DurableWorkload(_SimulatedMeshWorkload):
    name = "durable"
    ROUNDS = True  # every world measures one round; setup_s: their median
    OPEN_LOOP = False
    BATCH = 50
    BLOCK = 10  # batches per schedule block
    ROUND_BLOCKS = 4  # blocks per world: 2000 values, then their replay

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self._start_mesh(workdir, log_kwargs={"fsync_every_n": 8})
        self.tallies: List[_Tally] = []
        self.subscribers: List[TpsPeer] = []
        for index, shard_id in enumerate(self.mesh.shard_ids):
            peer = TpsPeer("dsub%d" % index, self.network)
            tally = _Tally()
            peer.subscribe_durable_remote(shard_id, person_java(), tally,
                                          cursor="bench-%d" % index)
            self.subscribers.append(peer)
            self.tallies.append(tally)
        self.mesh.run_until_idle()
        self.block = self._block(rng, self.BLOCK)
        self.replay_shard = rng.choice(self.mesh.shard_ids)
        self.sequence = 0
        warm = Measurement()
        self._run_block(warm, Gate())
        self._drain_and_check(warm, Gate(), 0)
        self.notes = {"warmup_failed": warm.failed,
                      "wire_digest": _wire_digest(self.network.log)}
        self.network.log_enabled = False
        self.network.reset_accounting()

    def _publish_acked(self, dst: str) -> bool:
        publisher = self.publisher
        values = [publisher.new_instance(PERSON, ["v%08d" % seq])
                  for seq in range(self.sequence, self.sequence + self.BATCH)]
        self.sequence += self.BATCH
        token = publisher.publish_durable(dst, values)
        while token in publisher.unacked_publishes():
            if not self.mesh.flush() and not self.network.pending():
                return False  # idle without an ack: it never comes
        return True

    def _run_block(self, out: Measurement, gate: Gate) -> None:
        for dst in self.block:
            gate.open()
            began = time.perf_counter_ns()
            acked = self._publish_acked(dst)
            ended = time.perf_counter_ns()
            gate.close()
            out.attempted += self.BATCH
            if acked:
                out.items += self.BATCH
                out.latencies_ms.append((ended - began) / 1e6)
            else:
                out.failed += self.BATCH
        # The application consumes what it received; the peer's inbox
        # would otherwise keep every delivered object alive.
        for peer in self.subscribers:
            peer.inbox.clear()

    def _drain_and_check(self, out: Measurement, gate: Gate,
                         low: int) -> None:
        """Drain the live deliveries; every durable subscriber must hold
        each value published from sequence ``low`` on exactly once."""
        gate.open()
        self.mesh.run_until_idle()
        gate.close()
        for tally in self.tallies:
            out.failed += tally.settle(low, self.sequence)
            out.deliveries += tally.received
            out.attempted += self.sequence - low
            tally.received = 0
        for peer in self.subscribers:
            peer.inbox.clear()

    def measure(self, seconds: float, gate: Gate) -> Measurement:
        """One round: ``ROUND_BLOCKS`` blocks (fewer if ``seconds`` run
        out first), the drain, then the replay of the whole backlog."""
        out = Measurement()
        decodes = self.shard_decodes()
        low = self.sequence
        deadline = time.perf_counter() + seconds
        for _ in range(self.ROUND_BLOCKS):
            mark = out.mark(gate)
            self._run_block(out, gate)  # one block is one window
            out.close_window(mark, gate)
            out.notes.setdefault("first_block_bytes",
                                 self.network.stats.bytes_sent)
            if time.perf_counter() >= deadline:
                break
        self._drain_and_check(out, gate, low)
        out.wire_bytes = self.network.stats.bytes_sent
        out.messages = self.network.stats.messages
        out.notes["shard_live_decodes"] = self.shard_decodes() - decodes
        out.busy_s = gate.wall_ns / 1e9  # the replay is reported apart

        # Replay: a late durable subscriber reads the whole backlog.
        late = TpsPeer("late", self.network)
        tally = _Tally()
        before = gate.wall_ns
        gate.open()
        late.subscribe_durable_remote(self.replay_shard, person_java(),
                                      tally, cursor="bench-late")
        self.mesh.run_until_idle()
        gate.close()
        out.failed += tally.settle(0, self.sequence)
        out.attempted += self.sequence
        out.notes["replayed"] = tally.received
        out.notes["replay_s"] = (gate.wall_ns - before) / 1e9
        self.subscribers.append(late)
        out.notes.update(self.notes)
        return out

    def codec_peers(self):
        return list(self.mesh.shards) + self.subscribers + [self.publisher]


class SocketWorkload:
    name = "socket"
    SETUPS = 9  # world builds per run; setup_s is their median
    ROUNDS = False  # the last world built is measured for the whole run
    OPEN_LOOP = True
    SHARDS = 2
    # Publishes per second: at 300/s the mesh ran at about 60% of one
    # core here, and the host's slow stretches pushed it into queueing.
    RATE = 150.0
    SUBSCRIBERS = 8
    CHURNERS = 2
    CHURN_RATE = 2.0     # subscribe/unsubscribe cycles per second
    DRAIN_TIMEOUT_S = 30.0

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        os.makedirs(workdir, exist_ok=True)
        self.mesh = SocketMesh(topology=Topology.sized(self.SHARDS, "sock"),
                               sock_dir=workdir, scheme="unix")
        self.driver = self.mesh.client_network("bench-driver")
        self.publisher = TpsPeer("spub", self.driver)
        self.publisher.host_assembly(person_assembly_pair()[0])
        shard_ids = self.mesh.shard_ids
        self.inboxes: List[_Inbox] = []
        self.subscribers: List[TpsPeer] = []
        for index in range(self.SUBSCRIBERS):
            peer = TpsPeer("ssub%d" % index, self.driver)
            inbox = _Inbox("getPersonName")
            peer.subscribe_remote(shard_ids[index % self.SHARDS],
                                  person_java(), inbox)
            self.subscribers.append(peer)
            self.inboxes.append(inbox)
        self.churners = [TpsPeer("schurn%d" % index, self.driver)
                         for index in range(self.CHURNERS)]
        self._churn_subs: Dict[int, tuple] = {}
        # Warm-up: one event per shard reaches every subscriber.
        names = []
        for index, shard_id in enumerate(shard_ids):
            names.append("w%07d" % index)
            self.publisher.publish_async(
                shard_id, self.publisher.new_instance(PERSON, [names[-1]]))
        warm_failed = 0 if self._drain(len(names)) else 1
        for inbox in self.inboxes:
            warm_failed += _mismatch(Counter(inbox.names), Counter(names))
            inbox.clear()
        self.notes = {"warmup_failed": warm_failed}
        for node in self.mesh.hub.nodes:
            node.stats.reset()

    def side_of(self, peer: Any) -> str:
        if peer is self.publisher:
            return "pub"
        return "shard" if peer in self.mesh.shards else "sub"

    def _pump(self) -> None:
        """One pump of the whole fabric without waiting: what
        ``SocketMesh.flush`` does minus its 1 ms I/O wait, which would
        otherwise dominate every hop's latency (frames read during the
        wait are only dispatched after it)."""
        self.mesh.hub.poll(0.0)
        for shard in self.mesh.shards:
            shard.flush_delivery()

    def _drain(self, count: int) -> bool:
        deadline = time.monotonic() + self.DRAIN_TIMEOUT_S
        while any(len(inbox.names) < count for inbox in self.inboxes):
            self._pump()
            if time.monotonic() > deadline:
                return False
        return True

    def _churn(self, cycle: int, rtts: List[float]) -> None:
        index = cycle % self.CHURNERS
        peer = self.churners[index]
        active = self._churn_subs.pop(index, None)
        if active is not None:
            peer.unsubscribe_remote(*active)
        shard_id = self.mesh.shard_ids[(cycle // self.CHURNERS) % self.SHARDS]
        began = time.perf_counter_ns()
        subscription = peer.subscribe_remote(shard_id, person_java(),
                                             lambda view: None)
        rtts.append((time.perf_counter_ns() - began) / 1e6)
        self._churn_subs[index] = (shard_id, subscription)

    def shard_decodes(self) -> int:
        return sum(shard.codec.stats.decodes for shard in self.mesh.shards)

    def measure(self, seconds: float, gate: Gate) -> Measurement:
        out = Measurement()
        shard_ids = self.mesh.shard_ids
        publisher = self.publisher
        count = max(1, int(seconds * self.RATE))
        targets = [self.rng.choice(shard_ids) for _ in range(count)]
        period_ns = int(1e9 / self.RATE)
        churn_period_ns = int(1e9 / self.CHURN_RATE)
        cycles = int(seconds * self.CHURN_RATE)
        late_ms: List[float] = []
        rtts: List[float] = []
        decodes = self.shard_decodes()
        gate.open()
        start = time.perf_counter_ns()
        sent = 0
        cycle = 0
        while sent < count:
            now = time.perf_counter_ns() - start
            while sent < count and sent * period_ns <= now:
                late_ms.append((now - sent * period_ns) / 1e6)
                publisher.publish_async(targets[sent], publisher.new_instance(
                    PERSON, ["s%08d" % sent]))
                sent += 1
            if cycle < cycles and \
                    churn_period_ns // 2 + cycle * churn_period_ns <= now:
                self._churn(cycle, rtts)
                cycle += 1
                for peer in self.subscribers:
                    peer.inbox.clear()  # the application consumed them
            self._pump()
        drained = self._drain(count)
        gate.close()
        out.busy_s = gate.wall_ns / 1e9
        expected = Counter("s%08d" % index for index in range(count))
        for inbox in self.inboxes:
            out.failed += _mismatch(Counter(inbox.names), expected)
            out.deliveries += len(inbox.names)
            for name, stamp in zip(inbox.names, inbox.stamps):
                if name not in expected:
                    continue  # counted by the mismatch above
                seq = int(name[1:])
                out.latencies_ms.append(
                    (stamp - start - seq * period_ns) / 1e6)
            inbox.clear()
        out.attempted = count * len(self.inboxes)
        out.items = out.deliveries
        nodes = self.mesh.hub.nodes
        out.wire_bytes = sum(node.stats.bytes_sent for node in nodes)
        out.messages = sum(node.stats.messages for node in nodes)
        out.notes.update({
            "shard_live_decodes": self.shard_decodes() - decodes,
            "churn_cycles": cycle,
            "drained": drained,
        })
        out.notes.update(self.notes)
        out.notes["late_ms"] = late_ms
        out.notes["subscribe_rtt_ms"] = rtts
        return out

    def counters(self) -> Dict[str, float]:
        nodes = self.mesh.hub.nodes
        hits = sum(s.index.stats.hits for s in self.mesh.shards)
        misses = sum(s.index.stats.misses for s in self.mesh.shards)
        return {
            "fsyncs": 0, "appends": 0,
            "verdict_hits": hits, "verdict_lookups": hits + misses,
            "bytes_copied": sum(node.bytes_copied for node in nodes),
            "queue_high_water": max(node.queue_high_water for node in nodes),
            "frames_lost": sum(node.frames_lost for node in nodes),
        }

    def codec_peers(self):
        return (list(self.mesh.shards) + self.subscribers + self.churners
                + [self.publisher])

    def close(self) -> None:
        self.mesh.close()


WORKLOADS = {
    "fanout": FanoutWorkload,
    "durable": DurableWorkload,
    "socket": SocketWorkload,
}
