"""Seeded workloads are reproducible and their oracles catch failures."""

import os
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from collections import Counter  # noqa: E402

import perf_workloads as workloads  # noqa: E402


def build(cls, seed, path):
    world = cls(seed, str(path))
    try:
        return world.block, dict(world.notes), world.network.stats.bytes_sent
    finally:
        world.close()


def test_same_seed_same_schedule_and_wire_bytes(tmp_path):
    for cls in (workloads.DurableWorkload, workloads.FanoutWorkload):
        first = build(cls, 7, tmp_path / (cls.name + "-a"))
        again = build(cls, 7, tmp_path / (cls.name + "-b"))
        assert first == again, cls.name
        assert first[1]["warmup_failed"] == 0


def test_wire_bytes_do_not_depend_on_earlier_worlds(tmp_path):
    """Process-wide token counters far along (as after many rounds in one
    run) must not change a new world's wire bytes."""
    import itertools

    from repro.apps.tps import broker, pipeline

    first = build(workloads.DurableWorkload, 7, tmp_path / "a")
    broker._PUBLISH_SEQ = itertools.count(10 ** 6)
    pipeline._EPOCH = itertools.count(10 ** 6)
    assert build(workloads.DurableWorkload, 7, tmp_path / "b") == first


def test_another_seed_another_schedule(tmp_path):
    first = build(workloads.DurableWorkload, 7, tmp_path / "a")
    other = build(workloads.DurableWorkload, 8, tmp_path / "b")
    assert first[0] != other[0]  # the seed picks the order
    assert first[1]["wire_digest"] != other[1]["wire_digest"]


def test_schedule_blocks_keep_the_home_share(tmp_path):
    world = workloads.DurableWorkload(3, str(tmp_path))
    try:
        counts = Counter(world.block)
        assert counts[world.home] == 1
        assert sorted(counts[sid] for sid in world.others) == [3, 3, 3]
    finally:
        world.close()


class View:
    def __init__(self, name):
        self.name = name

    def getPersonName(self):
        return self.name


def test_tally_counts_lost_duplicated_and_wrong_values():
    tally = workloads._Tally()
    for seq in (0, 1, 1, 3, 9):
        tally(View("v%08d" % seq))
    tally(View("not-a-value"))
    # 0..3 expected once: 2 lost, 1 duplicate, 9 unexpected, 1 malformed.
    assert tally.settle(0, 4) == 1 + 1 + 1 + 1
    assert tally.received == 6
    tally(View("v%08d" % 4))
    assert tally.settle(4, 6) == 1  # 5 never arrived


def test_mismatch_counts_both_directions():
    assert workloads._mismatch(Counter("aab"), Counter("abc")) == 2
    assert workloads._mismatch(Counter("abc"), Counter("abc")) == 0
