"""Host-speed scaling, adding up rounds, and the rounds' world builds."""

import os
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from array import array  # noqa: E402

import pytest  # noqa: E402

import perf_host  # noqa: E402
import perf_workloads as workloads  # noqa: E402


def test_reference_loop_takes_time_and_keeps_the_collector_state():
    import gc

    assert gc.isenabled()
    assert perf_host.reference_s() > 0.0
    assert gc.isenabled()
    gc.disable()
    try:
        perf_host.reference_s()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_scale_factors_take_a_slow_stretch_back_to_nominal_speed():
    nominal = perf_host.NOMINAL_S
    refs = [nominal] * 5 + [2 * nominal] * 11 + [nominal] * 5
    factors = perf_host.scale_factors(refs, span=2)
    assert factors[0] == pytest.approx(1.0)
    assert factors[10] == pytest.approx(0.5)  # twice as slow: halve times
    assert factors[-1] == pytest.approx(1.0)


def test_scale_factors_ignore_one_outlying_sample():
    nominal = perf_host.NOMINAL_S
    refs = [nominal] * 4 + [10 * nominal] + [nominal] * 4
    assert perf_host.scale_factors(refs, span=2)[4] == pytest.approx(1.0)


def _measurement(items, refs, notes):
    out = workloads.Measurement()
    out.items = items
    out.busy_s = items / 100.0
    out.refs = list(refs)
    out.windows = [(items, out.busy_s, [1.0], len(refs) - 1)]
    out.latencies_ms = array("d", [1.0])
    out.notes = dict(notes)
    return out


def test_absorb_adds_rounds_up():
    first = _measurement(10, [0.1, 0.2], {
        "replayed": 5, "replay_s": 0.5, "drained": True,
        "wire_digest": "aa", "first_block_bytes": 7, "late_ms": [1.0]})
    second = _measurement(30, [0.3], {
        "replayed": 6, "replay_s": 0.25, "drained": False,
        "wire_digest": "aa", "first_block_bytes": 7, "late_ms": [2.0]})
    total = workloads.Measurement().absorb(first).absorb(second)
    assert total.items == 40
    assert total.busy_s == pytest.approx(0.4)
    assert total.refs == [0.1, 0.2, 0.3]
    # Window reference indices follow the samples they were taken with.
    assert [window[3] for window in total.windows] == [1, 2]
    assert total.notes["replayed"] == 11
    assert total.notes["replay_s"] == pytest.approx(0.75)
    assert total.notes["drained"] is False
    assert total.notes["first_block_bytes"] == 7  # describes the world
    assert total.notes["late_ms"] == [1.0, 2.0]


def test_durable_rounds_each_build_a_world(tmp_path):
    sys.path.insert(0, HERE)
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perfbench_run_rounds", os.path.join(HERE, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)

    setups = []
    measured = 0
    for world, left in run.measured_worlds(workloads.DurableWorkload, 5, 0.05,
                                           str(tmp_path), setups):
        assert left > 0
        measured += 1
        world.measure(left, workloads.Gate())
    # A round outlasts 0.05 s: one world, built once and measured once.
    assert measured == 1 and len(setups) == 1

    setups = []
    worlds = list(run.measured_worlds(workloads.SocketWorkload, 5, 0.0,
                                      str(tmp_path / "sock"), setups,
                                      builds=2))
    assert len(worlds) == 1 and len(setups) == 2
