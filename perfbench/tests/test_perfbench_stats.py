"""Exact percentiles from raw samples, each with its sample count."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pytest  # noqa: E402

from perf_stats import (  # noqa: E402
    beyond,
    latency_summary,
    nearest_rank,
    supported,
    tail,
)


def test_nearest_rank_reads_the_samples_themselves():
    ordered = [float(v) for v in range(1, 101)]  # 1..100
    assert nearest_rank(ordered, 50) == 50.0
    assert nearest_rank(ordered, 99) == 99.0
    assert nearest_rank(ordered, 99.5) == 100.0
    assert nearest_rank(ordered, 100) == 100.0
    assert nearest_rank([], 50) is None
    with pytest.raises(ValueError):
        nearest_rank(ordered, 0)


def test_values_are_exact_not_bucketed():
    # Distinct values a fixed-bucket histogram would round together.
    samples = [50.0 + i / 1000.0 for i in range(1000)]
    summary = latency_summary(reversed(samples))
    assert summary["p50"]["value"] == pytest.approx(50.499)
    assert summary["p99"]["value"] == pytest.approx(50.989)
    assert summary["p99"]["value"] != summary["p90"]["value"]


def test_only_percentiles_with_ten_samples_beyond_are_reported():
    summary = latency_summary(range(100))
    assert list(summary) == ["p50", "p90"]  # p95 has only 5 beyond
    assert summary["p90"]["beyond"] == 10
    assert all(entry["samples"] == 100 for entry in summary.values())
    assert tail(summary) == "p90"
    assert summary["p90"]["pct"] == 90.0

    summary = latency_summary(range(10_000))
    assert list(summary) == ["p50", "p90", "p95", "p99", "p999"]
    assert summary["p999"]["beyond"] == 10
    assert tail(summary) == "p999"

    assert latency_summary([]) == {}
    assert tail({}) is None


def test_beyond_and_supported():
    assert beyond(1000, 99) == 10
    assert supported(1000, 99)
    assert not supported(999, 99)
    assert beyond(0, 50) == 0
