"""§7.4 — Conformance testing.

Paper (100 × 1000 verifications on "very simple" types): 12.66 ms per 1000
implicit structural conformance checks ≈ 12.66 µs per check — presented as
"in some sense, a lower bound" since richer types cost more.

Shape to reproduce: a cold structural check costs far more than a proxy
invocation (§7.1) and sits in the same regime as description handling
(§7.2); memoized (warm) checks are near-free.
"""

import pytest

from repro.core import ConformanceChecker, ConformanceOptions
from paper_reference import PAPER


class TestConformanceCost:
    def test_cold_check(self, benchmark, provider_type, expected_type):
        """Fresh cache on every check — the full rule evaluation
        (paper: ≈12.66 µs per verification on the CLR)."""
        benchmark.extra_info["paper_ms"] = PAPER["conformance_check_ms"]
        benchmark.extra_info["experiment"] = "7.4-cold"
        options = ConformanceOptions.pragmatic()

        def cold_check():
            checker = ConformanceChecker(options=options)
            return checker.conforms(provider_type, expected_type)

        result = benchmark(cold_check)
        assert result.ok

    def test_warm_check(self, benchmark, provider_type, expected_type,
                        pragmatic_checker):
        """Memoized repeat check (the steady-state cost in a long-lived
        middleware peer)."""
        benchmark.extra_info["experiment"] = "7.4-warm"
        pragmatic_checker.conforms(provider_type, expected_type)
        result = benchmark(
            lambda: pragmatic_checker.conforms(provider_type, expected_type)
        )
        assert result.ok

    def test_failed_check(self, benchmark, provider_type):
        """Rejections also cost — the price of filtering (Account vs
        Person)."""
        from repro.fixtures import account_csharp

        benchmark.extra_info["experiment"] = "7.4-reject"
        account = account_csharp()
        options = ConformanceOptions.pragmatic()

        def cold_reject():
            return ConformanceChecker(options=options).conforms(account, provider_type)

        result = benchmark(cold_reject)
        assert not result.ok

    def test_description_based_check(self, benchmark, provider_type, expected_type):
        """The protocol-realistic variant: checking two *descriptions*
        (skeletal types reconstructed from XML), as a receiver would."""
        from repro.describe.description import describe
        from repro.describe.xml_codec import (
            deserialize_description,
            serialize_description,
        )

        benchmark.extra_info["experiment"] = "7.4-descriptions"
        provider_description = deserialize_description(
            serialize_description(describe(provider_type))
        )
        expected_description = deserialize_description(
            serialize_description(describe(expected_type))
        )
        options = ConformanceOptions.pragmatic()

        def check():
            checker = ConformanceChecker(options=options)
            return provider_description.conforms(expected_description, checker)

        assert benchmark(check)


class TestConformanceShape:
    def test_check_dwarfs_proxy_invocation(self, runtime, provider_type,
                                           expected_type, pragmatic_checker):
        """Paper: proxy overhead "remains negligible with respect to the
        time taken for checking type conformance"."""
        import time

        from repro.remoting.dynamic import wrap

        person = runtime.new_instance("demo.a.Person", ["S"])
        view = wrap(person, expected_type, pragmatic_checker)
        options = ConformanceOptions.pragmatic()

        n = 300
        start = time.perf_counter()
        for _ in range(n):
            ConformanceChecker(options=options).conforms(provider_type, expected_type)
        check_time = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(n):
            view.invoke("getPersonName")
        proxy_time = time.perf_counter() - start

        assert check_time > proxy_time

    def test_warm_check_near_free(self, provider_type, expected_type,
                                  pragmatic_checker):
        """A warm check is one pair-cache lookup; a cold one runs the
        rules.  Counted with ``CheckerStats``, not timed, so machine load
        cannot decide it."""
        pragmatic_checker.conforms(provider_type, expected_type)
        stats = pragmatic_checker.stats
        checks, hits = stats.checks, stats.cache_hits
        n = 2000
        for _ in range(n):
            assert pragmatic_checker.conforms(provider_type, expected_type).ok
        assert stats.cache_hits - hits == n
        assert stats.checks - checks == n

        options = ConformanceOptions.pragmatic()
        for _ in range(50):
            cold = ConformanceChecker(options=options)
            assert cold.conforms(provider_type, expected_type).ok
            assert cold.stats.checks > 0
            assert cold.stats.cache_hits == 0
