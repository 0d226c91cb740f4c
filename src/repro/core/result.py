"""Conformance results: verdicts, aspect breakdowns and explanations.

Every check returns a :class:`ConformanceResult` rather than a bare bool, so
callers (and failing tests) can see *which* aspect of Figure 2 failed and on
which member.  Explanations are cheap — plain strings built only on the
failure path.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from .mapping import TypeMapping


class Verdict(enum.Enum):
    """How conformance was established (or not)."""

    EQUAL = "equal"                      # same type identity (GUID)
    EQUIVALENT = "equivalent"            # structurally identical
    EXPLICIT = "explicit"                # ordinary subtyping (T <=e T')
    IMPLICIT_STRUCTURAL = "implicit"     # the paper's T <=is T'
    ASSUMED = "assumed"                  # coinductive hypothesis in a cycle
    FAILED = "failed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Aspect(enum.Enum):
    """The five aspects of rule (vi), plus bookkeeping entries."""

    NAME = "name"
    FIELDS = "fields"
    SUPERTYPES = "supertypes"
    METHODS = "methods"
    CONSTRUCTORS = "constructors"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ConformanceResult:
    """Outcome of ``conforms(provider, expected)``.

    ``bool(result)`` is True for any succeeding verdict.  On success via the
    implicit structural route, ``mapping`` carries the member witness used by
    dynamic proxies; for the identity-like verdicts it is an identity
    mapping.
    """

    __slots__ = (
        "provider_name",
        "expected_name",
        "verdict",
        "mapping",
        "aspects",
        "failures",
        "warnings",
        "ok",
        "needs_proxy",
    )

    def __init__(
        self,
        provider_name: str,
        expected_name: str,
        verdict: Verdict,
        mapping: Optional[TypeMapping] = None,
        aspects: Optional[Dict[Aspect, bool]] = None,
        failures: Optional[List[str]] = None,
        warnings: Optional[List[str]] = None,
    ):
        self.provider_name = provider_name
        self.expected_name = expected_name
        self.verdict = verdict
        self.mapping = mapping
        self.aspects = aspects if aspects is not None else {}
        self.failures = failures if failures is not None else []
        self.warnings = warnings if warnings is not None else []
        # A result does not change once the checker returns it, so the two
        # per-object questions are answered here, once.
        #: True for any succeeding verdict.
        self.ok = verdict is not Verdict.FAILED
        #: True when using the provider as the expected type requires a
        #: translating dynamic proxy (names/permutations differ).
        self.needs_proxy = (
            verdict not in (Verdict.EQUAL, Verdict.EQUIVALENT, Verdict.EXPLICIT)
            and mapping is not None
            and not mapping.is_identity()
        )

    def __bool__(self) -> bool:
        return self.ok

    def explain(self) -> str:
        """Human-readable multi-line account of the decision."""
        lines = [
            "%s %s %s (%s)"
            % (
                self.provider_name,
                "conforms to" if self.ok else "does NOT conform to",
                self.expected_name,
                self.verdict.value,
            )
        ]
        for aspect in Aspect:
            if aspect in self.aspects:
                state = "ok" if self.aspects[aspect] else "FAILED"
                lines.append("  aspect %-12s %s" % (aspect.value, state))
        for failure in self.failures:
            lines.append("  failure: %s" % failure)
        for warning in self.warnings:
            lines.append("  warning: %s" % warning)
        return "\n".join(lines)

    # -- constructors used by the checker ----------------------------------

    @classmethod
    def success(
        cls,
        provider_name: str,
        expected_name: str,
        verdict: Verdict,
        mapping: Optional[TypeMapping] = None,
        aspects: Optional[Dict[Aspect, bool]] = None,
        warnings: Optional[List[str]] = None,
    ) -> "ConformanceResult":
        if mapping is None:
            mapping = TypeMapping.identity_for(expected_name)
        return cls(provider_name, expected_name, verdict, mapping,
                   aspects=aspects, warnings=warnings)

    @classmethod
    def failure(
        cls,
        provider_name: str,
        expected_name: str,
        failures: List[str],
        aspects: Optional[Dict[Aspect, bool]] = None,
        warnings: Optional[List[str]] = None,
    ) -> "ConformanceResult":
        return cls(provider_name, expected_name, Verdict.FAILED, None,
                   aspects=aspects, failures=failures, warnings=warnings)

    def __repr__(self) -> str:
        return "ConformanceResult(%s => %s: %s)" % (
            self.provider_name, self.expected_name, self.verdict.value,
        )
