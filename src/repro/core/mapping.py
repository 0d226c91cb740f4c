"""Conformance mappings: the witness produced by a successful check.

A mapping records *how* a provider type satisfies an expected type — which
provider method implements which expected method (and under which argument
permutation), which field maps to which, which constructor to call.  Dynamic
proxies consume mappings to translate invocations at runtime.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cts.members import ConstructorInfo, FieldInfo, MethodInfo


class MethodMatch:
    """One expected-method → provider-method correspondence.

    ``permutation`` maps provider parameter positions to expected argument
    positions: to invoke the provider, pass
    ``[expected_args[permutation[j]] for j in range(arity)]``.
    """

    __slots__ = ("expected", "provider", "permutation")

    def __init__(self, expected: MethodInfo, provider: MethodInfo,
                 permutation: Sequence[int]):
        self.expected = expected
        self.provider = provider
        self.permutation = tuple(permutation)

    @property
    def is_identity_permutation(self) -> bool:
        return self.permutation == tuple(range(len(self.permutation)))

    def reorder(self, expected_args: Sequence) -> List:
        """Arrange arguments given in expected order into provider order."""
        if len(expected_args) != len(self.permutation):
            raise ValueError(
                "expected %d args, got %d"
                % (len(self.permutation), len(expected_args))
            )
        return [expected_args[i] for i in self.permutation]

    def __repr__(self) -> str:
        return "MethodMatch(%s -> %s, perm=%s)" % (
            self.expected.name, self.provider.name, list(self.permutation),
        )


class CtorMatch:
    """Constructor correspondence, keyed by arity."""

    __slots__ = ("expected", "provider", "permutation")

    def __init__(self, expected: ConstructorInfo, provider: ConstructorInfo,
                 permutation: Sequence[int]):
        self.expected = expected
        self.provider = provider
        self.permutation = tuple(permutation)

    def reorder(self, expected_args: Sequence) -> List:
        if len(expected_args) != len(self.permutation):
            raise ValueError(
                "expected %d args, got %d"
                % (len(self.permutation), len(expected_args))
            )
        return [expected_args[i] for i in self.permutation]

    def __repr__(self) -> str:
        return "CtorMatch(arity=%d, perm=%s)" % (
            len(self.permutation), list(self.permutation),
        )


class FieldMatch:
    __slots__ = ("expected", "provider")

    def __init__(self, expected: FieldInfo, provider: FieldInfo):
        self.expected = expected
        self.provider = provider

    def __repr__(self) -> str:
        return "FieldMatch(%s -> %s)" % (self.expected.name, self.provider.name)


class TypeMapping:
    """All member correspondences for one (provider, expected) type pair."""

    def __init__(self, provider_name: str, expected_name: str):
        self.provider_name = provider_name
        self.expected_name = expected_name
        self._methods: Dict[Tuple[str, int], MethodMatch] = {}
        self._fields: Dict[str, FieldMatch] = {}
        self._ctors: Dict[int, CtorMatch] = {}
        #: How a dynamic proxy forwards each ``(name, arity)`` call,
        #: memoized by ``repro.remoting.dynamic``.
        self.call_plans: Dict[Tuple[str, int], Any] = {}

    # -- population --------------------------------------------------------

    def add_method(self, match: MethodMatch) -> None:
        key = (match.expected.name.lower(), match.expected.arity)
        self._methods[key] = match

    def add_field(self, match: FieldMatch) -> None:
        self._fields[match.expected.name.lower()] = match

    def add_ctor(self, match: CtorMatch) -> None:
        self._ctors[len(match.permutation)] = match

    # -- lookup --------------------------------------------------------------

    def method(self, expected_name: str, arity: int) -> Optional[MethodMatch]:
        return self._methods.get((expected_name.lower(), arity))

    def method_by_name(self, expected_name: str) -> Optional[MethodMatch]:
        """Any-arity lookup, used when the caller's arity is not ambiguous."""
        hits = [m for (name, _), m in self._methods.items()
                if name == expected_name.lower()]
        return hits[0] if len(hits) == 1 else None

    def field(self, expected_name: str) -> Optional[FieldMatch]:
        return self._fields.get(expected_name.lower())

    def ctor(self, arity: int) -> Optional[CtorMatch]:
        return self._ctors.get(arity)

    @property
    def methods(self) -> List[MethodMatch]:
        return list(self._methods.values())

    @property
    def fields(self) -> List[FieldMatch]:
        return list(self._fields.values())

    @property
    def ctors(self) -> List[CtorMatch]:
        return list(self._ctors.values())

    def is_identity(self) -> bool:
        """True when every correspondence is name-for-name and in order —
        i.e. the proxy could be skipped entirely."""
        for match in self._methods.values():
            if match.expected.name != match.provider.name:
                return False
            if not match.is_identity_permutation:
                return False
        for fmatch in self._fields.values():
            if fmatch.expected.name != fmatch.provider.name:
                return False
        return True

    @classmethod
    def identity_for(cls, type_name: str) -> "TypeMapping":
        """The trivial mapping used for equal/equivalent/explicit verdicts."""
        return cls(type_name, type_name)

    def __repr__(self) -> str:
        return "TypeMapping(%s => %s, %d methods, %d fields, %d ctors)" % (
            self.provider_name,
            self.expected_name,
            len(self._methods),
            len(self._fields),
            len(self._ctors),
        )
