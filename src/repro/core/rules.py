"""The implicit structural conformance checker (paper Section 4, Figure 2).

``conforms(T, T')`` decides whether an instance of provider type ``T`` can
safely be used where expected type ``T'`` is required.  The decision
procedure follows rule (vi):

    T <=is T'  iff  conf_name & conf_fields & conf_supertypes &
                    conf_methods & conf_ctors
               or   T == T' (identity) or T ~ T' (equivalence)
               or   T <=e T' (explicit subtyping)

Recursive types are handled coinductively (a pair under examination is
assumed conformant when re-encountered), the standard greatest-fixpoint
algorithm for structural subtyping.  Memoization is sound: negative results
are definitive; positive results are cached only once free of undischarged
coinductive assumptions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..cts.identity import Guid
from ..cts.members import ConstructorInfo, FieldInfo, MethodInfo, Modifiers, TypeRef
from ..cts.registry import BoundedMemo, TypeRegistry
from ..cts.types import DOUBLE, FLOAT, INT, LONG, OBJECT, TypeInfo
from .context import ConformanceOptions, EmptyResolver, TypeResolver
from .mapping import CtorMatch, FieldMatch, MethodMatch, TypeMapping
from .result import Aspect, ConformanceResult, Verdict

_Pair = Tuple[Guid, Guid]

#: Bound on the pair cache (a checker fed ever-new types must not grow
#: it without limit).
_MAX_PAIRS = 4096

#: Widening conversions honoured when ``allow_numeric_widening`` is on.
_WIDENINGS = {
    (INT.guid, LONG.guid),
    (INT.guid, DOUBLE.guid),
    (INT.guid, FLOAT.guid),
    (LONG.guid, DOUBLE.guid),
    (FLOAT.guid, DOUBLE.guid),
}


class ConformanceChecker:
    """Stateful checker: holds options, a resolver and a result cache.

    One checker instance per (options, resolver) combination; checks are
    synchronous and not thread-safe (each peer owns its own checker).
    """

    def __init__(
        self,
        resolver: Optional[TypeResolver] = None,
        options: Optional[ConformanceOptions] = None,
    ):
        self.resolver = resolver if resolver is not None else EmptyResolver()
        self.options = options if options is not None else ConformanceOptions()
        #: Owner of the type epoch the pair cache lives for: the resolver's
        #: registry (or the resolver itself, when it is a registry), else
        #: a private one.
        registry = getattr(self.resolver, "registry", self.resolver)
        if not isinstance(registry, TypeRegistry):
            registry = TypeRegistry(include_builtins=False)
        self.registry = registry
        self._cache = BoundedMemo(_MAX_PAIRS, registry)
        self._assumptions: Set[_Pair] = set()
        self.stats = CheckerStats()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def conforms(self, provider: TypeInfo, expected: TypeInfo) -> ConformanceResult:
        """Full conformance check; returns a result with witness mapping."""
        self._cache.fresh()
        result, _deps = self._check(provider, expected)
        return result

    def check(self, provider: TypeInfo, expected: TypeInfo) -> ConformanceResult:
        """Alias for :meth:`conforms` (paper terminology)."""
        return self.conforms(provider, expected)

    def equivalent(self, left: TypeInfo, right: TypeInfo) -> bool:
        """Structural equivalence (definition 3): identical structure.

        This is the routing fast path: same identity short-circuits, and
        fingerprints are memoised per type, so the comparison degenerates
        to a string equality — no rule engine, no resolver traffic.
        """
        if left is right or left.guid == right.guid:
            return True
        return left.fingerprint() == right.fingerprint()

    def clear_cache(self) -> None:
        """Drop the pair cache and move the type epoch, so every memo
        derived from this checker's verdicts is dropped too."""
        self._cache.clear()
        self.registry.bump()

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------
    # core decision procedure
    # ------------------------------------------------------------------

    def _check(
        self, provider: TypeInfo, expected: TypeInfo
    ) -> Tuple[ConformanceResult, Set[_Pair]]:
        self.stats.checks += 1
        pair = (provider.guid, expected.guid)

        # Everything conforms to the root type.
        if expected.guid == OBJECT.guid:
            return (
                ConformanceResult.success(
                    provider.full_name, expected.full_name, Verdict.EXPLICIT
                ),
                set(),
            )

        # Equality (definition 2): same identity.
        if provider.guid == expected.guid:
            return (
                ConformanceResult.success(
                    provider.full_name, expected.full_name, Verdict.EQUAL
                ),
                set(),
            )

        cached = self._cache.get(pair)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached, set()

        # Primitives conform only by identity (plus optional widening).
        if provider.is_primitive or expected.is_primitive:
            result = self._check_primitive(provider, expected)
            self._cache.put(pair, result)
            return result, set()

        # Arrays: covariant in the element type (CTS semantics).
        if provider.is_array or expected.is_array:
            return self._check_array(provider, expected, pair)

        # Equivalence (definition 3): structurally identical.
        if provider.fingerprint() == expected.fingerprint():
            result = ConformanceResult.success(
                provider.full_name, expected.full_name, Verdict.EQUIVALENT
            )
            self._cache.put(pair, result)
            return result, set()

        # Explicit conformance: declared subtyping.
        if self._is_explicit(provider, expected):
            result = ConformanceResult.success(
                provider.full_name, expected.full_name, Verdict.EXPLICIT
            )
            self._cache.put(pair, result)
            return result, set()

        # Coinduction: the pair is already under examination.
        if pair in self._assumptions:
            self.stats.assumption_hits += 1
            return (
                ConformanceResult.success(
                    provider.full_name, expected.full_name, Verdict.ASSUMED
                ),
                {pair},
            )

        self._assumptions.add(pair)
        try:
            result, deps = self._check_structural(provider, expected)
        finally:
            self._assumptions.discard(pair)

        deps.discard(pair)  # self-dependency discharged by this completion
        if not result.ok or not deps:
            self._cache.put(pair, result)
        return result, deps

    def _check_array(
        self, provider: TypeInfo, expected: TypeInfo, pair: _Pair
    ) -> Tuple[ConformanceResult, Set[_Pair]]:
        if not (provider.is_array and expected.is_array):
            result = ConformanceResult.failure(
                provider.full_name,
                expected.full_name,
                ["array/non-array mismatch"],
            )
            self._cache.put(pair, result)
            return result, set()
        warnings: List[str] = []
        conf, deps = self._refs_conform(provider.element, expected.element, warnings)
        if conf:
            result = ConformanceResult.success(
                provider.full_name,
                expected.full_name,
                Verdict.IMPLICIT_STRUCTURAL,
                warnings=warnings,
            )
        else:
            result = ConformanceResult.failure(
                provider.full_name,
                expected.full_name,
                [
                    "array element %s does not conform to %s"
                    % (provider.element.full_name, expected.element.full_name)
                ],
                warnings=warnings,
            )
        if not deps:
            self._cache.put(pair, result)
        return result, deps

    def _check_primitive(
        self, provider: TypeInfo, expected: TypeInfo
    ) -> ConformanceResult:
        if (
            self.options.allow_numeric_widening
            and (provider.guid, expected.guid) in _WIDENINGS
        ):
            return ConformanceResult.success(
                provider.full_name, expected.full_name, Verdict.EXPLICIT
            )
        return ConformanceResult.failure(
            provider.full_name,
            expected.full_name,
            ["primitive types differ: %s vs %s" % (provider.full_name, expected.full_name)],
        )

    def _is_explicit(self, provider: TypeInfo, expected: TypeInfo) -> bool:
        """Walk the declared supertype closure of ``provider`` looking for
        ``expected`` (by identity, falling back to full name)."""
        stack: List[TypeRef] = []
        if provider.superclass is not None:
            stack.append(provider.superclass)
        stack.extend(provider.interfaces)
        seen: Set[str] = set()
        while stack:
            ref = stack.pop()
            if ref.full_name in seen:
                continue
            seen.add(ref.full_name)
            if ref.guid is not None and ref.guid == expected.guid:
                return True
            if ref.full_name == expected.full_name:
                return True
            resolved = self._resolve(ref)
            if resolved is not None:
                if resolved.guid == expected.guid:
                    return True
                if resolved.superclass is not None:
                    stack.append(resolved.superclass)
                stack.extend(resolved.interfaces)
        return False

    def _resolve(self, ref: TypeRef) -> Optional[TypeInfo]:
        if ref.is_resolved:
            return ref.resolved
        self.stats.resolutions += 1
        return self.resolver.try_resolve(ref)

    # ------------------------------------------------------------------
    # the five aspects
    # ------------------------------------------------------------------

    def _check_structural(
        self, provider: TypeInfo, expected: TypeInfo
    ) -> Tuple[ConformanceResult, Set[_Pair]]:
        options = self.options
        aspects: Dict[Aspect, bool] = {}
        failures: List[str] = []
        warnings: List[str] = []
        deps: Set[_Pair] = set()
        mapping = TypeMapping(provider.full_name, expected.full_name)

        if options.check_name:
            ok = options.name_policy.conforms(provider.simple_name, expected.simple_name)
            aspects[Aspect.NAME] = ok
            if not ok:
                failures.append(
                    "name %r does not conform to %r"
                    % (provider.simple_name, expected.simple_name)
                )

        if options.check_supertypes:
            ok = self._conf_supertypes(provider, expected, failures, warnings, deps)
            aspects[Aspect.SUPERTYPES] = ok

        if options.check_fields:
            ok = self._conf_fields(provider, expected, mapping, failures, warnings, deps)
            aspects[Aspect.FIELDS] = ok

        if options.check_methods:
            ok = self._conf_methods(provider, expected, mapping, failures, warnings, deps)
            aspects[Aspect.METHODS] = ok

        if options.check_constructors:
            ok = self._conf_ctors(provider, expected, mapping, failures, warnings, deps)
            aspects[Aspect.CONSTRUCTORS] = ok

        if all(aspects.values()):
            result = ConformanceResult.success(
                provider.full_name,
                expected.full_name,
                Verdict.IMPLICIT_STRUCTURAL,
                mapping=mapping,
                aspects=aspects,
                warnings=warnings,
            )
        else:
            result = ConformanceResult.failure(
                provider.full_name,
                expected.full_name,
                failures,
                aspects=aspects,
                warnings=warnings,
            )
        return result, deps

    # -- aspect (iii): supertypes -----------------------------------------

    def _conf_supertypes(
        self,
        provider: TypeInfo,
        expected: TypeInfo,
        failures: List[str],
        warnings: List[str],
        deps: Set[_Pair],
    ) -> bool:
        ok = True

        expected_super = expected.superclass
        if expected_super is not None and expected_super.full_name != OBJECT.full_name:
            provider_super = provider.superclass
            if provider_super is None:
                ok = False
                failures.append(
                    "expected superclass %s but provider has none"
                    % expected_super.full_name
                )
            else:
                conf, dep = self._refs_conform(provider_super, expected_super, warnings)
                deps.update(dep)
                if not conf:
                    ok = False
                    failures.append(
                        "superclass %s does not conform to %s"
                        % (provider_super.full_name, expected_super.full_name)
                    )

        for expected_iface in expected.interfaces:
            matched = False
            for provider_iface in provider.interfaces:
                conf, dep = self._refs_conform(provider_iface, expected_iface, warnings)
                if conf:
                    deps.update(dep)
                    matched = True
                    break
            if not matched:
                ok = False
                failures.append(
                    "no provider interface conforms to %s" % expected_iface.full_name
                )
        return ok

    # -- aspect (ii): fields -------------------------------------------------

    def _conf_fields(
        self,
        provider: TypeInfo,
        expected: TypeInfo,
        mapping: TypeMapping,
        failures: List[str],
        warnings: List[str],
        deps: Set[_Pair],
    ) -> bool:
        ok = True
        policy = self.options.name_policy
        provider_fields = provider.public_fields()
        for expected_field in expected.public_fields():
            candidates: List[Tuple[FieldInfo, Set[_Pair]]] = []
            for provider_field in provider_fields:
                if not policy.conforms(provider_field.name, expected_field.name):
                    continue
                conf, dep = self._refs_conform(
                    provider_field.type_ref, expected_field.type_ref, warnings
                )
                if conf:
                    candidates.append((provider_field, dep))
            chosen = self._choose(expected_field.name, [c[0].name for c in candidates])
            if chosen is None or not candidates:
                ok = False
                failures.append(
                    "no provider field conforms to field %r" % expected_field.name
                )
                continue
            provider_field, dep = candidates[chosen]
            deps.update(dep)
            mapping.add_field(FieldMatch(expected_field, provider_field))
        return ok

    # -- aspect (iv): methods -------------------------------------------------

    def _conf_methods(
        self,
        provider: TypeInfo,
        expected: TypeInfo,
        mapping: TypeMapping,
        failures: List[str],
        warnings: List[str],
        deps: Set[_Pair],
    ) -> bool:
        ok = True
        policy = self.options.name_policy
        provider_methods = provider.public_methods()
        for expected_method in expected.public_methods():
            candidates: List[Tuple[MethodMatch, Set[_Pair]]] = []
            for provider_method in provider_methods:
                if provider_method.arity != expected_method.arity:
                    continue
                if not policy.conforms(provider_method.name, expected_method.name):
                    continue
                if not self._modifiers_compatible(provider_method.modifiers,
                                                  expected_method.modifiers):
                    continue
                match, dep = self._match_signature(provider_method, expected_method, warnings)
                if match is not None:
                    candidates.append((match, dep))
            chosen = self._choose(
                expected_method.name, [c[0].provider.name for c in candidates]
            )
            if chosen is None or not candidates:
                ok = False
                failures.append(
                    "no provider method conforms to %s" % expected_method.signature()
                )
                continue
            match, dep = candidates[chosen]
            deps.update(dep)
            mapping.add_method(match)
        return ok

    def _modifiers_compatible(self, provider: Modifiers, expected: Modifiers) -> bool:
        if self.options.strict_modifiers:
            return provider == expected
        if self.options.require_static_match:
            return bool(provider & Modifiers.STATIC) == bool(expected & Modifiers.STATIC)
        return True

    def _match_signature(
        self,
        provider_method: MethodInfo,
        expected_method: MethodInfo,
        warnings: List[str],
    ) -> Tuple[Optional[MethodMatch], Set[_Pair]]:
        deps: Set[_Pair] = set()
        # Covariant return: ret(provider) <=is ret(expected) — "the 'real'
        # object uses the return parameter".
        conf, dep = self._refs_conform(
            provider_method.return_type, expected_method.return_type, warnings
        )
        if not conf:
            return None, set()
        deps.update(dep)
        permutation = self._find_permutation(
            expected_method.parameters, provider_method.parameters, warnings, deps
        )
        if permutation is None:
            return None, set()
        return MethodMatch(expected_method, provider_method, permutation), deps

    # -- aspect (v): constructors -------------------------------------------------

    def _conf_ctors(
        self,
        provider: TypeInfo,
        expected: TypeInfo,
        mapping: TypeMapping,
        failures: List[str],
        warnings: List[str],
        deps: Set[_Pair],
    ) -> bool:
        ok = True
        provider_ctors = provider.public_constructors()
        for expected_ctor in expected.public_constructors():
            candidates: List[Tuple[CtorMatch, Set[_Pair]]] = []
            for provider_ctor in provider_ctors:
                if provider_ctor.arity != expected_ctor.arity:
                    continue
                local_deps: Set[_Pair] = set()
                permutation = self._find_permutation(
                    expected_ctor.parameters, provider_ctor.parameters, warnings, local_deps
                )
                if permutation is not None:
                    candidates.append(
                        (CtorMatch(expected_ctor, provider_ctor, permutation), local_deps)
                    )
            chosen = self._choose(
                ".ctor/%d" % expected_ctor.arity,
                [".ctor/%d" % c[0].provider.arity for c in candidates],
            )
            if chosen is None or not candidates:
                ok = False
                failures.append(
                    "no provider constructor conforms to %s" % expected_ctor.signature()
                )
                continue
            match, dep = candidates[chosen]
            deps.update(dep)
            mapping.add_ctor(match)
        return ok

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _choose(self, expected_name: str, candidate_names: List[str]) -> Optional[int]:
        if not candidate_names:
            return None
        if len(candidate_names) == 1:
            return 0
        self.stats.ambiguities += 1
        return self.options.resolution.choose(expected_name, candidate_names)

    def _refs_conform(
        self,
        provider_ref: TypeRef,
        expected_ref: TypeRef,
        warnings: List[str],
    ) -> Tuple[bool, Set[_Pair]]:
        """Does the type named by ``provider_ref`` conform to the type named
        by ``expected_ref``?

        Falls back to name comparison (with a warning) when a side cannot be
        resolved — the pragmatic behaviour for descriptions whose referenced
        types were not shipped (Section 5.2: descriptions are non-recursive).
        """
        if provider_ref.guid is not None and provider_ref.guid == expected_ref.guid:
            return True, set()
        provider_type = self._resolve(provider_ref)
        expected_type = self._resolve(expected_ref)
        if provider_type is not None and expected_type is not None:
            result, deps = self._check(provider_type, expected_type)
            return result.ok, deps
        # Unresolvable on at least one side: compare names pragmatically.
        provider_simple = provider_ref.full_name.rpartition(".")[2]
        expected_simple = expected_ref.full_name.rpartition(".")[2]
        conf = self.options.name_policy.conforms(provider_simple, expected_simple)
        if conf:
            warnings.append(
                "unresolved reference(s): %s vs %s compared by name only"
                % (provider_ref.full_name, expected_ref.full_name)
            )
        return conf, set()

    def _find_permutation(
        self,
        expected_params: Sequence,
        provider_params: Sequence,
        warnings: List[str],
        deps: Set[_Pair],
    ) -> Optional[Tuple[int, ...]]:
        """Find a permutation assigning each provider parameter an expected
        argument position (rule iv: "permutations of the arguments of the
        methods are taken into account").

        Contravariant: expected argument type must conform to the provider
        parameter type it feeds.
        """
        n = len(provider_params)
        if n != len(expected_params):
            return None
        if n == 0:
            return ()

        local_deps: Set[_Pair] = set()

        def compatible(expected_index: int, provider_index: int) -> bool:
            conf, dep = self._refs_conform(
                expected_params[expected_index].type_ref,
                provider_params[provider_index].type_ref,
                warnings,
            )
            if conf:
                local_deps.update(dep)
            return conf

        # Fast path: identity permutation.
        if all(compatible(j, j) for j in range(n)):
            deps.update(local_deps)
            return tuple(range(n))

        if not self.options.allow_permutations or n > self.options.max_permutation_arity:
            return None

        # Bipartite matching by backtracking over provider slots.
        compat: List[List[int]] = []
        for j in range(n):
            row = [i for i in range(n) if compatible(i, j)]
            if not row:
                return None
            compat.append(row)

        assignment: List[int] = [-1] * n
        used: Set[int] = set()

        def backtrack(j: int) -> bool:
            if j == n:
                return True
            for i in compat[j]:
                if i not in used:
                    used.add(i)
                    assignment[j] = i
                    if backtrack(j + 1):
                        return True
                    used.discard(i)
            return False

        if backtrack(0):
            deps.update(local_deps)
            return tuple(assignment)
        return None


class CheckerStats:
    """Counters for benchmarks and ablation reporting."""

    __slots__ = ("checks", "cache_hits", "assumption_hits", "resolutions", "ambiguities")

    def __init__(self):
        self.checks = 0
        self.cache_hits = 0
        self.assumption_hits = 0
        self.resolutions = 0
        self.ambiguities = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return "CheckerStats(%s)" % ", ".join(
            "%s=%d" % (k, v) for k, v in self.as_dict().items()
        )
