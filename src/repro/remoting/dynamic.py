"""Dynamic proxies: invoking an implicitly-conformant object transparently.

"To deal with such conformant objects, dynamic proxies are used" (Section
6.2).  A :class:`DynamicProxy` fronts a provider object with the *expected*
type's surface: method calls are renamed, arguments permuted and unwrapped,
return values deep-wrapped when they are themselves only implicitly
conformant ("This mismatch increases with the depth of the matching of the
two types, requiring similar wrappers...").

The proxy is the component whose per-call overhead §7.1 measures against a
direct invocation.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Tuple

from ..cts.members import TypeRef
from ..cts.types import TypeInfo
from ..core.mapping import TypeMapping
from ..core.result import ConformanceResult
from ..core.rules import ConformanceChecker


class ProxyError(Exception):
    pass


class NotConformantError(ProxyError):
    """Attempted to build a proxy from a failed conformance result."""


#: How a proxy forwards one call: the provider method's name, the
#: argument reorder (``None`` for the identity), and the expected return
#: type when the result may need deep wrapping (``None`` when it never
#: does: a primitive return type).
_CallPlan = Tuple[str, Optional[Callable[[Sequence[Any]], list]], Optional[TypeRef]]

_UNPLANNED = object()


def _call_plan(mapping: TypeMapping, name: str, arity: int) -> Optional[_CallPlan]:
    """The plan for ``name`` with ``arity`` arguments, memoized on the
    mapping (a mapping does not change once the checker returns it);
    ``None`` for a call the mapping does not cover (the pass-through)."""
    plans = mapping.call_plans
    key = (name, arity)
    plan = plans.get(key, _UNPLANNED)
    if plan is not _UNPLANNED:
        return plan
    match = mapping.method(name, arity)
    if match is None:
        match = mapping.method_by_name(name)
    plan = None
    if match is not None:
        identity = (match.is_identity_permutation
                    and len(match.permutation) == arity)
        return_ref: Optional[TypeRef] = match.expected.return_type
        if return_ref.resolved is not None and return_ref.resolved.is_primitive:
            return_ref = None
        plan = (match.provider.name, None if identity else match.reorder,
                return_ref)
    plans[key] = plan
    return plan


class DynamicProxy:
    """Presents ``target`` (provider object) as ``expected_type``.

    ``target`` is anything speaking the ``_repro_invoke`` protocol
    (:class:`~repro.runtime.objects.CtsInstance`,
    :class:`~repro.cts.python_bridge.BridgedInstance`, a remote stub, or
    another proxy).  ``checker`` is used lazily for deep wrapping of return
    values; pass the peer's shared checker so its cache is reused.

    :func:`make_proxy` builds one through its mapping's generated
    subclass (:func:`proxy_class`), whose expected methods are real
    methods; this class alone serves every call through ``__getattr__``.
    """

    __slots__ = ("_target", "_expected", "_mapping", "_checker")

    def __init__(
        self,
        target: Any,
        expected_type: TypeInfo,
        mapping: TypeMapping,
        checker: Optional[ConformanceChecker] = None,
    ):
        _set_target(self, target)
        _set_expected(self, expected_type)
        _set_mapping(self, mapping)
        _set_checker(self, checker)

    # -- protocol --------------------------------------------------------

    def _repro_invoke(self, method_name: str, args: Sequence[Any]) -> Any:
        plan = _call_plan(self._mapping, method_name, len(args))
        if plan is None:
            return self._pass_through(method_name, args)
        provider_name, reorder, return_ref = plan
        call_args = [_unwrap(a) for a in args]
        if reorder is not None:
            call_args = reorder(call_args)
        result = self._target._repro_invoke(provider_name, call_args)
        if return_ref is None:
            return result
        return self._wrap_return(result, return_ref)

    def _pass_through(self, method_name: str, args: Sequence[Any]) -> Any:
        """A caller holding the provider's own surface (e.g. provider-side
        code receiving its object back through a proxy) still reaches the
        target directly."""
        target_type = _type_of(self._target)
        if target_type is not None and any(
            m.name == method_name for m in target_type.methods
        ):
            return self._target._repro_invoke(
                method_name, [_unwrap(a) for a in args]
            )
        raise AttributeError(
            "%s (as %s) has no method %r"
            % (self._provider_name(), self._expected.full_name, method_name)
        )

    def _repro_type(self) -> TypeInfo:
        """A proxy presents the *expected* type."""
        return self._expected

    # -- deep wrapping -----------------------------------------------------

    def _wrap_return(self, value: Any, expected_ref) -> Any:
        if value is None or isinstance(value, (bool, int, float, str, bytes)):
            return value
        if self._checker is None:
            return value
        actual_type = _type_of(value)
        if actual_type is None:
            return value
        expected_type = expected_ref.resolved
        if expected_type is None:
            expected_type = self._checker.resolver.try_resolve(expected_ref)
        if expected_type is None or expected_type.is_primitive:
            return value
        if actual_type.guid == expected_type.guid:
            return value
        result = self._checker.conforms(actual_type, expected_type)
        if result.ok and result.needs_proxy:
            return make_proxy(value, expected_type, result.mapping,
                              self._checker)
        return value

    # -- pythonic sugar -----------------------------------------------------

    def invoke(self, method_name: str, *args: Any) -> Any:
        return self._repro_invoke(method_name, args)

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        field_match = self._mapping.field(name)
        if field_match is not None:
            return self._target.get_field(field_match.provider.name)

        def bound(*args: Any) -> Any:
            return self._repro_invoke(name, args)

        bound.__name__ = name
        return bound

    def __setattr__(self, name: str, value: Any) -> None:
        field_match = self._mapping.field(name)
        if field_match is None:
            raise AttributeError(
                "%s has no conformant field %r" % (self._expected.full_name, name)
            )
        self._target.set_field(field_match.provider.name, value)

    def _provider_name(self) -> str:
        target_type = _type_of(self._target)
        return target_type.full_name if target_type is not None else repr(self._target)

    def __repr__(self) -> str:
        return "DynamicProxy(%s as %s)" % (self._provider_name(), self._expected.full_name)


#: The slot setters ``__init__`` stores through: ``__setattr__`` is the
#: proxy's field surface, and the slot descriptors skip its lookup.
_set_target, _set_expected, _set_mapping, _set_checker = (
    DynamicProxy.__dict__[name].__set__ for name in DynamicProxy.__slots__)


def _proxy_method(name: str, arity: int, plan: _CallPlan) -> Callable[..., Any]:
    """The generated method forwarding expected method ``name`` through
    ``plan``, the mapping's memoized plan for ``(name, arity)``; a call
    with another argument count takes the ``_repro_invoke`` path, exactly
    as ``__getattr__`` would have sent it."""
    provider_name, reorder, return_ref = plan

    def method(self: DynamicProxy, *args: Any) -> Any:
        if len(args) != arity:
            return self._repro_invoke(name, args)
        call_args = [_unwrap(a) for a in args]
        if reorder is not None:
            call_args = reorder(call_args)
        result = self._target._repro_invoke(provider_name, call_args)
        if return_ref is None:
            return result
        return self._wrap_return(result, return_ref)

    method.__name__ = name
    return method


def proxy_class(mapping: TypeMapping) -> type:
    """The :class:`DynamicProxy` subclass for ``mapping``, built on first
    use and kept on the mapping (a mapping does not change once the
    checker returns it).

    Each expected method whose name has one arity, is not a mapped field,
    does not start with ``_`` and is not already a :class:`DynamicProxy`
    attribute becomes a real method sharing the call plan
    ``_repro_invoke`` uses; everything else (fields, other spellings,
    several arities) still goes through ``__getattr__``.  No source is
    generated: names reach the class only as dict keys, bodies only as
    closures.
    """
    cls = mapping.proxy_class
    if cls is not None:
        return cls
    by_name: dict = {}
    for match in mapping.methods:
        by_name.setdefault(match.expected.name.lower(), []).append(match)
    namespace: dict = {"__slots__": ()}
    for matches in by_name.values():
        if len(matches) != 1:
            continue
        name, arity = matches[0].expected.name, matches[0].expected.arity
        if (name.startswith("_") or hasattr(DynamicProxy, name)
                or mapping.field(name) is not None):
            continue
        namespace[name] = _proxy_method(name, arity,
                                        _call_plan(mapping, name, arity))
    cls = mapping.proxy_class = type("DynamicProxy", (DynamicProxy,), namespace)
    return cls


def make_proxy(target: Any, expected_type: TypeInfo, mapping: TypeMapping,
               checker: Optional[ConformanceChecker] = None) -> DynamicProxy:
    """A proxy presenting ``target`` as ``expected_type``, built through
    the mapping's generated class."""
    cls = mapping.proxy_class or proxy_class(mapping)
    return cls(target, expected_type, mapping, checker)


def _type_of(value: Any) -> Optional[TypeInfo]:
    getter = getattr(value, "_repro_type", None)
    if getter is None:
        return None
    return getter()


def _unwrap(value: Any) -> Any:
    """Strip proxy layers so the provider receives naked objects."""
    while isinstance(value, DynamicProxy):
        value = object.__getattribute__(value, "_target")
    return value


def unwrap(value: Any) -> Any:
    """Public alias of the proxy-stripping helper."""
    return _unwrap(value)


def wrap(
    value: Any,
    expected_type: TypeInfo,
    checker: ConformanceChecker,
) -> Any:
    """Present ``value`` as ``expected_type``, proxying only when needed.

    Raises :class:`NotConformantError` when the value's type does not
    conform.  Returns the value untouched for identity-like verdicts (the
    zero-overhead fast path a "smart" middleware takes).
    """
    actual_type = _type_of(value)
    if actual_type is None:
        raise ProxyError("value %r does not expose a CTS type" % (value,))
    result = checker.conforms(actual_type, expected_type)
    return wrap_with_result(value, expected_type, result, checker)


def wrap_with_result(
    value: Any,
    expected_type: TypeInfo,
    result: ConformanceResult,
    checker: Optional[ConformanceChecker] = None,
) -> Any:
    """Like :func:`wrap` when a conformance result is already at hand."""
    if not result.ok:
        raise NotConformantError(
            "%s does not conform to %s:\n%s"
            % (result.provider_name, result.expected_name, result.explain())
        )
    if not result.needs_proxy:
        return value
    assert result.mapping is not None
    return make_proxy(value, expected_type, result.mapping, checker)
