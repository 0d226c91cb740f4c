"""A mapping's generated proxy class against the plain :class:`DynamicProxy`.

Every conformance mapping builds one :class:`DynamicProxy` subclass
(``repro.remoting.dynamic.proxy_class``) whose expected methods are real
methods.  On generated mappings — renames, argument permutations,
deep-wrapped returns, several arities per name, names that collide with a
field, with ``invoke`` or start with ``_`` — every attribute read, call
and field write through the generated class must behave exactly as
through a plain :class:`DynamicProxy` on the same mapping, whose calls all
go through ``__getattr__`` and ``_repro_invoke``: the same result, or the
same exception type and message.
"""

from typing import Any, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConformanceChecker, ConformanceOptions
from repro.core.mapping import FieldMatch, MethodMatch, TypeMapping
from repro.cts.builder import TypeBuilder
from repro.cts.members import TypeRef
from repro.fixtures import person_csharp, person_java
from repro.remoting.dynamic import DynamicProxy, make_proxy, proxy_class
from repro.runtime.loader import Runtime

PERSON_CS = person_csharp()
PERSON_JAVA = person_java()
CHECKER = ConformanceChecker(options=ConformanceOptions.pragmatic())

#: Expected method names: plain, a second spelling of one of them, a
#: DynamicProxy attribute, a private one, one naming a mapped field.
EXPECTED_NAMES = ["get", "Get", "calc", "invoke", "_hidden", "value"]
#: Return kinds: a primitive (never wrapped), an object type the result
#: is not an instance of, and a conformant Person (deep-wrapped).
RETURNS = ["primitive", "other", "person"]


@st.composite
def mappings(draw):
    """``(spec, permutations)``: expected methods as ``(name, arity,
    return kind)``, at most one per lower-cased name and arity, and for
    each the provider argument order."""
    raw = draw(st.lists(st.tuples(st.sampled_from(EXPECTED_NAMES),
                                  st.integers(0, 3),
                                  st.sampled_from(RETURNS)),
                        min_size=1, max_size=6))
    spec, seen = [], set()
    for name, arity, kind in raw:
        if (name.lower(), arity) not in seen:
            seen.add((name.lower(), arity))
            spec.append((name, arity, kind))
    permutations = [draw(st.permutations(list(range(arity))))
                    for _, arity, _ in spec]
    return spec, permutations


def build(spec, permutations):
    """The runtime, a provider instance and the mapping the spec says."""
    runtime = Runtime()
    runtime.load_type(PERSON_CS)
    returned = runtime.instantiate(PERSON_CS, ["Ada"])
    provider = TypeBuilder("p.T", assembly_name="prov").field("Value", "int")
    expected = TypeBuilder("e.T", assembly_name="exp").field("value", "int")
    for index, (name, arity, kind) in enumerate(spec):
        params = [("a%d" % i, "int") for i in range(arity)]
        provider_name = "P%d" % index
        if kind == "person":
            body = (lambda self, *args: returned)
            return_type = TypeRef.to(PERSON_JAVA)
        else:
            body = (lambda self, *args, _n=provider_name: (_n, args))
            return_type = "string" if kind == "primitive" else "x.Other"
        provider.method(provider_name, params, "string", body=body)
        expected.method(name, params, return_type)
    # The provider's own surface, reachable by pass-through.
    provider.method("Own", [], "string", body=lambda self: "own")
    provider_type, expected_type = provider.build(), expected.build()
    runtime.load_type(provider_type)
    mapping = TypeMapping(provider_type.full_name, expected_type.full_name)
    for index, permutation in enumerate(permutations):
        mapping.add_method(MethodMatch(expected_type.methods[index],
                                       provider_type.methods[index],
                                       permutation))
    mapping.add_field(FieldMatch(expected_type.fields[0],
                                 provider_type.fields[0]))
    target = runtime.instantiate(provider_type)
    target.set_field("Value", 7)
    return target, expected_type, mapping


def outcome(action):
    try:
        result = action()
    except Exception as exc:  # the exception type and message are compared
        return ("raised", type(exc), str(exc))
    if isinstance(result, DynamicProxy):
        return ("proxy", repr(result),
                object.__getattribute__(result, "_target"),
                object.__getattribute__(result, "_mapping"),
                result.getPersonName())
    return ("ok", result)


#: Attribute names a caller may use: every expected spelling and case
#: variant, the field in two spellings, pass-through and unknown names.
CALL_NAMES = sorted(set(EXPECTED_NAMES + [n.upper() for n in EXPECTED_NAMES]
                        + ["Value", "Own", "nosuch", "__len__"]))


class TestGeneratedClassMatchesThePlainProxy:
    @settings(max_examples=150, deadline=None)
    @given(mappings(), st.lists(st.tuples(st.sampled_from(CALL_NAMES),
                                          st.integers(0, 4)),
                                min_size=1, max_size=8))
    def test_calls_and_attribute_reads(self, mapping_spec, calls):
        target, expected_type, mapping = build(*mapping_spec)
        generated = make_proxy(target, expected_type, mapping, CHECKER)
        plain = DynamicProxy(target, expected_type, mapping, CHECKER)
        inner = make_proxy(target, expected_type, mapping, CHECKER)
        # Every expected method at its own arity, then the drawn calls.
        spec, _ = mapping_spec
        for name, count in [(name, arity) for name, arity, _ in spec] + calls:
            # A proxied argument is unwrapped on both paths.
            args: List[Any] = [inner] + list(range(1, count))
            args = args[:count]
            assert (outcome(lambda: getattr(generated, name))[0]
                    == outcome(lambda: getattr(plain, name))[0])
            assert (outcome(lambda: getattr(generated, name)(*args))
                    == outcome(lambda: getattr(plain, name)(*args)))
            assert (outcome(lambda: generated._repro_invoke(name, args))
                    == outcome(lambda: plain._repro_invoke(name, args)))

    @settings(max_examples=60, deadline=None)
    @given(mappings(), st.sampled_from(CALL_NAMES), st.integers(-3, 3))
    def test_field_get_and_set(self, mapping_spec, name, value):
        target, expected_type, mapping = build(*mapping_spec)
        generated = make_proxy(target, expected_type, mapping, CHECKER)
        plain = DynamicProxy(target, expected_type, mapping, CHECKER)
        for proxy in (generated, plain):
            target.set_field("Value", 7)
            written = outcome(lambda: setattr(proxy, name, value))
            read = outcome(lambda: getattr(proxy, name))
            if proxy is generated:
                first = (written, target.get_field("Value"), read[0])
            else:
                assert first == (written, target.get_field("Value"), read[0])

    @settings(max_examples=80, deadline=None)
    @given(mappings())
    def test_baked_methods_share_the_call_plans(self, mapping_spec):
        target, expected_type, mapping = build(*mapping_spec)
        cls = proxy_class(mapping)
        assert proxy_class(mapping) is cls and issubclass(cls, DynamicProxy)
        assert cls.__slots__ == ()
        arities = {}
        for match in mapping.methods:
            arities.setdefault(match.expected.name.lower(), []).append(match)
        for match in mapping.methods:
            name, arity = match.expected.name, match.expected.arity
            baked = name in vars(cls)
            assert baked == (len(arities[name.lower()]) == 1
                             and not name.startswith("_")
                             and not hasattr(DynamicProxy, name)
                             and mapping.field(name) is None)
            if baked:
                # Built with the class: calls add no plan of their own.
                plan = mapping.call_plans[(name, arity)]
                proxy = cls(target, expected_type, mapping, CHECKER)
                getattr(proxy, name)(*range(arity))
                proxy._repro_invoke(name, list(range(arity)))
                assert mapping.call_plans[(name, arity)] is plan
        proxy = cls(target, expected_type, mapping, CHECKER)
        assert isinstance(proxy, DynamicProxy)
        assert repr(proxy) == repr(
            DynamicProxy(target, expected_type, mapping, CHECKER))
