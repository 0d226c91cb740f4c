"""Tests for the type registry."""

import pytest

from repro.cts.builder import TypeBuilder
from repro.cts.members import TypeRef
from repro.cts.registry import DuplicateTypeError, TypeNotFoundError, TypeRegistry
from repro.cts.types import INT, OBJECT, STRING


@pytest.fixture
def registry():
    return TypeRegistry()


@pytest.fixture
def some_type():
    return TypeBuilder("demo.T").field("f", "int").build()


class TestRegistration:
    def test_register_and_get(self, registry, some_type):
        registry.register(some_type)
        assert registry.get("demo.T") is some_type

    def test_register_same_identity_idempotent(self, registry, some_type):
        registry.register(some_type)
        twin = TypeBuilder("demo.T").field("f", "int").build()
        assert registry.register(twin) is some_type

    def test_register_conflicting_identity_raises(self, registry, some_type):
        registry.register(some_type)
        other = TypeBuilder("demo.T").field("g", "string").build()
        with pytest.raises(DuplicateTypeError):
            registry.register(other)

    def test_replace_allows_conflict(self, registry, some_type):
        registry.register(some_type)
        other = TypeBuilder("demo.T").field("g", "string").build()
        registry.register(other, replace=True)
        assert registry.get("demo.T") is other

    def test_register_all(self, registry):
        types = [TypeBuilder("a.A").build(), TypeBuilder("a.B").build()]
        registry.register_all(types)
        assert registry.get("a.A") is not None
        assert registry.get("a.B") is not None


class TestLookup:
    def test_builtins_preloaded(self, registry):
        assert registry.get("System.Int32") is INT
        assert registry.get("System.Object") is OBJECT

    def test_builtin_alias_lookup(self, registry):
        assert registry.get("int") is INT

    def test_get_by_guid(self, registry, some_type):
        registry.register(some_type)
        assert registry.get_by_guid(some_type.guid) is some_type

    def test_require_raises_for_unknown(self, registry):
        with pytest.raises(TypeNotFoundError):
            registry.require("no.Such")

    def test_contains_name(self, registry, some_type):
        registry.register(some_type)
        assert registry.contains_name("demo.T")
        assert registry.contains_name("string")
        assert not registry.contains_name("no.Such")


class TestResolve:
    def test_resolve_by_name(self, registry, some_type):
        registry.register(some_type)
        ref = TypeRef("demo.T")
        assert registry.resolve(ref) is some_type
        assert ref.is_resolved

    def test_resolve_by_guid_beats_name(self, registry, some_type):
        registry.register(some_type)
        ref = TypeRef("wrong.Name", guid=some_type.guid)
        assert registry.resolve(ref) is some_type

    def test_resolve_memoizes(self, registry, some_type):
        registry.register(some_type)
        ref = TypeRef("demo.T")
        registry.resolve(ref)
        assert ref.resolved is some_type

    def test_try_resolve_returns_none(self, registry):
        assert registry.try_resolve(TypeRef("no.Such")) is None

    def test_resolve_unknown_raises(self, registry):
        with pytest.raises(TypeNotFoundError):
            registry.resolve(TypeRef("no.Such"))


class TestIteration:
    def test_user_types_excludes_builtins(self, registry, some_type):
        registry.register(some_type)
        users = registry.user_types()
        assert users == [some_type]

    def test_len_counts_everything(self, registry, some_type):
        before = len(registry)
        registry.register(some_type)
        assert len(registry) == before + 1


class TestShadowRegistration:
    """Version coexistence: same full name, different identities."""

    def _versions(self):
        v1 = TypeBuilder("app.T", assembly_name="v1").field("a", "int").build()
        v2 = (
            TypeBuilder("app.T", assembly_name="v2")
            .field("a", "int")
            .field("b", "string")
            .build()
        )
        return v1, v2

    def test_shadow_keeps_both_by_guid(self, registry):
        v1, v2 = self._versions()
        registry.register(v1)
        registry.register(v2, shadow=True)
        assert registry.get_by_guid(v1.guid) is v1
        assert registry.get_by_guid(v2.guid) is v2

    def test_name_lookup_keeps_first(self, registry):
        v1, v2 = self._versions()
        registry.register(v1)
        registry.register(v2, shadow=True)
        assert registry.get("app.T") is v1

    def test_shadow_same_identity_is_noop(self, registry):
        v1, _ = self._versions()
        registry.register(v1)
        twin = TypeBuilder("app.T", assembly_name="v1").field("a", "int").build()
        assert registry.register(twin, shadow=True) is v1

    def test_without_shadow_still_raises(self, registry):
        v1, v2 = self._versions()
        registry.register(v1)
        with pytest.raises(DuplicateTypeError):
            registry.register(v2)

    def test_plain_registration_claims_a_shadow_held_name(self, registry):
        """A name only a shadow load holds yields to a later plain
        registration of another identity; the shadowed type still
        resolves by GUID and the epoch moves."""
        v1, v2 = self._versions()
        registry.register(v2, shadow=True)
        assert registry.get("app.T") is v2
        before = registry.epoch
        assert registry.register(v1) is v1
        assert registry.epoch > before
        assert registry.get("app.T") is v1
        assert registry.get_by_guid(v2.guid) is v2
        with pytest.raises(DuplicateTypeError):
            registry.register(v2)

    def test_plain_reregistration_ends_the_shadow_hold(self, registry):
        v1, v2 = self._versions()
        registry.register(v2, shadow=True)
        registry.register(v2)
        with pytest.raises(DuplicateTypeError):
            registry.register(v1)

    def test_declared_interest_after_a_shadow_code_load(self):
        """The code-fetch path loads with ``shadow=True``; a subscriber
        that got another ``demo.a.Person`` that way can still register
        the Person it wants to subscribe with."""
        from repro.fixtures import person_csharp
        from repro.langs.csharp import compile_source
        from repro.runtime.loader import Runtime

        other = compile_source(
            "class Person { private int age; }",
            namespace="demo.a", assembly_name="person-a")[0]
        runtime = Runtime()
        runtime.load_type(other, shadow=True)
        wanted = person_csharp()
        assert runtime.registry.register(wanted) is wanted
        assert runtime.registry.get("demo.a.Person") is wanted
        assert runtime.registry.get_by_guid(other.guid) is other
