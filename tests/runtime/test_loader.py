"""Tests for the runtime loader: assemblies, inheritance, dispatch."""

import pytest

from repro.core import ConformanceChecker, ConformanceOptions
from repro.cts.assembly import Assembly
from repro.cts.builder import TypeBuilder
from repro.fixtures import person_assembly_pair
from repro.il.interp import MAX_CALL_DEPTH, IlLimitExceeded
from repro.langs.csharp import compile_source
from repro.remoting.dynamic import DynamicProxy, wrap
from repro.runtime.loader import (
    AbstractMethodError,
    ConstructorNotFoundError,
    Runtime,
    default_field_value,
)
from repro.runtime.objects import UnknownMethodError
from repro.cts.members import TypeRef
from repro.cts.types import BOOL, DOUBLE, INT, STRING


class TestLoading:
    def test_load_assembly_registers_types(self):
        runtime = Runtime()
        asm_a, _ = person_assembly_pair()
        runtime.load_assembly(asm_a)
        assert runtime.registry.get("demo.a.Person") is not None
        assert runtime.has_assembly("person-a")
        assert runtime.loaded_assemblies() == ["person-a"]

    def test_load_type_direct(self):
        runtime = Runtime()
        info = TypeBuilder("x.T").build()
        runtime.load_type(info)
        assert runtime.registry.get("x.T") is info


class TestDefaults:
    @pytest.mark.parametrize(
        "type_info,expected",
        [(INT, 0), (DOUBLE, 0.0), (BOOL, False), (STRING, None)],
    )
    def test_default_field_value(self, type_info, expected):
        assert default_field_value(TypeRef.to(type_info)) == expected

    def test_fields_initialized_with_defaults(self):
        types = compile_source(
            "class C { public int n; public bool b; public string s; }",
            namespace="t",
        )
        runtime = Runtime()
        runtime.load_type(types[0])
        obj = runtime.instantiate(types[0])
        assert obj.n == 0
        assert obj.b is False
        assert obj.s is None


class TestInstantiation:
    def test_implicit_default_ctor(self):
        runtime = Runtime()
        info = TypeBuilder("x.T").field("f", "int").build()
        runtime.load_type(info)
        assert runtime.instantiate(info).f == 0

    def test_missing_ctor_arity(self):
        runtime = Runtime()
        info = TypeBuilder("x.T").build()
        runtime.load_type(info)
        with pytest.raises(ConstructorNotFoundError):
            runtime.instantiate(info, [1, 2])

    def test_raw_instance_skips_ctor(self):
        runtime = Runtime()
        asm_a, _ = person_assembly_pair()
        runtime.load_assembly(asm_a)
        info = runtime.registry.require("demo.a.Person")
        raw = runtime.raw_instance(info, {"name": "preset"})
        assert raw.GetName() == "preset"

    def test_new_instance_by_name(self):
        runtime = Runtime()
        asm_a, _ = person_assembly_pair()
        runtime.load_assembly(asm_a)
        assert runtime.new_instance("demo.a.Person", ["N"]).GetName() == "N"


class TestInheritance:
    def _family(self):
        return compile_source(
            """
            class Animal {
                public string kind;
                public Animal() { this.kind = "animal"; }
                public string Describe() { return "a " + this.kind; }
                public string Kind() { return this.kind; }
            }
            class Dog : Animal {
                public Dog() { this.kind = "dog"; }
                public string Bark() { return "woof"; }
            }
            """,
            namespace="zoo",
        )

    def test_inherited_method_dispatch(self):
        runtime = Runtime()
        for info in self._family():
            runtime.load_type(info)
        dog = runtime.new_instance("zoo.Dog")
        assert dog.invoke("Bark") == "woof"
        assert dog.invoke("Describe") == "a dog"  # inherited, sees subclass field

    def test_inherited_fields_present(self):
        runtime = Runtime()
        for info in self._family():
            runtime.load_type(info)
        dog = runtime.new_instance("zoo.Dog")
        assert "kind" in dog.fields

    def test_override_wins(self):
        types = compile_source(
            """
            class Base {
                public string Who() { return "base"; }
            }
            class Derived : Base {
                public string Who() { return "derived"; }
            }
            """,
            namespace="o",
        )
        runtime = Runtime()
        for info in types:
            runtime.load_type(info)
        derived = runtime.new_instance("o.Derived")
        assert derived.invoke("Who") == "derived"


class TestInvocationErrors:
    def test_unknown_method(self):
        runtime = Runtime()
        asm_a, _ = person_assembly_pair()
        runtime.load_assembly(asm_a)
        person = runtime.new_instance("demo.a.Person", ["x"])
        with pytest.raises(UnknownMethodError):
            runtime.invoke(person, "Nope")

    def test_abstract_method(self):
        runtime = Runtime()
        info = TypeBuilder("x.A").method("M", [], "void").build()  # no body
        runtime.load_type(info)
        obj = runtime.instantiate(info)
        with pytest.raises(AbstractMethodError):
            obj.invoke("M")

    def test_bad_body_kind(self):
        runtime = Runtime()
        info = TypeBuilder("x.A").method("M", [], "void", body="not runnable").build()
        runtime.load_type(info)
        obj = runtime.instantiate(info)
        with pytest.raises(TypeError):
            obj.invoke("M")

    def test_error_messages_name_the_member(self):
        runtime = Runtime()
        info = (TypeBuilder("x.A").method("M", [], "void")
                .method("B", [], "void", body="not runnable").build())
        runtime.load_type(info)
        obj = runtime.instantiate(info)
        with pytest.raises(AbstractMethodError, match=r"^x\.A\.M has no body$"):
            obj.M()
        with pytest.raises(TypeError, match=r"unsupported body kind for x\.A\.B"):
            obj.invoke("B")


class TestCallDepth:
    """Nothing bounds IL recursion but the call-depth cap: a runaway must
    surface as an IlError, never as Python's RecursionError."""

    @pytest.mark.parametrize("source,entry", [
        ("class R { public int F(int n) { return this.F(n + 1); } }", "F"),
        ("class R { public R Next; public R(int n) { this.Next = new R(n + 1); } }",
         None),
    ])
    def test_runaway_recursion_raises_il_limit(self, source, entry):
        runtime = Runtime()
        info = compile_source(source, namespace="t")[0]
        runtime.load_type(info)
        with pytest.raises(IlLimitExceeded, match="call depth"):
            if entry is None:
                runtime.instantiate(info, [0])
            else:
                runtime.instantiate(info).invoke(entry, 0)

    def test_bounded_recursion_runs_and_the_cap_resets(self):
        source = """
        class R {
            public int Down(int n) {
                if (n <= 0) { return 0; }
                return this.Down(n - 1) + 1;
            }
            public int Forever(int n) { return this.Forever(n + 1); }
        }
        """
        runtime = Runtime()
        info = compile_source(source, namespace="t")[0]
        runtime.load_type(info)
        obj = runtime.instantiate(info)
        depth = MAX_CALL_DEPTH - 1
        assert obj.invoke("Down", depth) == depth
        with pytest.raises(IlLimitExceeded):
            obj.invoke("Down", depth + 1)
        with pytest.raises(IlLimitExceeded):
            obj.invoke("Forever", 0)
        assert obj.invoke("Down", depth) == depth  # nothing left counted

    def test_the_cap_counts_across_runtimes_and_proxies(self):
        """Two runtimes whose objects call each other through dynamic
        proxies share one cap: the nesting is bounded in total, not per
        runtime."""
        source = """
        class Node {
            public Node Peer;
            public int Down(int n) {
                if (n <= 0) { return 0; }
                return this.Peer.Down(n - 1) + 1;
            }
        }
        """
        checker = ConformanceChecker(options=ConformanceOptions.pragmatic())
        nodes = []
        # The second side spells the method "down": conformant, but only
        # through a proxy that renames the call.
        for namespace, text in (("a", source), ("b", source.replace("Down", "down"))):
            runtime = Runtime()
            info = compile_source(text, namespace=namespace)[0]
            runtime.load_type(info)
            nodes.append((runtime.instantiate(info), info))
        (a, a_type), (b, b_type) = nodes
        a.set_field("Peer", wrap(b, a_type, checker))
        b.set_field("Peer", wrap(a, b_type, checker))
        assert isinstance(a.get_field("Peer"), DynamicProxy)
        assert isinstance(b.get_field("Peer"), DynamicProxy)
        depth = MAX_CALL_DEPTH - 1
        assert a.invoke("Down", depth) == depth
        with pytest.raises(IlLimitExceeded, match="call depth"):
            a.invoke("Down", depth + 1)
        assert b.invoke("down", depth) == depth  # nothing left counted
