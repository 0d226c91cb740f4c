"""The VB-like and C#-like frontends parse one expression grammar: the same
expression, written in each language, compiles to the same IL body."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.langs.csharp import compile_source as compile_cs
from repro.langs.vb import compile_source as compile_vb

#: (VB spelling, C# spelling) of every binary operator both languages have.
BINARY = [
    ("+", "+"), ("-", "-"), ("*", "*"), ("/", "/"), ("Mod", "%"),
    ("=", "=="), ("<>", "!="), ("<", "<"), ("<=", "<="), (">", ">"),
    (">=", ">="), ("And", "&&"), ("Or", "||"),
]
PREFIX = [("Not ", "!"), ("-", "-")]


def vb_body(expression):
    source = """
    Class M
        Public Function F(a As Integer, b As Integer) As Integer
            Return %s
        End Function
    End Class
    """ % expression
    return compile_vb(source, namespace="x")[0].find_method("F").body


def cs_body(expression):
    source = "class M { public int F(int a, int b) { return %s; } }" % expression
    return compile_cs(source, namespace="x")[0].find_method("F").body


leaves = st.one_of(
    st.sampled_from(["a", "b"]),
    st.integers(min_value=0, max_value=99).map(str),
).map(lambda text: (text, text))


def extend(children):
    binary = st.tuples(st.sampled_from(BINARY), children, children).map(
        lambda t: ("(%s %s %s)" % (t[1][0], t[0][0], t[2][0]),
                   "(%s %s %s)" % (t[1][1], t[0][1], t[2][1])))
    prefix = st.tuples(st.sampled_from(PREFIX), children).map(
        lambda t: ("(%s%s)" % (t[0][0], t[1][0]), "(%s%s)" % (t[0][1], t[1][1])))
    return st.one_of(binary, prefix)


expressions = st.recursive(leaves, extend, max_leaves=12)


class TestSameIl:
    @settings(max_examples=150, deadline=None)
    @given(expressions)
    def test_parenthesized_expression_compiles_alike(self, pair):
        vb, cs = pair
        assert vb_body(vb) == cs_body(cs)

    @pytest.mark.parametrize("vb, cs", [
        # Not after a binary operator or unary minus is the operator.
        ("a = Not b", "a == !b"),
        ("-Not (a > b)", "-!(a > b)"),
        ("a + Not (b)", "a + !b"),
        # Not takes a comparison as its operand, and binds tighter than And.
        ("Not a < b And b <> 0", "!(a < b) && b != 0"),
        ("a = Not b < 1 Or b", "a == !(b < 1) || b"),
        ("Not Not a = b", "!!(a == b)"),
        # VB's comparisons share one level, left to right; C# ranks ==
        # below <.
        ("a < b = a > b", "((a < b) == a) > b"),
        ("a = b < 1", "(a == b) < 1"),
    ])
    def test_precedence_matches_csharp_reading(self, vb, cs):
        assert vb_body(vb) == cs_body(cs)
