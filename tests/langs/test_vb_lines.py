"""The VB-like frontend reads every line whole, through the shared grammar."""

import pytest

from repro.langs import ast_nodes as ast
from repro.langs.vb import VbParseError, parse


def method_body(*lines):
    source = "\n".join([
        "Class C",
        "Public Function F(a As Integer, b As Integer) As Integer",
        *lines,
        "End Function",
        "End Class",
    ])
    return parse(source)[0].methods[0].body


class TestTrailingTokens:
    @pytest.mark.parametrize("line", [
        "Return a + 1 2",
        "Dim x As Integer = 1 2",
        "a = b 2",
        "Me.G(a) b",
        "a + 1",
        "Return Me.G(a) (b)",
    ])
    def test_statement_with_leftover_tokens_is_rejected(self, line):
        with pytest.raises(VbParseError):
            method_body(line, "Return a")

    @pytest.mark.parametrize("lines", [
        ("If a b Then", "Return a", "End If"),
        ("If a Then b", "Return a", "End If"),
        ("While a b", "a = a - 1", "End While"),
        ("If a Then", "Return a", "ElseIf b a Then", "Return b", "End If"),
    ])
    def test_condition_with_leftover_tokens_is_rejected(self, lines):
        with pytest.raises(VbParseError):
            method_body(*lines)

    @pytest.mark.parametrize("line", [
        "Public x As Integer Foo",
        "Inherits Base Other",
        "Implements IA IB",
    ])
    def test_declaration_with_leftover_tokens_is_rejected(self, line):
        with pytest.raises(VbParseError):
            parse("Class C\n%s\nEnd Class\n" % line)

    @pytest.mark.parametrize("lines", [
        ("If a Then", "Return a", "Else b", "Return b", "End If"),
        ("If a Then", "Return a", "End If b"),
        ("While a", "a = a - 1", "End While a"),
    ])
    def test_block_line_with_leftover_tokens_is_rejected(self, lines):
        with pytest.raises(VbParseError):
            method_body(*lines)

    def test_end_line_with_leftover_tokens_is_rejected(self):
        with pytest.raises(VbParseError):
            parse("Class C\nPublic Sub S()\nEnd Sub S\nEnd Class\n")
        with pytest.raises(VbParseError):
            parse("Class C\nEnd Class C\n")

    def test_complete_lines_parse(self):
        body = method_body("Dim x As Integer = a + 1", "x = x * b", "Return x")
        assert [type(stmt) for stmt in body] == [ast.VarDecl, ast.Assign, ast.Return]


class TestNotAfterAnOperator:
    def test_not_after_comparison_is_the_operator(self):
        (stmt,) = method_body("Return a = Not b")
        assert isinstance(stmt.value, ast.BinOp) and stmt.value.op == "=="
        assert isinstance(stmt.value.rhs, ast.UnOp) and stmt.value.rhs.op == "!"

    def test_not_after_unary_minus(self):
        (stmt,) = method_body("Return -Not a")
        assert stmt.value.op == "-" and stmt.value.operand.op == "!"

    def test_keywords_match_in_any_case(self):
        (stmt,) = method_body("RETURN a MOD b = NOT TRUE")
        assert stmt.value.op == "=="
        assert stmt.value.lhs.op == "%"
        assert isinstance(stmt.value.rhs.operand, ast.BoolLit)


class TestLexicalRules:
    def test_doubled_quote_and_backslash_in_string(self):
        (stmt,) = method_body('Return "say ""hi"" \\n"')
        assert stmt.value.value == 'say "hi" \\n'

    def test_character_outside_vb_is_rejected(self):
        with pytest.raises(VbParseError):
            method_body("Return a ; b")
