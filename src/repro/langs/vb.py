"""VB-like frontend.

A line-oriented Visual-Basic-flavoured syntax, compiled to the same shared
AST (and thus the same IL) as the C-family frontends — demonstrating the
"language interoperability underneath type interoperability" property.

Declarations and statements are read one line at a time.  The tokens come
from the shared tokenizer under VB's lexical rules, and every line is parsed
whole by the shared :class:`~repro.langs.cfamily.Parser` under
:class:`VbDialect`, whose tables give VB's operator precedence: ``Or`` <
``And`` < ``Not`` < comparisons < ``&`` < ``+ -`` < ``* / Mod`` < unary
minus.  ``Not`` takes a comparison as its operand wherever it stands, so
``Not a < b`` means ``Not (a < b)`` and ``a = Not b`` means ``a = (Not b)``.

Example::

    Class Person
        Private name As String
        Public Sub New(n As String)
            Me.name = n
        End Sub
        Public Function GetName() As String
            Return Me.name
        End Function
        Public Sub SetName(n As String)
            Me.name = n
        End Sub
    End Class
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Tuple

from ..cts.types import TypeInfo
from . import ast_nodes as ast
from .cfamily import UNARY, Dialect, ParseError, Parser
from .compiler import compile_with
from .lexer import LexError, Token, TokenStream, tokenize

LANGUAGE = "vb"


class VbParseError(Exception):
    def __init__(self, message: str, line_no: int):
        super().__init__("%s (line %d)" % (message, line_no))
        self.line_no = line_no


class VbDialect(Dialect):
    name = LANGUAGE
    binary = {
        "or": (1, "||"),
        "and": (2, "&&"),
        "=": (3, "=="), "<>": (3, "!="),
        "<": (3, "<"), "<=": (3, "<="), ">": (3, ">"), ">=": (3, ">="),
        "&": (4, "&"),
        "+": (5, "+"), "-": (5, "-"),
        "*": (6, "*"), "/": (6, "/"), "mod": (6, "%"),
    }
    prefix = {"not": (3, "!"), "-": (UNARY, "-")}
    literals = {
        "true": partial(ast.BoolLit, True),
        "false": partial(ast.BoolLit, False),
        "nothing": ast.NullLit,
        "me": ast.SelfRef,
    }
    fold_case = True
    new_args_optional = True

    def parse_param(self, parser: Parser) -> ast.ParamDecl:
        name = parser.ts.expect_ident().value
        parser.ts.expect_ident("As")
        return ast.ParamDecl(name, parser._parse_type_name())


_DIALECT = VbDialect()
_PUNCT = frozenset(["<>", "<=", ">=", *"()=<>,.&+-*/"])


class _Line:
    __slots__ = ("tokens", "number")

    def __init__(self, tokens: List[Token], number: int):
        self.tokens = tokens
        self.number = number

    def is_exactly(self, *words: str) -> bool:
        """Whether the line is just ``words``, in any case."""
        return len(self.tokens) == len(words) and all(
            token.kind == Token.IDENT and token.value.lower() == word.lower()
            for token, word in zip(self.tokens, words)
        )

    def parser(self) -> Parser:
        """A parser over this line's tokens alone."""
        eof = Token(Token.EOF, "", self.number)
        return Parser("", _DIALECT, tokens=self.tokens + [eof])


def _lines(source: str) -> List[_Line]:
    tokens = tokenize(source, line_comment="'", block_comments=False,
                      doubled_quotes=True, punct=_PUNCT)
    out: List[_Line] = []
    for token in tokens[:-1]:
        if out and out[-1].number == token.line:
            out[-1].tokens.append(token)
        else:
            out.append(_Line([token], token.line))
    return out


def _end_of_line(ts: TokenStream) -> None:
    """A line is consumed whole: no token may follow what it declares."""
    if not ts.exhausted:
        token = ts.peek()
        raise VbParseError("unexpected %r at end of line" % token.value, token.line)


# ---------------------------------------------------------------------------
# Declaration / statement parsing
# ---------------------------------------------------------------------------

_VISIBILITY_WORDS = {"public", "private", "protected", "friend"}
_VIS_CANON = {"friend": "internal"}
_MODIFIER_WORDS = {"shared": "static", "mustoverride": "abstract", "notoverridable": "final", "overridable": "virtual"}


class _VbParser:
    def __init__(self, source: str):
        self.lines = _lines(source)
        self.index = 0

    def _peek(self) -> Optional[_Line]:
        return self.lines[self.index] if self.index < len(self.lines) else None

    def _next(self) -> _Line:
        line = self._peek()
        if line is None:
            raise VbParseError("unexpected end of file", 0)
        self.index += 1
        return line

    # -- compilation unit ----------------------------------------------------

    def parse_unit(self) -> List[ast.ClassDecl]:
        decls: List[ast.ClassDecl] = []
        while self._peek() is not None:
            decls.append(self._parse_class())
        return decls

    def _parse_class(self) -> ast.ClassDecl:
        header = self._next()
        ts = header.parser().ts
        if ts.at_ident() and ts.peek().value.lower() in _VISIBILITY_WORDS:
            ts.next()
        is_interface = ts.accept_ident("Interface")
        if not is_interface and not ts.accept_ident("Class"):
            raise VbParseError("expected Class or Interface", header.number)
        name = ts.expect_ident().value
        _end_of_line(ts)

        superclass: Optional[str] = None
        interfaces: List[str] = []
        fields: List[ast.FieldDecl] = []
        methods: List[ast.MethodDecl] = []
        ctors: List[ast.CtorDecl] = []
        end_words = ("End", "Interface") if is_interface else ("End", "Class")

        while True:
            line = self._peek()
            if line is None:
                raise VbParseError("missing End %s" % end_words[1], header.number)
            self._next()
            if line.is_exactly(*end_words):
                break
            parser = line.parser()
            ts = parser.ts
            if ts.accept_ident("Inherits"):
                superclass = _DIALECT.qualified(ts)
            elif ts.accept_ident("Implements"):
                interfaces.append(_DIALECT.qualified(ts))
                while ts.accept_punct(","):
                    interfaces.append(_DIALECT.qualified(ts))
            else:
                self._parse_member(parser, is_interface, fields, methods, ctors)
                continue
            _end_of_line(ts)
        return ast.ClassDecl(
            name, superclass, interfaces, fields, methods, ctors, is_interface=is_interface
        )

    # -- members ---------------------------------------------------------------

    def _parse_member(self, parser: Parser, is_interface, fields, methods, ctors) -> None:
        ts = parser.ts
        visibility = "public"
        modifier_tokens: List[str] = []
        while ts.at_ident() and ts.peek().value.lower() in (_VISIBILITY_WORDS | set(_MODIFIER_WORDS)):
            word = ts.next().value.lower()
            if word in _VISIBILITY_WORDS:
                visibility = _VIS_CANON.get(word, word)
            else:
                modifier_tokens.append(_MODIFIER_WORDS[word])

        if not (ts.at_ident("Sub") or ts.at_ident("Function")):
            # Field: <name> As <Type>
            name = ts.expect_ident().value
            ts.expect_ident("As")
            fields.append(
                ast.FieldDecl(name, parser._parse_type_name(), visibility=visibility,
                              modifier_tokens=modifier_tokens)
            )
            _end_of_line(ts)
            return
        keyword = ts.next().value.lower()
        name = ts.expect_ident().value
        params = parser._parse_params()
        return_type = "void"
        if keyword == "function":
            ts.expect_ident("As")
            return_type = parser._parse_type_name()
        _end_of_line(ts)
        body = None if is_interface else self._parse_body(("End", keyword.capitalize()))
        if keyword == "sub" and name.lower() == "new" and body is not None:
            ctors.append(ast.CtorDecl(params, body, visibility=visibility))
        else:
            methods.append(
                ast.MethodDecl(name, params, return_type, body=body,
                               visibility=visibility, modifier_tokens=modifier_tokens)
            )

    # -- statements ---------------------------------------------------------------

    def _parse_body(self, end_words: Tuple[str, str]) -> List[ast.Stmt]:
        stmts: List[ast.Stmt] = []
        while True:
            line = self._peek()
            if line is None:
                raise VbParseError("missing %s %s" % end_words, 0)
            if line.is_exactly(*end_words):
                self._next()
                return stmts
            stmts.append(self._parse_stmt())

    def _parse_stmt(self) -> ast.Stmt:
        parser = self._next().parser()
        ts = parser.ts
        if ts.accept_ident("If"):
            return self._parse_if(parser)
        if ts.accept_ident("While"):
            cond = parser._parse_expr()
            _end_of_line(ts)
            return ast.While(cond, self._parse_body(("End", "While")))
        if ts.accept_ident("Return"):
            stmt: ast.Stmt = ast.Return(None if ts.exhausted else parser._parse_expr())
        elif ts.accept_ident("Dim"):
            name = ts.expect_ident().value
            ts.expect_ident("As")
            type_name = parser._parse_type_name()
            init = parser._parse_expr() if ts.accept_punct("=") else None
            stmt = ast.VarDecl(name, type_name, init)
        else:
            # Assignment or expression statement.  '=' is also VB's
            # equality, so the target is only a postfix expression.
            target = parser._parse_postfix()
            if ts.accept_punct("="):
                stmt = parser._assignment_for(target, parser._parse_expr())
            else:
                stmt = ast.ExprStmt(target)
        _end_of_line(ts)
        return stmt

    def _parse_if(self, parser: Parser) -> ast.Stmt:
        """The rest of an ``If``/``ElseIf`` line, then its branches up to
        ``End If``; an ``ElseIf`` line nests the rest of the chain."""
        ts = parser.ts
        line = ts.peek().line
        cond = parser._parse_expr()
        ts.expect_ident("Then")
        _end_of_line(ts)
        then_body: List[ast.Stmt] = []
        else_body: List[ast.Stmt] = []
        current = then_body
        while True:
            nxt = self._peek()
            if nxt is None:
                raise VbParseError("missing End If", line)
            if nxt.is_exactly("End", "If"):
                self._next()
                break
            nested = nxt.parser()
            if nested.ts.accept_ident("ElseIf"):
                self._next()
                else_body.append(self._parse_if(nested))
                break
            if nxt.is_exactly("Else"):
                self._next()
                current = else_body
                continue
            current.append(self._parse_stmt())
        return ast.If(cond, then_body, else_body)


def parse(source: str) -> List[ast.ClassDecl]:
    """Parse VB-like source into AST declarations."""
    try:
        return _VbParser(source).parse_unit()
    except (LexError, ParseError) as exc:
        raise VbParseError(exc.message, exc.line)


def compile_source(
    source: str,
    namespace: str = "",
    assembly_name: str = "default",
) -> List[TypeInfo]:
    """Parse and compile VB-like source into CTS types."""
    return compile_with(parse, source, namespace, assembly_name, LANGUAGE)
