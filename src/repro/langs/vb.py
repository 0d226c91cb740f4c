"""VB-like frontend.

A line-oriented Visual-Basic-flavoured syntax, compiled to the same shared
AST (and thus the same IL) as the C-family frontends — demonstrating the
"language interoperability underneath type interoperability" property.

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

from typing import List, Optional, Sequence, Tuple

from ..cts.types import TypeInfo
from . import ast_nodes as ast
from .compiler import compile_with

LANGUAGE = "vb"


class VbParseError(Exception):
    def __init__(self, message: str, line_no: int):
        super().__init__("%s (line %d)" % (message, line_no))
        self.line_no = line_no


# ---------------------------------------------------------------------------
# Line tokenizer
# ---------------------------------------------------------------------------

_PUNCT2 = ("<>", "<=", ">=")
_PUNCT1 = set("()=<>,.&+-*/")


def _tokenize_line(text: str, line_no: int) -> List[str]:
    tokens: List[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "'":
            break  # comment to end of line
        if ch == '"':
            j = i + 1
            out: List[str] = []
            while j < n:
                if text[j] == '"':
                    if j + 1 < n and text[j + 1] == '"':
                        out.append('"')
                        j += 2
                        continue
                    break
                out.append(text[j])
                j += 1
            else:
                raise VbParseError("unterminated string literal", line_no)
            tokens.append('"' + "".join(out))
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(text[i:j])
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        two = text[i:i + 2]
        if two in _PUNCT2:
            tokens.append(two)
            i += 2
            continue
        if ch in _PUNCT1:
            tokens.append(ch)
            i += 1
            continue
        raise VbParseError("unexpected character %r" % ch, line_no)
    return tokens


class _Line:
    __slots__ = ("tokens", "number")

    def __init__(self, tokens: List[str], number: int):
        self.tokens = tokens
        self.number = number

    def starts_with(self, *words: str) -> bool:
        if len(self.tokens) < len(words):
            return False
        return all(
            self.tokens[i].lower() == w.lower() for i, w in enumerate(words)
        )


def _lines(source: str) -> List[_Line]:
    out: List[_Line] = []
    for number, raw in enumerate(source.splitlines(), start=1):
        tokens = _tokenize_line(raw, number)
        if tokens:
            out.append(_Line(tokens, number))
    return out


# ---------------------------------------------------------------------------
# Expression parsing (within one line)
# ---------------------------------------------------------------------------

_VB_KEYWORD_LITERALS = {"true": True, "false": False}


class _ExprParser:
    """Expression grammar with VB's operator precedence:

    ``Or`` < ``And`` < ``Not`` < comparisons < ``&`` < ``+ -`` < ``* / Mod``
    < unary minus < postfix.  Notably ``Not a < b`` means ``Not (a < b)``.
    """

    _OP_CANON = {"=": "==", "<>": "!=", "and": "&&", "or": "||", "mod": "%"}
    _COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")

    def __init__(self, tokens: Sequence[str], pos: int, line_no: int):
        self.tokens = list(tokens)
        self.pos = pos
        self.line_no = line_no

    def peek(self, offset: int = 0) -> Optional[str]:
        idx = self.pos + offset
        return self.tokens[idx] if idx < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise VbParseError("unexpected end of line", self.line_no)
        self.pos += 1
        return token

    def expect(self, value: str) -> None:
        token = self.next()
        if token.lower() != value.lower():
            raise VbParseError("expected %r, found %r" % (value, token), self.line_no)

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    # -- grammar -------------------------------------------------------------

    def _binary_level(self, operators: Sequence[str], next_level) -> ast.Expr:
        lhs = next_level()
        while True:
            token = self.peek()
            if token is None or token.lower() not in operators:
                return lhs
            self.next()
            rhs = next_level()
            canon = self._OP_CANON.get(token.lower(), token.lower())
            lhs = ast.BinOp(canon, lhs, rhs)

    def parse_expr(self, min_prec: int = 1) -> ast.Expr:
        return self.parse_or()

    def parse_or(self) -> ast.Expr:
        return self._binary_level(("or",), self.parse_and)

    def parse_and(self) -> ast.Expr:
        return self._binary_level(("and",), self.parse_not)

    def parse_not(self) -> ast.Expr:
        token = self.peek()
        if token is not None and token.lower() == "not":
            self.next()
            return ast.UnOp("!", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> ast.Expr:
        return self._binary_level(self._COMPARISONS, self.parse_concat)

    def parse_concat(self) -> ast.Expr:
        return self._binary_level(("&",), self.parse_add)

    def parse_add(self) -> ast.Expr:
        return self._binary_level(("+", "-"), self.parse_mul)

    def parse_mul(self) -> ast.Expr:
        return self._binary_level(("*", "/", "mod"), self.parse_unary)

    def parse_unary(self) -> ast.Expr:
        if self.peek() == "-":
            self.next()
            return ast.UnOp("-", self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while self.peek() == ".":
            self.next()
            member = self.next()
            if self.peek() == "(":
                args = self.parse_args()
                expr = ast.MethodCall(expr, member, args)
            else:
                expr = ast.FieldAccess(expr, member)
        return expr

    def parse_primary(self) -> ast.Expr:
        token = self.next()
        low = token.lower()
        if token.startswith('"'):
            return ast.StrLit(token[1:])
        if token[0].isdigit():
            if "." in token:
                return ast.FloatLit(float(token))
            return ast.IntLit(int(token))
        if low in _VB_KEYWORD_LITERALS:
            return ast.BoolLit(_VB_KEYWORD_LITERALS[low])
        if low == "nothing":
            return ast.NullLit()
        if low == "me":
            return ast.SelfRef()
        if low == "new":
            type_name = self.next()
            while self.peek() == "." and not self.at_end():
                self.next()
                type_name += "." + self.next()
            args = self.parse_args() if self.peek() == "(" else []
            return ast.New(type_name, args)
        if token == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if token[0].isalpha() or token[0] == "_":
            if self.peek() == "(":
                args = self.parse_args()
                return ast.MethodCall(ast.SelfRef(), token, args)
            return ast.Name(token)
        raise VbParseError("unexpected token %r" % token, self.line_no)

    def parse_args(self) -> List[ast.Expr]:
        self.expect("(")
        args: List[ast.Expr] = []
        if self.peek() != ")":
            while True:
                args.append(self.parse_expr())
                if self.peek() == ",":
                    self.next()
                    continue
                break
        self.expect(")")
        return args


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
        tokens = [t.lower() for t in header.tokens]
        is_interface = False
        offset = 0
        if tokens[0] in _VISIBILITY_WORDS:
            offset = 1
        if offset >= len(tokens):
            raise VbParseError("expected Class or Interface", header.number)
        if tokens[offset] == "interface":
            is_interface = True
        elif tokens[offset] != "class":
            raise VbParseError("expected Class or Interface", header.number)
        if offset + 1 >= len(header.tokens):
            raise VbParseError("missing class name", header.number)
        name = header.tokens[offset + 1]

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
            if line.starts_with(*end_words):
                self._next()
                break
            if line.starts_with("Inherits"):
                self._next()
                superclass = "".join(line.tokens[1:])
                continue
            if line.starts_with("Implements"):
                self._next()
                interfaces.extend(self._split_names(line.tokens[1:]))
                continue
            self._parse_member(line, is_interface, fields, methods, ctors)
        return ast.ClassDecl(
            name, superclass, interfaces, fields, methods, ctors, is_interface=is_interface
        )

    @staticmethod
    def _split_names(tokens: Sequence[str]) -> List[str]:
        names: List[str] = []
        current: List[str] = []
        for token in tokens:
            if token == ",":
                names.append("".join(current))
                current = []
            else:
                current.append(token)
        if current:
            names.append("".join(current))
        return names

    # -- members ---------------------------------------------------------------

    def _parse_member(self, line: _Line, is_interface, fields, methods, ctors) -> None:
        self._next()
        tokens = line.tokens
        pos = 0
        visibility = "public"
        modifier_tokens: List[str] = []
        while pos < len(tokens) and tokens[pos].lower() in (_VISIBILITY_WORDS | set(_MODIFIER_WORDS)):
            word = tokens[pos].lower()
            if word in _VISIBILITY_WORDS:
                visibility = _VIS_CANON.get(word, word)
            else:
                modifier_tokens.append(_MODIFIER_WORDS[word])
            pos += 1
        if pos >= len(tokens):
            raise VbParseError("incomplete member declaration", line.number)

        keyword = tokens[pos].lower()
        if keyword == "sub":
            name = tokens[pos + 1]
            params = self._parse_param_list(tokens, pos + 2, line.number)
            if is_interface:
                methods.append(
                    ast.MethodDecl(name, params, "void", body=None,
                                   visibility=visibility, modifier_tokens=modifier_tokens)
                )
                return
            body = self._parse_body(("End", "Sub"))
            if name.lower() == "new":
                ctors.append(ast.CtorDecl(params, body, visibility=visibility))
            else:
                methods.append(
                    ast.MethodDecl(name, params, "void", body=body,
                                   visibility=visibility, modifier_tokens=modifier_tokens)
                )
            return
        if keyword == "function":
            name = tokens[pos + 1]
            parser = _ExprParser(tokens, pos + 2, line.number)
            params = self._parse_params_with(parser)
            parser.expect("As")
            return_type = self._parse_type_name_with(parser)
            if is_interface:
                methods.append(
                    ast.MethodDecl(name, params, return_type, body=None,
                                   visibility=visibility, modifier_tokens=modifier_tokens)
                )
                return
            body = self._parse_body(("End", "Function"))
            methods.append(
                ast.MethodDecl(name, params, return_type, body=body,
                               visibility=visibility, modifier_tokens=modifier_tokens)
            )
            return
        # Field: <name> As <Type>
        name = tokens[pos]
        if pos + 1 >= len(tokens) or tokens[pos + 1].lower() != "as":
            raise VbParseError("expected 'As' in field declaration", line.number)
        type_name = "".join(tokens[pos + 2:])
        fields.append(
            ast.FieldDecl(name, type_name, visibility=visibility, modifier_tokens=modifier_tokens)
        )

    def _parse_param_list(self, tokens: Sequence[str], pos: int, line_no: int) -> List[ast.ParamDecl]:
        parser = _ExprParser(tokens, pos, line_no)
        return self._parse_params_with(parser)

    @staticmethod
    def _parse_params_with(parser: _ExprParser) -> List[ast.ParamDecl]:
        parser.expect("(")
        params: List[ast.ParamDecl] = []
        if parser.peek() != ")":
            while True:
                pname = parser.next()
                parser.expect("As")
                type_name = _VbParser._parse_type_name_with(parser)
                params.append(ast.ParamDecl(pname, type_name))
                if parser.peek() == ",":
                    parser.next()
                    continue
                break
        parser.expect(")")
        return params

    @staticmethod
    def _parse_type_name_with(parser: _ExprParser) -> str:
        parts = [parser.next()]
        while parser.peek() == ".":
            parser.next()
            parts.append(parser.next())
        return ".".join(parts)

    # -- statements ---------------------------------------------------------------

    def _parse_body(self, end_words: Tuple[str, str]) -> List[ast.Stmt]:
        stmts: List[ast.Stmt] = []
        while True:
            line = self._peek()
            if line is None:
                raise VbParseError("missing %s %s" % end_words, 0)
            if line.starts_with(*end_words):
                self._next()
                return stmts
            stmts.append(self._parse_stmt())

    def _parse_stmt(self) -> ast.Stmt:
        line = self._next()
        tokens = line.tokens
        first = tokens[0].lower()
        if first == "return":
            if len(tokens) == 1:
                return ast.Return(None)
            parser = _ExprParser(tokens, 1, line.number)
            return ast.Return(parser.parse_expr())
        if first == "dim":
            name = tokens[1]
            if len(tokens) < 4 or tokens[2].lower() != "as":
                raise VbParseError("expected 'Dim name As Type'", line.number)
            parser = _ExprParser(tokens, 3, line.number)
            type_name = self._parse_type_name_with(parser)
            init: Optional[ast.Expr] = None
            if parser.peek() == "=":
                parser.next()
                init = parser.parse_expr()
            return ast.VarDecl(name, type_name, init)
        if first == "if":
            return self._parse_if(line)
        if first == "while":
            parser = _ExprParser(tokens, 1, line.number)
            cond = parser.parse_expr()
            body = self._parse_body(("End", "While"))
            return ast.While(cond, body)
        # Assignment or expression statement.
        parser = _ExprParser(tokens, 0, line.number)
        target = parser.parse_postfix()
        if parser.peek() == "=":
            parser.next()
            value = parser.parse_expr()
            if isinstance(target, ast.Name):
                return ast.Assign(target.ident, value)
            if isinstance(target, ast.FieldAccess):
                return ast.FieldAssign(target.obj, target.field, value)
            raise VbParseError("invalid assignment target", line.number)
        return ast.ExprStmt(target)

    def _parse_if(self, line: _Line) -> ast.Stmt:
        tokens = line.tokens
        if tokens[-1].lower() != "then":
            raise VbParseError("multi-line If must end with Then", line.number)
        parser = _ExprParser(tokens[:-1], 1, line.number)
        cond = parser.parse_expr()
        then_body: List[ast.Stmt] = []
        else_body: List[ast.Stmt] = []
        current = then_body
        while True:
            nxt = self._peek()
            if nxt is None:
                raise VbParseError("missing End If", line.number)
            if nxt.starts_with("End", "If"):
                self._next()
                break
            if nxt.starts_with("ElseIf"):
                nested_line = self._next()
                nested = self._parse_if_tail(nested_line)
                else_body.append(nested)
                return ast.If(cond, then_body, else_body)
            if nxt.starts_with("Else"):
                self._next()
                current = else_body
                continue
            current.append(self._parse_stmt())
        return ast.If(cond, then_body, else_body)

    def _parse_if_tail(self, line: _Line) -> ast.Stmt:
        """Parse the remainder of an ``ElseIf ... Then`` chain."""
        tokens = line.tokens
        if tokens[-1].lower() != "then":
            raise VbParseError("ElseIf must end with Then", line.number)
        parser = _ExprParser(tokens[:-1], 1, line.number)
        cond = parser.parse_expr()
        then_body: List[ast.Stmt] = []
        else_body: List[ast.Stmt] = []
        current = then_body
        while True:
            nxt = self._peek()
            if nxt is None:
                raise VbParseError("missing End If", line.number)
            if nxt.starts_with("End", "If"):
                self._next()
                break
            if nxt.starts_with("ElseIf"):
                nested_line = self._next()
                else_body.append(self._parse_if_tail(nested_line))
                return ast.If(cond, then_body, else_body)
            if nxt.starts_with("Else"):
                self._next()
                current = else_body
                continue
            current.append(self._parse_stmt())
        return ast.If(cond, then_body, else_body)


def parse(source: str) -> List[ast.ClassDecl]:
    """Parse VB-like source into AST declarations."""
    return _VbParser(source).parse_unit()


def compile_source(
    source: str,
    namespace: str = "",
    assembly_name: str = "default",
) -> List[TypeInfo]:
    """Parse and compile VB-like source into CTS types."""
    return compile_with(parse, source, namespace, assembly_name, LANGUAGE)
