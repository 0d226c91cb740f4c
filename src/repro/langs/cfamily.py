"""Shared recursive-descent parser for the three frontends.

C#-like and Java-like sources differ only in their inheritance clause syntax
(``class A : B, IC`` vs ``class A extends B implements IC``).  Member
declarations, statements and expressions are parsed here once,
parameterised by a :class:`Dialect`.  The expression grammar is
table-driven: a dialect's binary, prefix and keyword-literal tables are the
whole difference between C-family and VB expressions, so the VB-like
frontend parses each line's expressions, parameters and type names here too.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from . import ast_nodes as ast
from .lexer import LexError, Token, TokenStream, tokenize


class ParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__("%s (line %d)" % (message, line))
        self.message = message
        self.line = line


VISIBILITIES = ("public", "private", "protected", "internal")
MODIFIER_TOKENS = ("static", "abstract", "final", "virtual", "sealed")

_MODIFIER_CANON = {"sealed": "final"}


#: Precedence of a prefix operator that binds tighter than every binary one.
UNARY = 7


class Dialect:
    """Syntax knobs distinguishing the frontends' grammars.

    The expression tables map an operator or keyword, as written (or
    lower-cased when ``fold_case``), to what it parses into.
    """

    name = "cfamily"
    #: Binary operator -> (precedence, AST operator); all left-associative.
    binary: Dict[str, Tuple[int, str]] = {
        "||": (1, "||"),
        "&&": (2, "&&"),
        "==": (3, "=="), "!=": (3, "!="),
        "<": (4, "<"), "<=": (4, "<="), ">": (4, ">"), ">=": (4, ">="),
        "+": (5, "+"), "-": (5, "-"),
        "*": (6, "*"), "/": (6, "/"), "%": (6, "%"),
    }
    #: Prefix operator -> (precedence of its operand, AST operator).
    prefix: Dict[str, Tuple[int, str]] = {"-": (UNARY, "-"), "!": (UNARY, "!")}
    #: Keyword -> factory of the literal it denotes.
    literals = {
        "true": partial(ast.BoolLit, True),
        "false": partial(ast.BoolLit, False),
        "null": ast.NullLit,
        "this": ast.SelfRef,
    }
    #: Whether keywords match in any case (VB) or only as written.
    fold_case = False
    #: Whether ``new T`` may omit its argument list.
    new_args_optional = False

    def parse_heritage(self, ts: TokenStream) -> Tuple[Optional[str], List[str]]:
        """Parse the superclass/interfaces clause; returns (super, interfaces)."""
        raise NotImplementedError

    def parse_param(self, parser: "Parser") -> ast.ParamDecl:
        """One formal parameter: ``Type name``."""
        type_name = parser._parse_type_name()
        return ast.ParamDecl(parser.ts.expect_ident().value, type_name)

    @staticmethod
    def qualified(ts: TokenStream) -> str:
        """A dotted name: ``a.b.C``."""
        parts = [ts.expect_ident().value]
        while ts.accept_punct("."):
            parts.append(ts.expect_ident().value)
        return ".".join(parts)


class Parser:
    """Parses a compilation unit into :class:`ast.ClassDecl` objects.

    ``tokens``, when given, is the token list to parse instead of
    tokenizing ``source``.
    """

    def __init__(self, source: str, dialect: Dialect,
                 tokens: Optional[List[Token]] = None):
        if tokens is None:
            try:
                tokens = tokenize(source)
            except LexError as exc:
                raise ParseError(exc.message, exc.line)
        self.ts = TokenStream(tokens, fold_case=dialect.fold_case)
        self.dialect = dialect

    # -- compilation unit ----------------------------------------------------

    def parse_unit(self) -> List[ast.ClassDecl]:
        try:
            decls: List[ast.ClassDecl] = []
            while not self.ts.exhausted:
                decls.append(self.parse_class())
            return decls
        except LexError as exc:
            # expect_*() helpers raise LexError; surface a uniform error type.
            raise ParseError(exc.message, exc.line)

    def parse_class(self) -> ast.ClassDecl:
        ts = self.ts
        # Optional class-level visibility; recorded but unused (types are public).
        if ts.at_ident() and ts.peek().value in VISIBILITIES:
            ts.next()
        is_interface = False
        if ts.accept_ident("interface"):
            is_interface = True
        else:
            ts.expect_ident("class")
        name = ts.expect_ident().value
        superclass, interfaces = self.dialect.parse_heritage(ts)
        ts.expect_punct("{")
        fields: List[ast.FieldDecl] = []
        methods: List[ast.MethodDecl] = []
        ctors: List[ast.CtorDecl] = []
        while not ts.accept_punct("}"):
            if ts.exhausted:
                raise ParseError("unexpected end of file in class body", ts.peek().line)
            self._parse_member(name, is_interface, fields, methods, ctors)
        return ast.ClassDecl(
            name,
            superclass,
            interfaces,
            fields,
            methods,
            ctors,
            is_interface=is_interface,
        )

    # -- members ---------------------------------------------------------------

    def _parse_member(self, class_name, is_interface, fields, methods, ctors) -> None:
        ts = self.ts
        visibility = "public"
        modifier_tokens: List[str] = []
        while ts.at_ident() and ts.peek().value in VISIBILITIES + MODIFIER_TOKENS:
            token = ts.next().value
            if token in VISIBILITIES:
                visibility = token
            else:
                modifier_tokens.append(_MODIFIER_CANON.get(token, token))

        # Constructor: ClassName '(' ...
        if ts.at_ident(class_name) and ts.peek(1).kind == Token.PUNCT and ts.peek(1).value == "(":
            ts.next()
            params = self._parse_params()
            body = self._parse_block()
            ctors.append(ast.CtorDecl(params, body, visibility=visibility))
            return

        type_name = self._parse_type_name()
        member_name = ts.expect_ident().value
        if ts.at_punct("("):
            params = self._parse_params()
            body: Optional[List[ast.Stmt]] = None
            if ts.accept_punct(";"):
                body = None  # abstract / interface method
            elif ts.at_punct("{"):
                body = self._parse_block()
            elif not is_interface:
                raise ParseError(
                    "expected method body or ';'", ts.peek().line
                )
            methods.append(
                ast.MethodDecl(
                    member_name,
                    params,
                    type_name,
                    body=body,
                    visibility=visibility,
                    modifier_tokens=modifier_tokens,
                )
            )
        else:
            ts.expect_punct(";")
            fields.append(
                ast.FieldDecl(
                    member_name,
                    type_name,
                    visibility=visibility,
                    modifier_tokens=modifier_tokens,
                )
            )

    def _parse_type_name(self) -> str:
        name = self.dialect.qualified(self.ts)
        # Array suffixes: string[], demo.Person[][], ...
        while self.ts.at_punct("["):
            mark_next = self.ts.peek(1)
            if not (mark_next.kind == Token.PUNCT and mark_next.value == "]"):
                break
            self.ts.next()
            self.ts.next()
            name += "[]"
        return name

    def _parse_params(self) -> List[ast.ParamDecl]:
        ts = self.ts
        ts.expect_punct("(")
        params: List[ast.ParamDecl] = []
        if not ts.at_punct(")"):
            while True:
                params.append(self.dialect.parse_param(self))
                if not ts.accept_punct(","):
                    break
        ts.expect_punct(")")
        return params

    # -- statements ---------------------------------------------------------------

    def _parse_block(self) -> List[ast.Stmt]:
        ts = self.ts
        ts.expect_punct("{")
        stmts: List[ast.Stmt] = []
        while not ts.accept_punct("}"):
            if ts.exhausted:
                raise ParseError("unexpected end of file in block", ts.peek().line)
            stmts.append(self._parse_stmt())
        return stmts

    def _parse_stmt(self) -> ast.Stmt:
        ts = self.ts
        if ts.at_ident("return"):
            ts.next()
            if ts.accept_punct(";"):
                return ast.Return(None)
            value = self._parse_expr()
            ts.expect_punct(";")
            return ast.Return(value)
        if ts.at_ident("if"):
            return self._parse_if()
        if ts.at_ident("while"):
            ts.next()
            ts.expect_punct("(")
            cond = self._parse_expr()
            ts.expect_punct(")")
            body = self._parse_block()
            return ast.While(cond, body)
        if ts.at_ident("for"):
            return self._parse_for()
        if ts.at_ident("var"):
            ts.next()
            name = ts.expect_ident().value
            ts.expect_punct("=")
            init = self._parse_expr()
            ts.expect_punct(";")
            return ast.VarDecl(name, "object", init)
        # Typed local declaration: Type name = expr ;
        if self._looks_like_var_decl():
            type_name = self._parse_type_name()
            name = ts.expect_ident().value
            init: Optional[ast.Expr] = None
            if ts.accept_punct("="):
                init = self._parse_expr()
            ts.expect_punct(";")
            return ast.VarDecl(name, type_name, init)
        return self._parse_expr_or_assign()

    def _looks_like_var_decl(self) -> bool:
        """Lookahead: IDENT (. IDENT)* ([])* IDENT then '=' or ';'."""
        ts = self.ts
        if not ts.at_ident():
            return False
        offset = 1
        while (
            ts.peek(offset).kind == Token.PUNCT
            and ts.peek(offset).value == "."
            and ts.peek(offset + 1).kind == Token.IDENT
        ):
            offset += 2
        while (
            ts.peek(offset).kind == Token.PUNCT
            and ts.peek(offset).value == "["
            and ts.peek(offset + 1).kind == Token.PUNCT
            and ts.peek(offset + 1).value == "]"
        ):
            offset += 2
        if ts.peek(offset).kind != Token.IDENT:
            return False
        trailer = ts.peek(offset + 1)
        return trailer.kind == Token.PUNCT and trailer.value in ("=", ";")

    def _parse_if(self) -> ast.Stmt:
        ts = self.ts
        ts.expect_ident("if")
        ts.expect_punct("(")
        cond = self._parse_expr()
        ts.expect_punct(")")
        then_body = self._parse_block()
        else_body: List[ast.Stmt] = []
        if ts.accept_ident("else"):
            if ts.at_ident("if"):
                else_body = [self._parse_if()]
            else:
                else_body = self._parse_block()
        return ast.If(cond, then_body, else_body)

    def _parse_for(self) -> ast.Stmt:
        ts = self.ts
        ts.expect_ident("for")
        ts.expect_punct("(")
        init: Optional[ast.Stmt] = None
        if not ts.at_punct(";"):
            if self._looks_like_var_decl() or ts.at_ident("var"):
                # Reuse the statement parser; it consumes the ';'.
                init = self._parse_stmt()
            else:
                init = self._parse_assignment_clause()
                ts.expect_punct(";")
        else:
            ts.next()
        if init is not None and not isinstance(init, (ast.VarDecl, ast.Assign,
                                                      ast.FieldAssign, ast.IndexAssign)):
            raise ParseError("for-initialiser must be a declaration or assignment",
                             ts.peek().line)
        cond: Optional[ast.Expr] = None
        if not ts.at_punct(";"):
            cond = self._parse_expr()
        ts.expect_punct(";")
        step: Optional[ast.Stmt] = None
        if not ts.at_punct(")"):
            step = self._parse_assignment_clause()
        ts.expect_punct(")")
        body = self._parse_block()
        return ast.For(init, cond, step, body)

    def _parse_assignment_clause(self) -> ast.Stmt:
        """An assignment or expression without a trailing ';' (for-headers)."""
        ts = self.ts
        expr = self._parse_expr()
        if ts.accept_punct("="):
            value = self._parse_expr()
            return self._assignment_for(expr, value)
        return ast.ExprStmt(expr)

    def _assignment_for(self, target: ast.Expr, value: ast.Expr) -> ast.Stmt:
        if isinstance(target, ast.Name):
            return ast.Assign(target.ident, value)
        if isinstance(target, ast.FieldAccess):
            return ast.FieldAssign(target.obj, target.field, value)
        if isinstance(target, ast.IndexGet):
            return ast.IndexAssign(target.obj, target.index, value)
        raise ParseError("invalid assignment target", self.ts.peek().line)

    def _parse_expr_or_assign(self) -> ast.Stmt:
        ts = self.ts
        expr = self._parse_expr()
        if ts.accept_punct("="):
            value = self._parse_expr()
            ts.expect_punct(";")
            return self._assignment_for(expr, value)
        ts.expect_punct(";")
        return ast.ExprStmt(expr)

    # -- expressions ---------------------------------------------------------------

    def _word(self, token: Token) -> str:
        """The key of ``token`` in the dialect's operator and keyword tables."""
        if token.kind == Token.PUNCT:
            return token.value
        if token.kind == Token.IDENT:
            return token.value.lower() if self.dialect.fold_case else token.value
        return ""

    def _parse_expr(self, min_prec: int = 1) -> ast.Expr:
        lhs = self._parse_unary()
        while True:
            entry = self.dialect.binary.get(self._word(self.ts.peek()))
            if entry is None or entry[0] < min_prec:
                return lhs
            self.ts.next()
            prec, op = entry
            lhs = ast.BinOp(op, lhs, self._parse_expr(prec + 1))

    def _parse_unary(self) -> ast.Expr:
        entry = self.dialect.prefix.get(self._word(self.ts.peek()))
        if entry is None:
            return self._parse_postfix()
        self.ts.next()
        prec, op = entry
        return ast.UnOp(op, self._parse_expr(prec))

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        ts = self.ts
        while True:
            if ts.at_punct("."):
                ts.next()
                member = ts.expect_ident().value
                if ts.at_punct("("):
                    args = self._parse_args()
                    expr = ast.MethodCall(expr, member, args)
                else:
                    expr = ast.FieldAccess(expr, member)
            elif ts.at_punct("["):
                ts.next()
                index = self._parse_expr()
                ts.expect_punct("]")
                expr = ast.IndexGet(expr, index)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        ts = self.ts
        token = ts.peek()
        if token.kind == Token.INT:
            ts.next()
            return ast.IntLit(int(token.value))
        if token.kind == Token.FLOAT:
            ts.next()
            return ast.FloatLit(float(token.value))
        if token.kind == Token.STRING:
            ts.next()
            return ast.StrLit(token.value)
        if token.kind == Token.PUNCT and token.value == "(":
            ts.next()
            inner = self._parse_expr()
            ts.expect_punct(")")
            return inner
        if token.kind == Token.IDENT:
            word = self._word(token)
            if word in self.dialect.literals:
                ts.next()
                return self.dialect.literals[word]()
            if word == "new":
                ts.next()
                type_name = self._parse_type_name()
                if ts.at_punct("{"):
                    # Array literal: new T[] { a, b, c }
                    ts.next()
                    items: List[ast.Expr] = []
                    if not ts.at_punct("}"):
                        while True:
                            items.append(self._parse_expr())
                            if not ts.accept_punct(","):
                                break
                    ts.expect_punct("}")
                    return ast.ListLit(items)
                if self.dialect.new_args_optional and not ts.at_punct("("):
                    return ast.New(type_name, [])
                return ast.New(type_name, self._parse_args())
            ts.next()
            if ts.at_punct("("):
                args = self._parse_args()
                return ast.MethodCall(ast.SelfRef(), token.value, args)
            return ast.Name(token.value)
        raise ParseError("unexpected token %r" % (token.value or "<eof>"), token.line)

    def _parse_args(self) -> List[ast.Expr]:
        ts = self.ts
        ts.expect_punct("(")
        args: List[ast.Expr] = []
        if not ts.at_punct(")"):
            while True:
                args.append(self._parse_expr())
                if not ts.accept_punct(","):
                    break
        ts.expect_punct(")")
        return args
