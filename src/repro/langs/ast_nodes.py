"""Language-neutral abstract syntax shared by every frontend.

Each surface language (C#-like, Java-like, VB-like) parses into these nodes;
a single compiler lowers them to the common IL.  This mirrors how .NET's
languages all target one CTS/CIL — the substrate property the paper builds
type interoperability on top of.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class Node:
    """Base class for all AST nodes."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    pass


class IntLit(Expr):
    def __init__(self, value: int):
        self.value = value

    def __repr__(self) -> str:
        return "IntLit(%d)" % self.value


class FloatLit(Expr):
    def __init__(self, value: float):
        self.value = value

    def __repr__(self) -> str:
        return "FloatLit(%r)" % self.value


class StrLit(Expr):
    def __init__(self, value: str):
        self.value = value

    def __repr__(self) -> str:
        return "StrLit(%r)" % self.value


class BoolLit(Expr):
    def __init__(self, value: bool):
        self.value = value

    def __repr__(self) -> str:
        return "BoolLit(%r)" % self.value


class NullLit(Expr):
    def __repr__(self) -> str:
        return "NullLit()"


class SelfRef(Expr):
    """``this`` / ``Me``."""

    def __repr__(self) -> str:
        return "SelfRef()"


class Name(Expr):
    """A bare identifier: parameter, local or implicit-self field."""

    def __init__(self, ident: str):
        self.ident = ident

    def __repr__(self) -> str:
        return "Name(%s)" % self.ident


class FieldAccess(Expr):
    def __init__(self, obj: Expr, field: str):
        self.obj = obj
        self.field = field

    def __repr__(self) -> str:
        return "FieldAccess(%r.%s)" % (self.obj, self.field)


class MethodCall(Expr):
    """``obj.name(args)``; ``obj`` is ``SelfRef`` for bare calls."""

    def __init__(self, obj: Expr, name: str, args: Sequence[Expr]):
        self.obj = obj
        self.name = name
        self.args = list(args)

    def __repr__(self) -> str:
        return "MethodCall(%r.%s/%d)" % (self.obj, self.name, len(self.args))


class New(Expr):
    def __init__(self, type_name: str, args: Sequence[Expr]):
        self.type_name = type_name
        self.args = list(args)

    def __repr__(self) -> str:
        return "New(%s/%d)" % (self.type_name, len(self.args))


class IndexGet(Expr):
    """``obj[index]``."""

    def __init__(self, obj: Expr, index: Expr):
        self.obj = obj
        self.index = index

    def __repr__(self) -> str:
        return "IndexGet(%r[%r])" % (self.obj, self.index)


class ListLit(Expr):
    """``new T[] { a, b, c }``."""

    def __init__(self, items: Sequence[Expr]):
        self.items = list(items)

    def __repr__(self) -> str:
        return "ListLit(%d)" % len(self.items)


class BinOp(Expr):
    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self) -> str:
        return "BinOp(%s)" % self.op


class UnOp(Expr):
    def __init__(self, op: str, operand: Expr):
        self.op = op
        self.operand = operand

    def __repr__(self) -> str:
        return "UnOp(%s)" % self.op


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    pass


class VarDecl(Stmt):
    def __init__(self, name: str, type_name: str, init: Optional[Expr] = None):
        self.name = name
        self.type_name = type_name
        self.init = init

    def __repr__(self) -> str:
        return "VarDecl(%s: %s)" % (self.name, self.type_name)


class Assign(Stmt):
    """Assignment to a bare name (local or implicit-self field)."""

    def __init__(self, target: str, value: Expr):
        self.target = target
        self.value = value

    def __repr__(self) -> str:
        return "Assign(%s)" % self.target


class FieldAssign(Stmt):
    """Assignment through an explicit receiver: ``obj.field = value``."""

    def __init__(self, obj: Expr, field: str, value: Expr):
        self.obj = obj
        self.field = field
        self.value = value

    def __repr__(self) -> str:
        return "FieldAssign(.%s)" % self.field


class IndexAssign(Stmt):
    """``obj[index] = value``."""

    def __init__(self, obj: Expr, index: Expr, value: Expr):
        self.obj = obj
        self.index = index
        self.value = value

    def __repr__(self) -> str:
        return "IndexAssign()"


class Return(Stmt):
    def __init__(self, value: Optional[Expr] = None):
        self.value = value

    def __repr__(self) -> str:
        return "Return(%s)" % ("void" if self.value is None else "expr")


class If(Stmt):
    def __init__(self, cond: Expr, then_body: Sequence[Stmt], else_body: Sequence[Stmt] = ()):
        self.cond = cond
        self.then_body = list(then_body)
        self.else_body = list(else_body)

    def __repr__(self) -> str:
        return "If(then=%d, else=%d)" % (len(self.then_body), len(self.else_body))


class While(Stmt):
    def __init__(self, cond: Expr, body: Sequence[Stmt]):
        self.cond = cond
        self.body = list(body)

    def __repr__(self) -> str:
        return "While(body=%d)" % len(self.body)


class For(Stmt):
    """C-family ``for (init; cond; step) { body }``; any part optional."""

    def __init__(self, init: Optional[Stmt], cond: Optional[Expr],
                 step: Optional[Stmt], body: Sequence[Stmt]):
        self.init = init
        self.cond = cond
        self.step = step
        self.body = list(body)

    def __repr__(self) -> str:
        return "For(body=%d)" % len(self.body)


class ExprStmt(Stmt):
    def __init__(self, expr: Expr):
        self.expr = expr

    def __repr__(self) -> str:
        return "ExprStmt(%r)" % self.expr


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


class ParamDecl(Node):
    def __init__(self, name: str, type_name: str):
        self.name = name
        self.type_name = type_name

    def __repr__(self) -> str:
        return "ParamDecl(%s: %s)" % (self.name, self.type_name)


class FieldDecl(Node):
    def __init__(self, name: str, type_name: str, visibility: str = "public",
                 modifier_tokens: Sequence[str] = ()):
        self.name = name
        self.type_name = type_name
        self.visibility = visibility
        self.modifier_tokens = list(modifier_tokens)

    def __repr__(self) -> str:
        return "FieldDecl(%s: %s)" % (self.name, self.type_name)


class MethodDecl(Node):
    def __init__(
        self,
        name: str,
        params: Sequence[ParamDecl],
        return_type: str,
        body: Optional[Sequence[Stmt]] = None,
        visibility: str = "public",
        modifier_tokens: Sequence[str] = (),
    ):
        self.name = name
        self.params = list(params)
        self.return_type = return_type
        self.body = list(body) if body is not None else None
        self.visibility = visibility
        self.modifier_tokens = list(modifier_tokens)

    def __repr__(self) -> str:
        return "MethodDecl(%s/%d -> %s)" % (self.name, len(self.params), self.return_type)


class CtorDecl(Node):
    def __init__(
        self,
        params: Sequence[ParamDecl],
        body: Sequence[Stmt],
        visibility: str = "public",
    ):
        self.params = list(params)
        self.body = list(body)
        self.visibility = visibility

    def __repr__(self) -> str:
        return "CtorDecl(/%d)" % len(self.params)


class ClassDecl(Node):
    def __init__(
        self,
        name: str,
        superclass: Optional[str],
        interfaces: Sequence[str],
        fields: Sequence[FieldDecl],
        methods: Sequence[MethodDecl],
        ctors: Sequence[CtorDecl],
        is_interface: bool = False,
    ):
        self.name = name
        self.superclass = superclass
        self.interfaces = list(interfaces)
        self.fields = list(fields)
        self.methods = list(methods)
        self.ctors = list(ctors)
        self.is_interface = is_interface

    def __repr__(self) -> str:
        kind = "interface" if self.is_interface else "class"
        return "ClassDecl(%s %s)" % (kind, self.name)
