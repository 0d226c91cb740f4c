"""Lowering from the shared AST to common IL and CTS type objects.

One compiler serves every frontend: once a source file has been parsed into
``repro.langs.ast_nodes`` declarations, this module produces
:class:`~repro.cts.types.TypeInfo` objects whose method bodies are
:class:`~repro.il.instructions.MethodBody` programs — i.e. the artefacts an
assembly ships and a peer downloads over the optimistic protocol.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..cts.members import (
    ConstructorInfo,
    FieldInfo,
    MethodInfo,
    Modifiers,
    ParameterInfo,
    TypeRef,
    Visibility,
)
from ..cts.registry import BoundedMemo
from ..cts.types import OBJECT, TypeInfo, TypeKind, VOID, lookup_builtin
from ..il.instructions import BodyBuilder, Op
from . import ast_nodes as ast

#: Parsed declarations by (frontend ``parse`` function, source text).
_PARSED = BoundedMemo(256)


class CompileError(Exception):
    """A declaration could not be lowered to IL."""


def _visibility(token: str) -> Visibility:
    try:
        return Visibility(token.lower())
    except ValueError:
        raise CompileError("unknown visibility %r" % token)


def _type_ref(name: str, namespace: str = "") -> TypeRef:
    """Reference a type by surface name.

    Builtins resolve immediately; user types become unresolved refs that the
    registry / description resolver binds later.  Unqualified user names are
    qualified with the declaring namespace, matching how .NET languages
    resolve sibling types.
    """
    builtin = lookup_builtin(name)
    if builtin is not None:
        return TypeRef.to(builtin)
    suffix = ""
    base = name
    while base.endswith("[]"):
        base = base[:-2]
        suffix += "[]"
    full_name = base if "." in base or not namespace else "%s.%s" % (namespace, base)
    return TypeRef(full_name + suffix)


class _MethodScope:
    """Name-resolution scope for one method body."""

    def __init__(self, params: Sequence[ast.ParamDecl], field_names: Sequence[str]):
        self.param_index: Dict[str, int] = {
            p.name: i for i, p in enumerate(params)
        }
        self.field_names = set(field_names)
        self.builder = BodyBuilder()

    def is_param(self, name: str) -> bool:
        return name in self.param_index

    def is_local(self, name: str) -> bool:
        return self.builder.has_local(name)

    def is_field(self, name: str) -> bool:
        return name in self.field_names


class BodyCompiler:
    """Compiles one statement list into a :class:`MethodBody`."""

    def __init__(self, scope: _MethodScope, namespace: str):
        self.scope = scope
        self.namespace = namespace
        self.builder = scope.builder

    # -- statements --------------------------------------------------------

    def compile_block(self, stmts: Sequence[ast.Stmt]) -> None:
        for stmt in stmts:
            self.compile_stmt(stmt)

    def compile_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            slot = self.builder.local_slot(stmt.name)
            if stmt.init is not None:
                self.compile_expr(stmt.init)
            else:
                self.builder.emit(Op.PUSH_CONST, None)
            self.builder.emit(Op.STORE_LOCAL, slot)
        elif isinstance(stmt, ast.Assign):
            self._compile_assign(stmt.target, stmt.value)
        elif isinstance(stmt, ast.FieldAssign):
            self.compile_expr(stmt.obj)
            self.compile_expr(stmt.value)
            self.builder.emit(Op.SET_FIELD, stmt.field)
        elif isinstance(stmt, ast.IndexAssign):
            self.compile_expr(stmt.obj)
            self.compile_expr(stmt.index)
            self.compile_expr(stmt.value)
            self.builder.emit(Op.INDEX_SET)
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                self.builder.emit(Op.RETURN_VOID)
            else:
                self.compile_expr(stmt.value)
                self.builder.emit(Op.RETURN)
        elif isinstance(stmt, ast.If):
            self._compile_if(stmt)
        elif isinstance(stmt, ast.While):
            self._compile_while(stmt)
        elif isinstance(stmt, ast.For):
            self._compile_for(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.compile_expr(stmt.expr)
            self.builder.emit(Op.POP)
        else:
            raise CompileError("unknown statement %r" % (stmt,))

    def _compile_assign(self, target: str, value: ast.Expr) -> None:
        scope = self.scope
        if scope.is_local(target):
            self.compile_expr(value)
            self.builder.emit(Op.STORE_LOCAL, self.builder.local_slot(target))
        elif scope.is_param(target):
            raise CompileError("cannot assign to parameter %r" % target)
        elif scope.is_field(target):
            self.builder.emit(Op.LOAD_SELF)
            self.compile_expr(value)
            self.builder.emit(Op.SET_FIELD, target)
        else:
            # Implicit local declaration keeps the surface languages terse.
            slot = self.builder.local_slot(target)
            self.compile_expr(value)
            self.builder.emit(Op.STORE_LOCAL, slot)

    def _compile_if(self, stmt: ast.If) -> None:
        self.compile_expr(stmt.cond)
        jump_else = self.builder.emit(Op.JUMP_IF_FALSE, -1)
        self.compile_block(stmt.then_body)
        if stmt.else_body:
            jump_end = self.builder.emit(Op.JUMP, -1)
            self.builder.patch(jump_else, self.builder.next_pc)
            self.compile_block(stmt.else_body)
            self.builder.patch(jump_end, self.builder.next_pc)
        else:
            self.builder.patch(jump_else, self.builder.next_pc)

    def _compile_while(self, stmt: ast.While) -> None:
        loop_start = self.builder.next_pc
        self.compile_expr(stmt.cond)
        jump_out = self.builder.emit(Op.JUMP_IF_FALSE, -1)
        self.compile_block(stmt.body)
        self.builder.emit(Op.JUMP, loop_start)
        self.builder.patch(jump_out, self.builder.next_pc)

    def _compile_for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self.compile_stmt(stmt.init)
        loop_start = self.builder.next_pc
        jump_out = None
        if stmt.cond is not None:
            self.compile_expr(stmt.cond)
            jump_out = self.builder.emit(Op.JUMP_IF_FALSE, -1)
        self.compile_block(stmt.body)
        if stmt.step is not None:
            self.compile_stmt(stmt.step)
        self.builder.emit(Op.JUMP, loop_start)
        if jump_out is not None:
            self.builder.patch(jump_out, self.builder.next_pc)

    # -- expressions --------------------------------------------------------

    def compile_expr(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.IntLit):
            self.builder.emit(Op.PUSH_CONST, expr.value)
        elif isinstance(expr, ast.FloatLit):
            self.builder.emit(Op.PUSH_CONST, expr.value)
        elif isinstance(expr, ast.StrLit):
            self.builder.emit(Op.PUSH_CONST, expr.value)
        elif isinstance(expr, ast.BoolLit):
            self.builder.emit(Op.PUSH_CONST, expr.value)
        elif isinstance(expr, ast.NullLit):
            self.builder.emit(Op.PUSH_CONST, None)
        elif isinstance(expr, ast.SelfRef):
            self.builder.emit(Op.LOAD_SELF)
        elif isinstance(expr, ast.Name):
            self._compile_name(expr.ident)
        elif isinstance(expr, ast.FieldAccess):
            self.compile_expr(expr.obj)
            self.builder.emit(Op.GET_FIELD, expr.field)
        elif isinstance(expr, ast.MethodCall):
            self.compile_expr(expr.obj)
            for arg in expr.args:
                self.compile_expr(arg)
            self.builder.emit(Op.CALL_METHOD, (expr.name, len(expr.args)))
        elif isinstance(expr, ast.New):
            for arg in expr.args:
                self.compile_expr(arg)
            full = _type_ref(expr.type_name, self.namespace).full_name
            self.builder.emit(Op.NEW, (full, len(expr.args)))
        elif isinstance(expr, ast.IndexGet):
            self.compile_expr(expr.obj)
            self.compile_expr(expr.index)
            self.builder.emit(Op.INDEX_GET)
        elif isinstance(expr, ast.ListLit):
            for item in expr.items:
                self.compile_expr(item)
            self.builder.emit(Op.NEW_LIST, len(expr.items))
        elif isinstance(expr, ast.BinOp):
            self.compile_expr(expr.lhs)
            self.compile_expr(expr.rhs)
            self.builder.emit(Op.BIN_OP, expr.op)
        elif isinstance(expr, ast.UnOp):
            self.compile_expr(expr.operand)
            self.builder.emit(Op.UN_OP, expr.op)
        else:
            raise CompileError("unknown expression %r" % (expr,))

    def _compile_name(self, ident: str) -> None:
        scope = self.scope
        if scope.is_param(ident):
            self.builder.emit(Op.LOAD_ARG, scope.param_index[ident])
        elif scope.is_local(ident):
            self.builder.emit(Op.LOAD_LOCAL, self.builder.local_slot(ident))
        elif scope.is_field(ident):
            self.builder.emit(Op.LOAD_SELF)
            self.builder.emit(Op.GET_FIELD, ident)
        else:
            raise CompileError("unresolved name %r" % ident)


def compile_class(
    decl: ast.ClassDecl,
    namespace: str = "",
    assembly_name: str = "default",
    language: str = "cts",
) -> TypeInfo:
    """Lower a class/interface declaration to a CTS :class:`TypeInfo`."""
    field_names = [f.name for f in decl.fields]

    fields: List[FieldInfo] = []
    for fdecl in decl.fields:
        fields.append(
            FieldInfo(
                fdecl.name,
                _type_ref(fdecl.type_name, namespace),
                visibility=_visibility(fdecl.visibility),
                modifiers=Modifiers.from_tokens(fdecl.modifier_tokens),
            )
        )

    methods: List[MethodInfo] = []
    for mdecl in decl.methods:
        params = [
            ParameterInfo(p.name, _type_ref(p.type_name, namespace))
            for p in mdecl.params
        ]
        body = None
        if mdecl.body is not None:
            scope = _MethodScope(mdecl.params, field_names)
            compiler = BodyCompiler(scope, namespace)
            compiler.compile_block(mdecl.body)
            body = scope.builder.build()
        methods.append(
            MethodInfo(
                mdecl.name,
                params,
                _type_ref(mdecl.return_type, namespace),
                visibility=_visibility(mdecl.visibility),
                modifiers=Modifiers.from_tokens(mdecl.modifier_tokens),
                body=body,
            )
        )

    ctors: List[ConstructorInfo] = []
    for cdecl in decl.ctors:
        params = [
            ParameterInfo(p.name, _type_ref(p.type_name, namespace))
            for p in cdecl.params
        ]
        scope = _MethodScope(cdecl.params, field_names)
        compiler = BodyCompiler(scope, namespace)
        compiler.compile_block(cdecl.body)
        ctors.append(
            ConstructorInfo(
                params,
                visibility=_visibility(cdecl.visibility),
                body=scope.builder.build(),
            )
        )

    if decl.is_interface:
        superclass: Optional[TypeRef] = None
        kind = TypeKind.INTERFACE
    else:
        kind = TypeKind.CLASS
        if decl.superclass is None:
            superclass = TypeRef.to(OBJECT)
        else:
            superclass = _type_ref(decl.superclass, namespace)

    full_name = decl.name if "." in decl.name or not namespace else "%s.%s" % (namespace, decl.name)
    return TypeInfo(
        full_name,
        kind=kind,
        superclass=superclass,
        interfaces=[_type_ref(i, namespace) for i in decl.interfaces],
        fields=fields,
        methods=methods,
        constructors=ctors,
        assembly_name=assembly_name,
        language=language,
    )


def compile_classes(
    decls: Sequence[ast.ClassDecl],
    namespace: str = "",
    assembly_name: str = "default",
    language: str = "cts",
) -> List[TypeInfo]:
    return [
        compile_class(d, namespace=namespace, assembly_name=assembly_name, language=language)
        for d in decls
    ]


def compile_with(parse: Callable[[str], List[ast.ClassDecl]], source: str,
                 namespace: str, assembly_name: str,
                 language: str) -> List[TypeInfo]:
    """A frontend's ``compile_source``: ``parse`` then :func:`compile_classes`,
    parsing each distinct (``parse``, ``source``) once.  ``parse`` is a pure
    function of the text and nothing here mutates an AST, so a hit is what
    parsing again would give; every call still builds fresh TypeInfos."""
    key = (parse, source)
    decls = _PARSED.get(key)
    if decls is None:
        decls = parse(source)
        _PARSED.put(key, decls)
    return compile_classes(decls, namespace=namespace,
                           assembly_name=assembly_name, language=language)
