"""Java-like frontend.

Heritage clause: ``class A extends Base implements IFoo, IBar``.
Everything else is shared with the C-family parser.

Example::

    class Person {
        private String name;
        public Person(String n) { this.name = n; }
        public String getName() { return this.name; }
        public void setName(String n) { this.name = n; }
    }
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..cts.types import TypeInfo
from . import ast_nodes as ast
from .cfamily import Dialect, Parser
from .compiler import compile_with
from .lexer import TokenStream

LANGUAGE = "java"


class JavaDialect(Dialect):
    name = LANGUAGE
    self_keyword = "this"

    def parse_heritage(self, ts: TokenStream) -> Tuple[Optional[str], List[str]]:
        superclass: Optional[str] = None
        interfaces: List[str] = []
        if ts.accept_ident("extends"):
            superclass = self._qualified(ts)
        if ts.accept_ident("implements"):
            interfaces.append(self._qualified(ts))
            while ts.accept_punct(","):
                interfaces.append(self._qualified(ts))
        return superclass, interfaces

    @staticmethod
    def _qualified(ts: TokenStream) -> str:
        parts = [ts.expect_ident().value]
        while ts.at_punct("."):
            ts.next()
            parts.append(ts.expect_ident().value)
        return ".".join(parts)


def parse(source: str) -> List[ast.ClassDecl]:
    """Parse Java-like source into AST declarations."""
    return Parser(source, JavaDialect()).parse_unit()


def compile_source(
    source: str,
    namespace: str = "",
    assembly_name: str = "default",
) -> List[TypeInfo]:
    """Parse and compile Java-like source into CTS types."""
    return compile_with(parse, source, namespace, assembly_name, LANGUAGE)
