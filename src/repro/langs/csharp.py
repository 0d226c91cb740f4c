"""C#-like frontend.

Parses a small C#-flavoured surface syntax into the shared AST and compiles
it to CTS types with IL bodies.  Heritage clause: ``class A : Base, IFoo``.

Example::

    class Person {
        private string name;
        public Person(string n) { this.name = n; }
        public string GetName() { return this.name; }
        public void SetName(string n) { this.name = n; }
    }
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..cts.types import TypeInfo
from . import ast_nodes as ast
from .cfamily import Dialect, Parser
from .compiler import compile_with
from .lexer import TokenStream

LANGUAGE = "csharp"


class CSharpDialect(Dialect):
    name = LANGUAGE

    def parse_heritage(self, ts: TokenStream) -> Tuple[Optional[str], List[str]]:
        if not ts.accept_punct(":"):
            return None, []
        names = [self.qualified(ts)]
        while ts.accept_punct(","):
            names.append(self.qualified(ts))
        # C# convention: a leading non-interface name is the base class;
        # interface names start with 'I' followed by an uppercase letter.
        superclass: Optional[str] = None
        interfaces: List[str] = []
        for index, name in enumerate(names):
            simple = name.rpartition(".")[2]
            looks_like_interface = (
                len(simple) >= 2 and simple[0] == "I" and simple[1].isupper()
            )
            if index == 0 and not looks_like_interface:
                superclass = name
            else:
                interfaces.append(name)
        return superclass, interfaces


def parse(source: str) -> List[ast.ClassDecl]:
    """Parse C#-like source into AST declarations."""
    return Parser(source, CSharpDialect()).parse_unit()


def compile_source(
    source: str,
    namespace: str = "",
    assembly_name: str = "default",
) -> List[TypeInfo]:
    """Parse and compile C#-like source into CTS types."""
    return compile_with(parse, source, namespace, assembly_name, LANGUAGE)
