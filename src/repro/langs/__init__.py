"""Multi-language frontends compiling to the common type system + IL.

Three surface syntaxes — C#-like, Java-like and VB-like — all land in the
same CTS, reproducing the "language interoperability underneath type
interoperability" layering of the paper's platform.  They share one
tokenizer (``lexer``) and one table-driven parser (``cfamily``); a
``Dialect`` holds what differs, and the VB-like frontend's line-oriented
declarations and statements parse each line with that parser.
"""

from . import ast_nodes
from .cfamily import ParseError
from .compiler import CompileError, compile_class, compile_classes
from .csharp import compile_source as compile_csharp
from .csharp import parse as parse_csharp
from .java import compile_source as compile_java
from .java import parse as parse_java
from .vb import VbParseError
from .vb import compile_source as compile_vb
from .vb import parse as parse_vb

__all__ = [
    "CompileError",
    "ParseError",
    "VbParseError",
    "ast_nodes",
    "compile_class",
    "compile_classes",
    "compile_csharp",
    "compile_java",
    "compile_vb",
    "parse_csharp",
    "parse_java",
    "parse_vb",
]
