"""The tokenizer shared by every frontend.

``tokenize(source)`` reads the C-family sources (C#-like, Java-like):
``//`` and ``/* */`` comments, backslash escapes in strings.  The VB-like
frontend passes its own lexical rules — ``'`` comments, ``""`` inside
strings, its operator set — and groups the tokens by their line.
"""

from __future__ import annotations

from typing import List, Optional


class LexError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__("%s (line %d)" % (message, line))
        self.message = message
        self.line = line


class Token:
    __slots__ = ("kind", "value", "line")

    IDENT = "ident"
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    PUNCT = "punct"
    EOF = "eof"

    def __init__(self, kind: str, value: str, line: int):
        self.kind = kind
        self.value = value
        self.line = line

    def __repr__(self) -> str:
        return "Token(%s, %r, line=%d)" % (self.kind, self.value, self.line)


#: The C-family operators and punctuation, one and two characters long.
C_PUNCT = frozenset(["==", "!=", "<=", ">=", "&&", "||", *"{}()[];,.:=+-*/%<>!&|"])

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


def tokenize(
    source: str,
    line_comment: str = "//",
    block_comments: bool = True,
    doubled_quotes: bool = False,
    punct: frozenset = C_PUNCT,
) -> List[Token]:
    """Tokenize a source string.

    The defaults are the C-family rules.  ``doubled_quotes`` reads ``""``
    inside a string as a quote, and a backslash as itself.
    """
    tokens: List[Token] = []
    i = 0
    line = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if source.startswith(line_comment, i):
            end = source.find("\n", i)
            i = n if end == -1 else end
            continue
        if block_comments and source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise LexError("unterminated block comment", line)
            line += source.count("\n", i, end)
            i = end + 2
            continue
        if ch == '"':
            value, i = _read_string(source, i, line, doubled_quotes)
            tokens.append(Token(Token.STRING, value, line))
            continue
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == "." and i + 1 < n and source[i + 1].isdigit():
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
                tokens.append(Token(Token.FLOAT, source[start:i], line))
            else:
                tokens.append(Token(Token.INT, source[start:i], line))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(Token(Token.IDENT, source[start:i], line))
            continue
        two = source[i:i + 2]
        if two in punct:
            tokens.append(Token(Token.PUNCT, two, line))
            i += 2
            continue
        if ch in punct:
            tokens.append(Token(Token.PUNCT, ch, line))
            i += 1
            continue
        raise LexError("unexpected character %r" % ch, line)
    tokens.append(Token(Token.EOF, "", line))
    return tokens


def _read_string(source: str, i: int, line: int, doubled_quotes: bool):
    assert source[i] == '"'
    i += 1
    out: List[str] = []
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == '"':
            if doubled_quotes and source.startswith('"', i + 1):
                out.append('"')
                i += 2
                continue
            return "".join(out), i + 1
        if ch == "\\" and not doubled_quotes:
            if i + 1 >= n:
                raise LexError("unterminated escape", line)
            esc = source[i + 1]
            if esc not in _ESCAPES:
                raise LexError("unknown escape \\%s" % esc, line)
            out.append(_ESCAPES[esc])
            i += 2
            continue
        if ch == "\n":
            raise LexError("newline in string literal", line)
        out.append(ch)
        i += 1
    raise LexError("unterminated string literal", line)


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers.

    With ``fold_case`` the ``*_ident`` helpers match words in any case.
    """

    def __init__(self, tokens: List[Token], fold_case: bool = False):
        self._tokens = tokens
        self._pos = 0
        self._fold_case = fold_case

    def peek(self, offset: int = 0) -> Token:
        idx = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[idx]

    def next(self) -> Token:
        token = self.peek()
        if token.kind != Token.EOF:
            self._pos += 1
        return token

    def at_punct(self, value: str) -> bool:
        token = self.peek()
        return token.kind == Token.PUNCT and token.value == value

    def at_ident(self, value: Optional[str] = None) -> bool:
        token = self.peek()
        if token.kind != Token.IDENT or value is None:
            return token.kind == Token.IDENT
        if self._fold_case:
            return token.value.lower() == value.lower()
        return token.value == value

    def accept_punct(self, value: str) -> bool:
        if self.at_punct(value):
            self.next()
            return True
        return False

    def accept_ident(self, value: str) -> bool:
        if self.at_ident(value):
            self.next()
            return True
        return False

    def expect_punct(self, value: str) -> Token:
        if not self.at_punct(value):
            token = self.peek()
            raise LexError(
                "expected %r, found %r" % (value, token.value or "<eof>"), token.line
            )
        return self.next()

    def expect_ident(self, value: Optional[str] = None) -> Token:
        if not self.at_ident(value):
            token = self.peek()
            raise LexError(
                "expected identifier%s, found %r"
                % (" %r" % value if value else "", token.value or "<eof>"),
                token.line,
            )
        return self.next()

    @property
    def exhausted(self) -> bool:
        return self.peek().kind == Token.EOF
