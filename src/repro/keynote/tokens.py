"""Tokenizer for the KeyNote condition / licensee expression languages."""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from enum import Enum, auto

from repro.errors import KeyNoteSyntaxError


class TokenType(Enum):
    STRING = auto()      # "quoted"
    NUMBER = auto()      # 42, 3.14
    IDENT = auto()       # attribute or local-constant name
    OP = auto()          # operators and punctuation
    EOF = auto()


# Multi-character operators first so the scanner is greedy.
_OPERATORS = (
    "->", "==", "!=", "<=", ">=", "~=", "&&", "||",
    "(", ")", "{", "}", "<", ">", "+", "-", "*", "/", "%", "^",
    "!", ";", ",", ".", "$",
)

#: One alternative per token class, tried in order at each position.
#: Numbers are ASCII ``[0-9]`` as in the RFC 2704 grammar (``str.isdigit``
#: would also admit ``²`` or ``٣``, which ``float`` cannot read).  A dot is
#: part of a number only when a digit follows it; otherwise it is the
#: concatenation operator.  A ``"`` that does not open a complete string is
#: an unterminated literal.
_TOKEN_RE = re.compile("|".join((
    r"(?P<skip>[ \t\r\n]+|#[^\n]*)",
    r'"(?P<string>[^"\\]*(?:\\.[^"\\]*)*)"',
    r'(?P<unterminated>")',
    r"(?P<number>[0-9]+(?:\.[0-9]+)?|\.[0-9]+)",
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)",
    "(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + ")",
)), re.DOTALL)

#: a backslash escapes the next character, whatever it is
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)

#: a string literal (group 1, kept as written), a comment (group 2) with
#: the layout after it (group 3 its ending newline), or a whitespace run
#: other than a single space (which is its own normal form)
_LAYOUT_RE = re.compile(
    r'("[^"\\]*(?:\\.[^"\\]*)*")|(#[^\n]*)(\n)?[ \t\r\n]*'
    r'|[\t\r\n][ \t\r\n]*| [ \t\r\n]+', re.DOTALL)

_KINDS = {"number": TokenType.NUMBER, "ident": TokenType.IDENT,
          "op": TokenType.OP}


@dataclass(frozen=True, slots=True)
class Token:
    """A lexical token with position information for error messages."""

    type: TokenType
    value: str
    line: int
    column: int

    def is_op(self, *ops: str) -> bool:
        """True if this is an OP token with one of the given spellings."""
        return self.type is TokenType.OP and self.value in ops


def tokenize(text: str) -> list[Token]:
    """Tokenize a condition or licensee expression.

    Lines and columns count from 1; every character, tabs included, is one
    column, and only ``\\n`` starts a new line.  Token values are interned:
    the parsed trees of admitted credentials keep them, and credentials cut
    from one template repeat the same keys, names and literals.

    :raises KeyNoteSyntaxError: on unterminated strings or unknown characters.
    """
    tokens: list[Token] = []
    match = _TOKEN_RE.match
    pos, end = 0, len(text)
    line, line_start = 1, 0
    while pos < end:
        found = match(text, pos)
        column = pos - line_start + 1
        if found is None:
            raise KeyNoteSyntaxError(f"unexpected character {text[pos]!r}",
                                     line, column)
        kind = found.lastgroup
        if kind == "unterminated":
            raise KeyNoteSyntaxError("unterminated string literal",
                                     line, column)
        stop = found.end()
        if kind == "string":
            value = found.group("string")
            if "\\" in value:
                value = _ESCAPE_RE.sub(r"\1", value)
            tokens.append(Token(TokenType.STRING, sys.intern(value),
                                line, column))
        elif kind != "skip":
            tokens.append(Token(_KINDS[kind], sys.intern(found.group()),
                                line, column))
        newlines = text.count("\n", pos, stop)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", pos, stop) + 1
        pos = stop
    tokens.append(Token(TokenType.EOF, "", line, pos - line_start + 1))
    return tokens


def normalise(text: str) -> str:
    """The normal form of ``text``: each run of whitespace outside string
    literals and comments becomes one space, and none is left at either
    end; a comment keeps the newline that ends it, with its own
    whitespace runs made one space.  String literals (escapes included)
    are kept as written, so two texts with one normal form tokenize alike.

    Every text earlier versions stored (``" ".join(text.split())``) is
    its own normal form, so the bytes they signed and journalled are
    unchanged.
    """
    return _LAYOUT_RE.sub(_layout, text).strip(" \n")


def _layout(match: "re.Match[str]") -> str:
    literal, comment, newline = match.groups()
    if literal is not None:
        return literal
    if comment is not None:
        return " ".join(comment.split()) + (newline or "")
    return " "
