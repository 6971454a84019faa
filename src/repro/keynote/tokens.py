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
    SLOT = auto()        # a string literal a shape leaves to its binding
    EOF = auto()


# Multi-character operators first so the scanner is greedy.
_OPERATORS = (
    "->", "==", "!=", "<=", ">=", "~=", "&&", "||",
    "(", ")", "{", "}", "<", ">", "+", "-", "*", "/", "%", "^",
    "!", ";", ",", ".", "$",
)

#: One token with the layout (whitespace and ``#`` comments) before it:
#: a string literal (group 1, quotes included), an identifier (group 2),
#: or a number or an operator (group 3), tried in that order.  Numbers are
#: ASCII ``[0-9]`` as in the RFC 2704 grammar (``str.isdigit`` would also
#: admit ``²`` or ``٣``, which ``float`` cannot read).  A dot is part of a
#: number only when a digit follows it; otherwise it is the concatenation
#: operator.  A comment runs to the end of its line, so backtracking never
#: reads a token inside one.
_TOKEN_RE = re.compile(
    r'(?:[ \t\r\n]+|#[^\n]*(?![^\n]))*(?:("[^"\\]*(?:\\.[^"\\]*)*")'
    r"|([A-Za-z_][A-Za-z0-9_]*)"
    r"|([0-9]+(?:\.[0-9]+)?|\.[0-9]+|"
    + "|".join(map(re.escape, _OPERATORS)) + "))", re.DOTALL)
#: the groups of :data:`_TOKEN_RE` that hold a string literal and an
#: identifier
_STRING, _IDENT = 1, 2
#: a run of layout
_LAYOUT_RUN_RE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")

#: a backslash escapes the next character, whatever it is
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)

#: a string literal (group 1, kept as written), a comment (group 2) with
#: the layout after it (group 3 its ending newline), or a whitespace run
#: other than a single space (which is its own normal form)
_LAYOUT_RE = re.compile(
    r'("[^"\\]*(?:\\.[^"\\]*)*")|(#[^\n]*)(\n)?[ \t\r\n]*'
    r'|[\t\r\n][ \t\r\n]*| [ \t\r\n]+', re.DOTALL)

#: comparisons whose string-literal operand a shape leaves as a slot
_COMPARISONS = frozenset(("==", "!=", "<", ">", "<=", ">="))
#: tokens after which a comparison starts (its left operand is the next
#: primary) and tokens before which one ends (its right operand is the
#: last primary): the operators binding looser than a comparison
_OPENS = frozenset(("(", "&&", "||", "!", ";", "{"))
_CLOSES = frozenset((")", "&&", "||", ";", "->", "}"))
#: identifiers the parser reads as literals, not attributes
RESERVED = frozenset(("true", "false"))
#: a character ``float`` never accepts: a literal holding one is not a
#: number, with no conversion tried
_NOT_A_NUMBER = re.compile(r"[^\s\d+\-._eEiInNfFtTyYaA]")


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
    line, line_start = 1, 0
    counted = 0  # newlines before this offset are counted in ``line``

    def position(offset: int) -> tuple[int, int]:
        nonlocal line, line_start, counted
        newlines = text.count("\n", counted, offset)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", counted, offset) + 1
        counted = offset
        return line, offset - line_start + 1

    stop = 0
    for found in iter(_TOKEN_RE.scanner(text).match, None):
        kind = found.lastindex
        value = found.group(kind)
        where = position(found.start(kind))
        if kind == _STRING:
            value = value[1:-1]
            if "\\" in value:
                value = _ESCAPE_RE.sub(r"\1", value)
            token_type = TokenType.STRING
        elif kind == _IDENT:
            token_type = TokenType.IDENT
        else:
            token_type = (TokenType.NUMBER if value[-1] in "0123456789"
                          else TokenType.OP)
        tokens.append(Token(token_type, sys.intern(value), *where))
        stop = found.end()
    stop = _LAYOUT_RUN_RE.match(text, stop).end()
    if stop < len(text):
        character = text[stop]
        raise KeyNoteSyntaxError(
            "unterminated string literal" if character == '"'
            else f"unexpected character {character!r}", *position(stop))
    tokens.append(Token(TokenType.EOF, "", *position(stop)))
    return tokens


def template(text: str) -> "tuple[tuple[str | None, ...], tuple[str, ...]]":
    """``(key, literals)``: the shape of a Conditions text and the string
    literals it leaves to the binding.

    The key is the text's token stream (each token as spelled, a string
    literal with its quotes), with None for each *slot*: a non-numeric
    string literal compared (``==``, ``!=``, ``<``, ``>``, ``<=``, ``>=``)
    with a lone attribute, in either order, as a whole comparison.  Such a
    literal only ever meets the attribute's value, so two texts with one
    key parse to one tree up to the slots' values, which ``literals``
    holds (unescaped and interned) in text order.  Every other literal —
    a ``~=`` pattern, a clause value, one the compiler folds, a numeric
    one — stays in the key.  Comments and layout are not tokens.

    Numeric-looking literals are kept: ``"01" == "1"`` holds numerically,
    so such a comparison is not a plain string test.

    :raises KeyNoteSyntaxError: where :func:`tokenize` raises.
    """
    values: list[str] = []
    idents: list[bool] = []
    strings: list[int] = []
    stop = 0
    for found in iter(_TOKEN_RE.scanner(text).match, None):
        kind = found.lastindex
        if kind == _STRING:
            strings.append(len(values))
        idents.append(kind == _IDENT)
        values.append(found.group(kind))
        stop = found.end()
    if _LAYOUT_RUN_RE.match(text, stop).end() < len(text):
        tokenize(text)  # raises, with the line and column
    key: list[str | None] = values
    literals = []
    last = len(values) - 1
    for index in strings:
        value = values[index]
        if index >= 2 and values[index - 1] in _COMPARISONS:
            name = index - 2  # attribute OP "literal"
            opens, closes = name - 1, index + 1
        elif index < last - 1 and values[index + 1] in _COMPARISONS:
            name = index + 2  # "literal" OP attribute
            opens, closes = index - 1, name + 1
        else:
            continue
        if not (idents[name] and values[name] not in RESERVED
                and (opens < 0 or values[opens] in _OPENS)
                and (closes > last or values[closes] in _CLOSES)):
            continue
        literal = value[1:-1]
        if "\\" in literal:
            literal = _ESCAPE_RE.sub(r"\1", literal)
        if _is_number(literal):
            continue
        key[index] = None
        literals.append(sys.intern(literal))
    return tuple(key), tuple(literals)


def _is_number(text: str) -> bool:
    """True when ``text`` reads as a number, as the evaluator reads it
    (``float``: digits, signs, a point, an exponent, underscores,
    whitespace, ``inf``, ``infinity`` or ``nan``)."""
    if _NOT_A_NUMBER.search(text):
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


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
