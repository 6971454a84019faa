"""Parsers for KeyNote condition expressions and whole credentials."""

from __future__ import annotations

import re
from typing import Mapping

from repro.errors import KeyNoteSyntaxError
from repro.keynote.ast import (
    Attribute,
    Binary,
    Clause,
    ConditionsProgram,
    Deref,
    Expr,
    NumberLit,
    Slot,
    StringLit,
    Unary,
)
from repro.keynote.tokens import RESERVED, Token, TokenType, tokenize

# ---------------------------------------------------------------------------
# Expression / Conditions parsing
# ---------------------------------------------------------------------------


class _ExprParser:
    """Recursive-descent parser for the conditions grammar in ast.py."""

    def __init__(self, tokens: list[Token],
                 constants: Mapping[str, str] | None = None) -> None:
        self._tokens = tokens
        self._pos = 0
        self._constants = constants or {}
        self._slots = 0

    # -- token plumbing ----------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect_op(self, op: str) -> Token:
        tok = self._next()
        if not tok.is_op(op):
            raise KeyNoteSyntaxError(f"expected {op!r}, got {tok.value!r}",
                                     tok.line, tok.column)
        return tok

    def _at_end(self) -> bool:
        return self._peek().type is TokenType.EOF

    # -- entry points --------------------------------------------------------

    def parse_program(self) -> ConditionsProgram:
        clauses: list[Clause] = []
        while not self._at_end():
            clauses.append(self._clause())
            if self._peek().is_op(";"):
                self._next()
            elif not self._at_end() and not self._peek().is_op("}"):
                tok = self._peek()
                raise KeyNoteSyntaxError(
                    f"expected ';' between clauses, got {tok.value!r}",
                    tok.line, tok.column)
            if self._peek().is_op("}"):
                break
        if not clauses:
            raise KeyNoteSyntaxError("empty Conditions field")
        return ConditionsProgram(tuple(clauses))

    def parse_expression(self) -> Expr:
        expr = self._or_expr()
        if not self._at_end():
            tok = self._peek()
            raise KeyNoteSyntaxError(f"unexpected trailing token {tok.value!r}",
                                     tok.line, tok.column)
        return expr

    # -- grammar -------------------------------------------------------------

    def _clause(self) -> Clause:
        test = self._or_expr()
        if self._peek().is_op("->"):
            self._next()
            tok = self._peek()
            if tok.is_op("{"):
                self._next()
                inner = self.parse_program()
                self._expect_op("}")
                return Clause(test, inner)
            tok = self._next()
            if tok.type is TokenType.STRING:
                return Clause(test, tok.value)
            if tok.type is TokenType.IDENT:
                # _MIN_TRUST / _MAX_TRUST or a bare value name
                return Clause(test, tok.value)
            raise KeyNoteSyntaxError(
                f"expected compliance value after '->', got {tok.value!r}",
                tok.line, tok.column)
        return Clause(test, None)

    def _or_expr(self) -> Expr:
        expr = self._and_expr()
        while self._peek().is_op("||"):
            self._next()
            expr = Binary("||", expr, self._and_expr())
        return expr

    def _and_expr(self) -> Expr:
        expr = self._not_expr()
        while self._peek().is_op("&&"):
            self._next()
            expr = Binary("&&", expr, self._not_expr())
        return expr

    def _not_expr(self) -> Expr:
        if self._peek().is_op("!"):
            self._next()
            return Unary("!", self._not_expr())
        return self._comparison()

    def _comparison(self) -> Expr:
        expr = self._sum()
        if self._peek().is_op("==", "!=", "<", ">", "<=", ">=", "~="):
            op = self._next().value
            expr = Binary(op, expr, self._sum())
        return expr

    def _sum(self) -> Expr:
        expr = self._term()
        while self._peek().is_op("+", "-", "."):
            op = self._next().value
            expr = Binary(op, expr, self._term())
        return expr

    def _term(self) -> Expr:
        expr = self._factor()
        while self._peek().is_op("*", "/", "%"):
            op = self._next().value
            expr = Binary(op, expr, self._factor())
        return expr

    def _factor(self) -> Expr:
        base = self._power()
        if self._peek().is_op("^"):
            self._next()
            return Binary("^", base, self._factor())  # right associative
        return base

    def _power(self) -> Expr:
        if self._peek().is_op("-"):
            self._next()
            return Unary("-", self._power())
        return self._primary()

    def _primary(self) -> Expr:
        tok = self._next()
        if tok.type is TokenType.NUMBER:
            return NumberLit(tok.value)
        if tok.type is TokenType.STRING:
            return StringLit(tok.value)
        if tok.type is TokenType.SLOT:
            self._slots += 1
            return Slot(self._slots - 1)
        if tok.type is TokenType.IDENT:
            if tok.value in RESERVED:
                # Reserved boolean literals (used for unconditional
                # delegation, e.g. `Conditions: true;`).
                return StringLit(tok.value)
            if tok.value in self._constants:
                return StringLit(self._constants[tok.value])
            return Attribute(tok.value)
        if tok.is_op("$"):
            return Deref(self._primary())
        if tok.is_op("("):
            expr = self._or_expr()
            self._expect_op(")")
            return expr
        raise KeyNoteSyntaxError(f"unexpected token {tok.value!r}",
                                 tok.line, tok.column)


def parse_conditions(text: str,
                     constants: Mapping[str, str] | None = None,
                     ) -> ConditionsProgram:
    """Parse a Conditions field body into a program.

    :param constants: Local-Constants substitutions applied at parse time.
    :raises KeyNoteSyntaxError: on malformed input, or nesting (of
        parentheses, ``!``, ``-`` or ``$``) deeper than the parser's
        recursion reaches.
    """
    parser = _ExprParser(tokenize(text), constants)
    try:
        return parser.parse_program()
    except RecursionError:
        raise KeyNoteSyntaxError("Conditions nest too deeply") from None


def parse_shape(text: str,
                key: "tuple[str | None, ...]") -> ConditionsProgram:
    """Parse a Conditions text as the shape ``key`` describes
    (:func:`~repro.keynote.tokens.template`): each literal the key leaves
    as a slot becomes a :class:`~repro.keynote.ast.Slot`, numbered in text
    order, so the tree serves every text with that key.

    :raises KeyNoteSyntaxError: as :func:`parse_conditions` does.
    """
    tokens = tokenize(text)
    for index, token in enumerate(key):
        if token is None:
            literal = tokens[index]
            tokens[index] = Token(TokenType.SLOT, literal.value,
                                  literal.line, literal.column)
    parser = _ExprParser(tokens)
    try:
        return parser.parse_program()
    except RecursionError:
        raise KeyNoteSyntaxError("Conditions nest too deeply") from None


def parse_expression(text: str,
                     constants: Mapping[str, str] | None = None) -> Expr:
    """Parse a single expression (no clauses)."""
    parser = _ExprParser(tokenize(text), constants)
    try:
        return parser.parse_expression()
    except RecursionError:
        raise KeyNoteSyntaxError("expression nests too deeply") from None


# ---------------------------------------------------------------------------
# Credential parsing
# ---------------------------------------------------------------------------

_FIELD_NAMES = (
    "keynote-version",
    "comment",
    "local-constants",
    "authorizer",
    "licensees",
    "conditions",
    "signature",
)

_FIELD_RE = re.compile(
    r"^\s*(" + "|".join(re.escape(f) for f in _FIELD_NAMES) + r")\s*:",
    re.IGNORECASE,
)


def _lines(text: str) -> "list[tuple[str, str]]":
    """``(terminator, line)`` per line of ``text``, the terminator being
    the one that ends the line before (``""`` for the first).

    Only ``\n`` and ``\r\n`` end a line.  ``str.splitlines`` also
    splits at ``\r``, ``\x0b``, ``\x0c``, ``\x1c``-``\x1e``, ``\x85``,
    ``\u2028`` and ``\u2029``, any of which a string literal may hold:
    a credential's text must read back to the bytes that were signed."""
    lines = []
    end = ""
    *ended, last = text.split("\n")
    for line in ended:
        if line[-1:] == "\r":
            lines.append((end, line[:-1]))
            end = "\r\n"
        else:
            lines.append((end, line))
            end = "\n"
    lines.append((end, last))
    return lines


def split_fields(text: str) -> dict[str, str]:
    """Split credential text into its fields.

    Field values may span multiple lines; a new field starts at a line whose
    first token is a known field name followed by ``:`` (RFC 2704's layout).
    A value spanning lines keeps the terminators between them as written.

    :raises KeyNoteSyntaxError: on duplicate or unknown leading content.
    """
    fields: dict[str, str] = {}
    current: str | None = None
    chunks: dict[str, list[str]] = {}
    for lineno, (end, line) in enumerate(_lines(text), start=1):
        match = _FIELD_RE.match(line)
        if match:
            name = match.group(1).lower()
            if name in chunks:
                raise KeyNoteSyntaxError(f"duplicate field {name!r}", lineno, 1)
            current = name
            chunks[name] = [line[match.end():]]
        elif current is not None:
            chunks[current] += (end, line)
        elif line.strip():
            raise KeyNoteSyntaxError(
                f"text before first field: {line.strip()[:30]!r}", lineno, 1)
    for name, parts in chunks.items():
        fields[name] = "".join(parts).strip()
    return fields


def parse_local_constants(body: str) -> dict[str, str]:
    """Parse a Local-Constants field: ``Name = "value"`` bindings."""
    constants: dict[str, str] = {}
    # Bindings are NAME = "string", whitespace separated.
    pattern = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)\s*=\s*"((?:[^"\\]|\\.)*)"')
    pos = 0
    body = body.strip()
    while pos < len(body):
        match = pattern.match(body, pos)
        if not match:
            raise KeyNoteSyntaxError(
                f"malformed Local-Constants near {body[pos:pos + 20]!r}")
        name, raw = match.group(1), match.group(2)
        constants[name] = raw.replace('\\"', '"').replace("\\\\", "\\")
        pos = match.end()
        while pos < len(body) and body[pos] in " \t\r\n;":
            pos += 1
    return constants


def parse_credential(text: str) -> "Credential":
    """Parse one credential from its textual form.

    :raises KeyNoteSyntaxError: on malformed credentials.
    """
    from repro.keynote.credential import Credential

    return Credential.from_text(text)


def parse_credentials(text: str) -> list["Credential"]:
    """Parse multiple credentials separated by blank lines.

    A new credential starts at each ``KeyNote-Version`` or ``Authorizer``
    field that follows a completed credential (one that already has an
    authorizer).
    """
    from repro.keynote.credential import Credential

    blocks: list[list[str]] = []
    current: list[str] = []
    seen_authorizer = False
    for end, line in _lines(text):
        match = _FIELD_RE.match(line)
        name = match.group(1).lower() if match else None
        if name in ("keynote-version", "authorizer") and seen_authorizer:
            blocks.append(current)
            current = []
            seen_authorizer = False
        if name == "authorizer":
            seen_authorizer = True
        current += (end, line) if current else (line,)
    if any(line.strip() for line in current):
        blocks.append(current)
    return [Credential.from_text("".join(block)) for block in blocks
            if any(line.strip() for line in block)]
