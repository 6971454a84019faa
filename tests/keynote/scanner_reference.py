"""Test-only reference: the original character-at-a-time KeyNote scanner.

``repro.keynote.tokens.tokenize`` replaced this loop with one regular
expression.  It is kept here, frozen, so the differential test in
``test_tokens.py`` can require identical tokens, positions and error
messages on ASCII input.  It still uses ``str.isdigit``, so on non-ASCII
digits it differs from the production scanner on purpose.
"""

from __future__ import annotations

from repro.errors import KeyNoteSyntaxError
from repro.keynote.tokens import Token, TokenType

_OPERATORS = (
    "->", "==", "!=", "<=", ">=", "~=", "&&", "||",
    "(", ")", "{", "}", "<", ">", "+", "-", "*", "/", "%", "^",
    "!", ";", ",", ".", "$",
)

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


def reference_tokenize(text: str) -> list[Token]:
    """The original character-at-a-time scanner, unchanged."""
    tokens: list[Token] = []
    i = 0
    line, col = 1, 1
    n = len(text)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                advance(1)
            continue
        if ch == '"':
            start_line, start_col = line, col
            advance(1)
            chars: list[str] = []
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n:
                    advance(1)
                    chars.append(text[i])
                    advance(1)
                else:
                    chars.append(text[i])
                    advance(1)
            if i >= n:
                raise KeyNoteSyntaxError("unterminated string literal",
                                         start_line, start_col)
            advance(1)  # closing quote
            tokens.append(Token(TokenType.STRING, "".join(chars),
                                start_line, start_col))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start_line, start_col = line, col
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # Don't swallow a dot that isn't followed by a digit
                    # (it's the string-concatenation operator).
                    if j + 1 >= n or not text[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            literal = text[i:j]
            advance(j - i)
            tokens.append(Token(TokenType.NUMBER, literal,
                                start_line, start_col))
            continue
        if ch in _IDENT_START:
            start_line, start_col = line, col
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            word = text[i:j]
            advance(j - i)
            tokens.append(Token(TokenType.IDENT, word, start_line, start_col))
            continue
        matched = False
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token(TokenType.OP, op, line, col))
                advance(len(op))
                matched = True
                break
        if not matched:
            raise KeyNoteSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token(TokenType.EOF, "", line, col))
    return tokens
