"""Licensee expressions.

The ``Licensees`` field of a credential names the principals being delegated
to, combined with ``&&`` (all must concur), ``||`` (any suffices) and the
``k-of(p1, ..., pn)`` threshold (any k must concur)::

    Licensees: "Kalice" || ("Kbob" && "Kcarol") || 2-of("Kx","Ky","Kz")

Evaluation is over an assignment of compliance values to principals:
``&&`` takes the meet (min), ``||`` the join (max), and ``k-of`` the k-th
largest — exactly the monotone semantics RFC 2704 gives threshold
delegation.  :meth:`value` works on value names, :meth:`rank` on their
ranks in the value set (what the compliance checker's fixpoint uses); a
``||`` stops at the first part of the ``top`` rank.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Union

from repro.errors import KeyNoteSyntaxError
from repro.keynote.tokens import Token, TokenType, tokenize
from repro.keynote.values import ComplianceValueSet

LicenseeExpr = Union["Principal", "AllOf", "AnyOf", "Threshold"]


@dataclass(frozen=True, slots=True)
class Principal:
    """A single principal (public key or symbolic name)."""

    key: str

    def principals(self) -> frozenset[str]:
        return frozenset({self.key})

    def value(self, lookup: Callable[[str], str],
              values: ComplianceValueSet) -> str:
        return lookup(self.key)

    def rank(self, lookup: Callable[[str], int], top: int) -> int:
        return lookup(self.key)


@dataclass(frozen=True, slots=True)
class AllOf:
    """Conjunction: every sub-expression must concur (meet)."""

    parts: tuple[LicenseeExpr, ...]

    def principals(self) -> frozenset[str]:
        return frozenset().union(*(p.principals() for p in self.parts))

    def value(self, lookup: Callable[[str], str],
              values: ComplianceValueSet) -> str:
        return values.meet([p.value(lookup, values) for p in self.parts])

    def rank(self, lookup: Callable[[str], int], top: int) -> int:
        return min([p.rank(lookup, top) for p in self.parts])


@dataclass(frozen=True, slots=True)
class AnyOf:
    """Disjunction: any sub-expression suffices (join)."""

    parts: tuple[LicenseeExpr, ...]

    def principals(self) -> frozenset[str]:
        return frozenset().union(*(p.principals() for p in self.parts))

    def value(self, lookup: Callable[[str], str],
              values: ComplianceValueSet) -> str:
        return values.join([p.value(lookup, values) for p in self.parts])

    def rank(self, lookup: Callable[[str], int], top: int) -> int:
        best = 0
        for part in self.parts:
            rank = part.rank(lookup, top)
            if rank > best:
                best = rank
                if best == top:
                    break
        return best


@dataclass(frozen=True, slots=True)
class Threshold:
    """``k-of(e1, ..., en)``: the k-th largest sub-expression value."""

    k: int
    parts: tuple[LicenseeExpr, ...]

    def __post_init__(self) -> None:
        if self.k < 1 or self.k > len(self.parts):
            raise KeyNoteSyntaxError(
                f"threshold {self.k}-of({len(self.parts)} parts) is "
                f"unsatisfiable; k must be between 1 and the part count")

    def principals(self) -> frozenset[str]:
        return frozenset().union(*(p.principals() for p in self.parts))

    def value(self, lookup: Callable[[str], str],
              values: ComplianceValueSet) -> str:
        return values.kth_largest(
            [p.value(lookup, values) for p in self.parts], self.k)

    def rank(self, lookup: Callable[[str], int], top: int) -> int:
        ranks = sorted([p.rank(lookup, top) for p in self.parts],
                       reverse=True)
        return ranks[self.k - 1]  # 1 <= k <= len(parts), checked above


class _LicenseeParser:
    """Recursive-descent parser for licensee expressions."""

    def __init__(self, tokens: list[Token],
                 constants: Mapping[str, str] | None = None) -> None:
        self._tokens = tokens
        self._pos = 0
        self._constants = constants or {}

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect_op(self, op: str) -> None:
        tok = self._next()
        if not tok.is_op(op):
            raise KeyNoteSyntaxError(f"expected {op!r}, got {tok.value!r}",
                                     tok.line, tok.column)

    def parse(self) -> LicenseeExpr:
        expr = self._or_expr()
        tok = self._peek()
        if tok.type is not TokenType.EOF:
            raise KeyNoteSyntaxError(
                f"unexpected trailing token {tok.value!r}", tok.line, tok.column)
        return expr

    def _or_expr(self) -> LicenseeExpr:
        parts = [self._and_expr()]
        while self._peek().is_op("||"):
            self._next()
            parts.append(self._and_expr())
        return parts[0] if len(parts) == 1 else AnyOf(tuple(parts))

    def _and_expr(self) -> LicenseeExpr:
        parts = [self._primary()]
        while self._peek().is_op("&&"):
            self._next()
            parts.append(self._primary())
        return parts[0] if len(parts) == 1 else AllOf(tuple(parts))

    def _primary(self) -> LicenseeExpr:
        tok = self._next()
        if tok.type is TokenType.STRING:
            return Principal(tok.value)
        if tok.type is TokenType.IDENT:
            # A local constant standing for a key.
            return Principal(sys.intern(self._constants.get(tok.value,
                                                            tok.value)))
        if tok.type is TokenType.NUMBER:
            # Threshold: NUMBER '-' 'of' '(' list ')'
            self._expect_op("-")
            of = self._next()
            if of.type is not TokenType.IDENT or of.value != "of":
                raise KeyNoteSyntaxError("expected 'of' after threshold count",
                                         of.line, of.column)
            self._expect_op("(")
            parts = [self._or_expr()]
            while self._peek().is_op(","):
                self._next()
                parts.append(self._or_expr())
            self._expect_op(")")
            try:
                k = int(tok.value)
            except ValueError:
                raise KeyNoteSyntaxError(
                    f"threshold count must be an integer, got {tok.value!r}",
                    tok.line, tok.column) from None
            return Threshold(k, tuple(parts))
        if tok.is_op("("):
            inner = self._or_expr()
            self._expect_op(")")
            return inner
        raise KeyNoteSyntaxError(f"unexpected token {tok.value!r} in licensees",
                                 tok.line, tok.column)


def parse_licensees(text: str,
                    constants: Mapping[str, str] | None = None,
                    ) -> LicenseeExpr:
    """Parse a Licensees field body.

    :param constants: Local-Constants substitution table (name -> key text).
    :raises KeyNoteSyntaxError: on malformed input.
    """
    return _LicenseeParser(tokenize(text), constants).parse()


def licensees_to_text(expr: LicenseeExpr) -> str:
    """Serialise a licensee expression back to field text."""
    if isinstance(expr, Principal):
        return f'"{expr.key}"'
    if isinstance(expr, AllOf):
        return "(" + " && ".join(licensees_to_text(p) for p in expr.parts) + ")"
    if isinstance(expr, AnyOf):
        return "(" + " || ".join(licensees_to_text(p) for p in expr.parts) + ")"
    if isinstance(expr, Threshold):
        inner = ", ".join(licensees_to_text(p) for p in expr.parts)
        return f"{expr.k}-of({inner})"
    raise TypeError(f"not a licensee expression: {expr!r}")
