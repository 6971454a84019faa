"""AST nodes for the KeyNote condition expression language.

Grammar implemented (an RFC-2704-faithful subset plus the ``k-of`` licensee
threshold extension used by several KeyNote deployments)::

    conditions := clause (';' clause)* [';']
    clause     := or_expr [ '->' (STRING | '{' conditions '}') ]
    or_expr    := and_expr ('||' and_expr)*
    and_expr   := not_expr ('&&' not_expr)*
    not_expr   := '!' not_expr | comparison
    comparison := sum (('=='|'!='|'<'|'>'|'<='|'>='|'~=') sum)?
    sum        := term (('+'|'-'|'.') term)*
    term       := factor (('*'|'/'|'%') factor)*
    factor     := power ('^' power)?          (right associative)
    power      := '-' power | primary
    primary    := NUMBER | STRING | IDENT | '$' primary | '(' or_expr ')'

Nodes carry no evaluation logic; :mod:`repro.keynote.eval` walks them.
They are slotted: every admitted credential keeps its parsed tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

Expr = Union["StringLit", "NumberLit", "Attribute", "Deref", "Unary", "Binary"]


@dataclass(frozen=True, slots=True)
class StringLit:
    """A quoted string literal."""

    value: str


@dataclass(frozen=True, slots=True)
class NumberLit:
    """A numeric literal; kept as text so 1 and 1.0 compare numerically."""

    literal: str


@dataclass(frozen=True, slots=True)
class Attribute:
    """A reference to an action attribute (or local constant, resolved at
    parse time)."""

    name: str


@dataclass(frozen=True, slots=True)
class Deref:
    """``$expr``: the attribute whose *name* is the value of ``expr``."""

    inner: Expr


@dataclass(frozen=True, slots=True)
class Unary:
    """``!e`` (logical not) or ``-e`` (numeric negation)."""

    op: str
    operand: Expr


@dataclass(frozen=True, slots=True)
class Binary:
    """Any binary operator: comparisons, arithmetic, logic, ``~=``, ``.``."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Clause:
    """One conditions clause: ``test`` optionally yielding ``value``.

    ``value`` is a compliance-value name, a nested program (from ``{...}``),
    or None meaning ``_MAX_TRUST`` when the test holds.
    """

    test: Expr
    value: Union[str, "ConditionsProgram", None] = None


@dataclass(frozen=True, slots=True)
class ConditionsProgram:
    """A full Conditions field: an ordered sequence of clauses.

    The program's compliance value is the join (max) of the values of all
    clauses whose tests hold.
    """

    clauses: tuple[Clause, ...]
