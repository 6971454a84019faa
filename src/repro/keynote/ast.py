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
They are slotted: every admitted credential keeps its parsed tree.  A
chain (``a && b && c``, ``a . b . c``) nests along a node's left operand
and a run (``!!a``, ``--a``, ``$$a``) along its operand, so equality walks
those in a loop and hashing walks the whole tree with an explicit stack:
a 5000-term chain costs no Python frame per term.  Only parenthesised
nesting, which the parser's own recursion bounds, recurses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.keynote.eval import CompiledConditions

Expr = Union["StringLit", "NumberLit", "Slot", "Attribute", "Deref", "Unary",
             "Binary"]


def _tree_hash(node: object) -> int:
    """A structural hash of ``node`` and everything below it."""
    parts = []
    pending = [node]
    while pending:
        item = pending.pop()
        kind = item.__class__
        names = getattr(kind, "__match_args__", None)
        if names is not None:  # a node
            parts.append(kind.__name__)
            pending.extend(getattr(item, name) for name in names)
        elif kind is tuple:
            parts.append(len(item))
            pending.extend(item)
        else:
            parts.append(item)
    return hash(tuple(parts))


class _WeaklyReferenced:
    """Gives a slotted dataclass a ``__weakref__`` slot on every supported
    Python (``dataclass(weakref_slot=True)`` needs 3.11)."""

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class StringLit:
    """A quoted string literal."""

    value: str


@dataclass(frozen=True, slots=True)
class NumberLit:
    """A numeric literal; kept as text so 1 and 1.0 compare numerically."""

    literal: str


@dataclass(frozen=True, slots=True)
class Slot:
    """A string literal left out of a shared tree: the ``index``-th
    literal of the binding each credential holding the tree keeps
    (:func:`repro.keynote.tokens.template`).  :func:`bind` puts the
    literal back; the tree walker and the compiled closures read it from
    the binding they are given."""

    index: int


@dataclass(frozen=True, slots=True)
class Attribute:
    """A reference to an action attribute (or local constant, resolved at
    parse time)."""

    name: str


@dataclass(frozen=True, slots=True)
class Deref:
    """``$expr``: the attribute whose *name* is the value of ``expr``."""

    inner: Expr

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Deref:
            return NotImplemented
        a, b = self, other
        while a.__class__ is Deref and b.__class__ is Deref:
            if a is b:
                return True
            a, b = a.inner, b.inner
        return a == b

    __hash__ = _tree_hash


@dataclass(frozen=True, slots=True)
class Unary:
    """``!e`` (logical not) or ``-e`` (numeric negation)."""

    op: str
    operand: Expr

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Unary:
            return NotImplemented
        a, b = self, other
        while a.__class__ is Unary and b.__class__ is Unary:
            if a is b:
                return True
            if a.op != b.op:
                return False
            a, b = a.operand, b.operand
        return a == b

    __hash__ = _tree_hash


@dataclass(frozen=True, slots=True)
class Binary:
    """Any binary operator: comparisons, arithmetic, logic, ``~=``, ``.``."""

    op: str
    left: Expr
    right: Expr

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Binary:
            return NotImplemented
        a, b = self, other
        while a.__class__ is Binary and b.__class__ is Binary:
            if a is b:
                return True
            if a.op != b.op or a.right != b.right:
                return False
            a, b = a.left, b.left
        return a == b

    __hash__ = _tree_hash


@dataclass(frozen=True, slots=True)
class Clause:
    """One conditions clause: ``test`` optionally yielding ``value``.

    ``value`` is a compliance-value name, a nested program (from ``{...}``),
    or None meaning ``_MAX_TRUST`` when the test holds.
    """

    test: Expr
    value: Union[str, "ConditionsProgram", None] = None


@dataclass(frozen=True, slots=True)
class ConditionsProgram(_WeaklyReferenced):
    """A full Conditions field: an ordered sequence of clauses.

    The program's compliance value is the join (max) of the values of all
    clauses whose tests hold.  ``compiled`` keeps the closures
    :func:`~repro.keynote.eval.compile_conditions` built for it (which do
    not refer back to it); equality, hashing and copies ignore it.
    """

    clauses: tuple[Clause, ...]
    compiled: "CompiledConditions | None" = field(
        default=None, init=False, repr=False, compare=False)

    def __reduce__(self) -> tuple:
        return ConditionsProgram, (self.clauses,)


def bind(program: ConditionsProgram,
         binding: "tuple[str, ...]") -> ConditionsProgram:
    """``program`` with each :class:`Slot` replaced by the literal
    ``binding`` holds for it: the concrete tree of one credential.  A
    program without slots is returned as it is.

    Chains and runs are rebuilt in a loop, so a 5000-term chain costs no
    Python frame per term; only nested programs (``-> { ... }``), which
    the parser's recursion bounds, recurse.
    """
    if not binding:
        return program
    return ConditionsProgram(tuple(
        Clause(_bind(clause.test, binding),
               bind(clause.value, binding)
               if clause.value.__class__ is ConditionsProgram
               else clause.value)
        for clause in program.clauses))


def _bind(expr: Expr, binding: "tuple[str, ...]") -> Expr:
    """``expr`` with its slots filled; subtrees without one are shared."""
    done: list = []
    pending: list = [(expr, False)]
    while pending:
        node, children_done = pending.pop()
        kind = node.__class__
        if kind is Slot:
            done.append(StringLit(binding[node.index]))
        elif kind is Binary:
            if children_done:
                right, left = done.pop(), done.pop()
                done.append(node if left is node.left and right is node.right
                            else Binary(node.op, left, right))
            else:
                pending += ((node, True), (node.right, False),
                            (node.left, False))
        elif kind is Unary or kind is Deref:
            inner = node.operand if kind is Unary else node.inner
            if not children_done:
                pending += ((node, True), (inner, False))
            else:
                operand = done.pop()
                done.append(node if operand is inner
                            else Unary(node.op, operand) if kind is Unary
                            else Deref(operand))
        else:
            done.append(node)
    return done[0]
