"""Evaluator for KeyNote condition expressions.

Semantics follow RFC 2704:

- Action attributes are strings; referencing an absent attribute yields the
  empty string.
- Comparisons are numeric when *both* operands are numeric (literals or
  strings that parse as numbers), otherwise lexicographic string comparisons.
- ``~=`` matches the left operand against a regular expression.
- Arithmetic on a non-numeric operand makes the enclosing *test* evaluate to
  false rather than aborting the whole query (RFC 2704 section 5: "a test
  with an invalid operand fails").
- A Conditions program evaluates to a compliance value: the join of the
  values of all clauses whose tests hold (``_MIN_TRUST`` when none do).

Two evaluation strategies share these semantics: the tree-walking
:class:`ConditionEvaluator` (one AST dispatch per node per query — the
readable reference the oracle uses) and :func:`compile_conditions`, which
lowers a program once into **nested Python closures** that mirror the tree
walker node for node: the same evaluation order, the same soft failures
(raised as :class:`_SoftFailure` and read as false at a test boundary) and
the same hard errors, with no AST dispatch per query.  The compiler folds
every attribute-free subexpression through the tree walker, drops clauses
whose tests are statically false, lowers each chain of ``&&``, of ``||``
or of ``.`` and arithmetic, and each run of ``!``, ``-`` or ``$``, to one
closure evaluated in a loop, and specialises the commonest shapes: an
attribute compared with ``==``/``!=`` to a non-numeric string literal is
one string comparison, and ``~=`` against a literal pattern is one
precompiled search.  A literal bad regex, or a clause naming a value
outside the query's value set, still raises at query time, exactly where
the tree walker raises.  No Python source is generated: every closure is
an instance of a fixed function in this module, so credential text never
reaches ``exec``, ``eval`` or ``compile``.
:class:`ComplianceChecker <repro.keynote.compliance.ComplianceChecker>`
compiles every assertion's conditions at admission.

A program may be a *shape* holding :class:`~repro.keynote.ast.Slot`
nodes (:func:`~repro.keynote.tokens.template`): every closure takes the
action attributes and a *binding*, the tuple of literals one credential
fills the slots with, so the closures of one shape serve every credential
cut from its template.  A slot is never folded; it is read from the
binding where the literal would have been held in a cell.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from types import FunctionType
from typing import Callable, Mapping, Union

from repro.errors import KeyNoteEvalError, KeyNoteSyntaxError
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
from repro.keynote.values import DEFAULT_VALUE_SET, ComplianceValueSet

Value = Union[str, float]
#: a compiled test or value: the action attributes and the credential's
#: binding (the literals its shape leaves as slots) in, a bool or a value
#: out
Closure = Callable[[Mapping[str, str], tuple], object]


class _SoftFailure(Exception):
    """Raised when a test's operand is invalid; the test becomes false."""


def _as_number(value: Value) -> float:
    """Coerce to float or raise :class:`_SoftFailure`."""
    if isinstance(value, float):
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        raise _SoftFailure(f"non-numeric operand {value!r}") from None


def _number_literal(literal: str) -> float:
    """The value of a NUMBER literal.

    The tokenizer only admits ASCII digits, so this fails only for a
    hand-built AST; it then fails as a syntax error, never as a raw
    ``ValueError`` out of a compliance check.
    """
    try:
        return float(literal)
    except ValueError:
        raise KeyNoteSyntaxError(
            f"malformed number literal {literal!r}") from None


def _as_string(value: Value) -> str:
    """Render a value as the string KeyNote would see."""
    if isinstance(value, float):
        # Integral floats print without a trailing .0, matching KeyNote's
        # integer/float duality.
        if value.is_integer():
            return str(int(value))
        return repr(value)
    return value


def _is_numeric(value: Value) -> bool:
    if isinstance(value, float):
        return True
    try:
        float(value)
        return True
    except (TypeError, ValueError):
        return False


_BOOL_OPS = {"&&", "||"}
_COMPARE_OPS = {"==", "!=", "<", ">", "<=", ">="}
_ARITH_OPS = {"+", "-", "*", "/", "%", "^"}


class ConditionEvaluator:
    """Evaluates expressions and Conditions programs against an action
    attribute set.  A :class:`~repro.keynote.ast.Slot` reads the binding
    the program being evaluated was given."""

    def __init__(self, attributes: Mapping[str, str],
                 values: ComplianceValueSet) -> None:
        self._attributes = attributes
        self._values = values
        self._binding: tuple = ()

    # -- public entry points -------------------------------------------------

    def program_value(self, program: ConditionsProgram,
                      binding: tuple = ()) -> str:
        """Compliance value of a full Conditions field; ``binding`` fills
        its slots (a credential's shape takes the credential's binding)."""
        self._binding = binding
        return self._program_value(program)

    def _program_value(self, program: ConditionsProgram) -> str:
        result = self._values.minimum
        for clause in program.clauses:
            clause_value = self._clause_value(clause)
            result = self._values.join([result, clause_value])
        return result

    def test(self, expr: Expr) -> bool:
        """Evaluate ``expr`` as a boolean test (soft failures are False)."""
        try:
            return self._truth(expr)
        except _SoftFailure:
            return False

    # -- clauses ---------------------------------------------------------------

    def _clause_value(self, clause: Clause) -> str:
        if not self.test(clause.test):
            return self._values.minimum
        if clause.value is None:
            return self._values.maximum
        if isinstance(clause.value, ConditionsProgram):
            return self._program_value(clause.value)
        return self._values.resolve(clause.value)

    # -- expression evaluation ---------------------------------------------------

    def _truth(self, expr: Expr) -> bool:
        """Boolean interpretation used inside &&, ||, !."""
        if isinstance(expr, Binary) and expr.op in _BOOL_OPS:
            if expr.op == "&&":
                # Short-circuit; soft failure in either side fails the test.
                return self._truth(expr.left) and self._truth(expr.right)
            left = self._protected_truth(expr.left)
            return left or self._truth(expr.right)
        if isinstance(expr, Unary) and expr.op == "!":
            return not self._truth(expr.operand)
        if isinstance(expr, Binary) and expr.op in _COMPARE_OPS | {"~="}:
            return self._compare(expr)
        # A bare value is true iff it is the string "true" or a nonzero
        # number — mirrors KeyNote's treatment of bare tests.
        value = self._value(expr)
        if _is_numeric(value):
            return _as_number(value) != 0.0
        return value == "true"

    def _protected_truth(self, expr: Expr) -> bool:
        """Truth where a soft failure means False (for || short-circuit)."""
        try:
            return self._truth(expr)
        except _SoftFailure:
            return False

    def _compare(self, expr: Binary) -> bool:
        if expr.op == "~=":
            subject = _as_string(self._value(expr.left))
            pattern = _as_string(self._value(expr.right))
            try:
                return re.search(pattern, subject) is not None
            except re.error as exc:
                raise KeyNoteEvalError(f"bad regular expression {pattern!r}: {exc}")
        left = self._value(expr.left)
        right = self._value(expr.right)
        left_numeric, right_numeric = _is_numeric(left), _is_numeric(right)
        if left_numeric and right_numeric:
            return _COMPARISONS[expr.op](_as_number(left),
                                         _as_number(right))
        if left_numeric != right_numeric:
            # Mixed numeric/non-numeric context: the test fails (RFC 2704's
            # invalid-operand rule), except that (in)equality against a
            # non-numeric string is still a meaningful string test.
            if expr.op == "==":
                return False
            if expr.op == "!=":
                return True
            raise _SoftFailure(
                f"ordered comparison between {left!r} and {right!r}")
        lstr, rstr = _as_string(left), _as_string(right)
        return _COMPARISONS[expr.op](lstr, rstr)

    def _value(self, expr: Expr) -> Value:
        if isinstance(expr, StringLit):
            return expr.value
        if isinstance(expr, Slot):
            if expr.index < len(self._binding):
                return self._binding[expr.index]
            # Without its literal a slot is no constant: this is what
            # keeps the compiler's folding (`_fold`) off every slot.
            raise KeyNoteEvalError(f"no literal bound for {expr!r}")
        if isinstance(expr, NumberLit):
            return _number_literal(expr.literal)
        if isinstance(expr, Attribute):
            return self._attributes.get(expr.name, "")
        if isinstance(expr, Deref):
            name = _as_string(self._value(expr.inner))
            return self._attributes.get(name, "")
        if isinstance(expr, Unary):
            if expr.op == "-":
                return -_as_number(self._value(expr.operand))
            if expr.op == "!":
                return "true" if not self._truth(expr.operand) else "false"
            raise KeyNoteEvalError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, Binary):
            if expr.op == ".":
                return (_as_string(self._value(expr.left))
                        + _as_string(self._value(expr.right)))
            if expr.op in _ARITH_OPS:
                left = _as_number(self._value(expr.left))
                right = _as_number(self._value(expr.right))
                return self._arith(expr.op, left, right)
            if expr.op in _COMPARE_OPS | {"~="} | _BOOL_OPS:
                return "true" if self._truth(expr) else "false"
            raise KeyNoteEvalError(f"unknown operator {expr.op!r}")
        raise KeyNoteEvalError(f"cannot evaluate {expr!r}")

    @staticmethod
    def _arith(op: str, left: float, right: float) -> float:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise _SoftFailure("division by zero")
            return left / right
        if op == "%":
            if right == 0:
                raise _SoftFailure("modulo by zero")
            return left % right
        if op == "^":
            try:
                # A negative base with a fractional exponent yields a
                # complex result in python; KeyNote has no complex
                # numbers, so it is an invalid operand (test fails).
                return float(left ** right)
            except (OverflowError, ZeroDivisionError, TypeError) as exc:
                raise _SoftFailure(str(exc)) from None
        raise KeyNoteEvalError(f"unknown arithmetic operator {op!r}")


_COMPARISONS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


def _num_or_none(value):
    """float(value) or None: one conversion where the tree walker pays
    two (_is_numeric then _as_number)."""
    if type(value) is float:
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


# -- compiled conditions: closures --------------------------------------------

#: deepest nesting of closures the compiler builds, so that a query's
#: stack can always call them (one frame a level).  A chain of ``&&``, of
#: ``||`` or of ``.`` and arithmetic, and a run of ``!`` or of ``-`` and
#: ``$``, lowers to one closure whatever its length, so only parentheses
#: nested dozens deep with several operators at each level, or a
#: hand-built tree, come near it; a program deeper than this is refused
#: with :class:`KeyNoteSyntaxError`.
MAX_NESTING = 256

#: stateless tree-walking evaluator used for compile-time constant folding
_CONST_EVAL = ConditionEvaluator({}, DEFAULT_VALUE_SET)

_ARITH = ConditionEvaluator._arith

#: the answer of ``==`` / ``!=`` when exactly one operand is numeric; an
#: ordered comparison soft-fails instead
_MIXED = {"==": False, "!=": True}

#: the value of a folded subexpression that soft-fails
_FAILED = object()


class _Folded:
    """A subexpression the compiler evaluated: ``value`` is its value (or
    truth), or :data:`_FAILED`."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value


def _fold(expr: Expr, truth: bool) -> "_Folded | None":
    """``expr`` (which reads no attribute) evaluated by the tree walker;
    None when that raises a hard error, which must surface per query, or
    when the tree is too deep for the tree walker's recursion."""
    try:
        return _Folded(_CONST_EVAL._truth(expr) if truth
                       else _CONST_EVAL._value(expr))
    except _SoftFailure:
        return _Folded(_FAILED)
    except KeyNoteEvalError:
        return None  # e.g. a bad literal regex
    except RecursionError:
        return None  # lowered instead: its chains and runs are loops


def _fail() -> None:
    raise _SoftFailure("statically invalid operand")


def _closure(lowered: "_Folded | Closure") -> Closure:
    """A lowered subexpression as a closure, constants included."""
    if lowered.__class__ is not _Folded:
        return lowered
    value = lowered.value
    if value is _FAILED:
        def failed(attrs, lits):
            _fail()
        return failed

    def constant(attrs, lits):
        return value
    return constant


def _deeper(depth: int) -> int:
    if depth >= MAX_NESTING:
        raise KeyNoteSyntaxError(
            f"Conditions nest deeper than {MAX_NESTING} levels")
    return depth + 1


def _attribute_literal(attribute: Expr, literal: Expr,
                       ) -> "tuple[str, str | int] | None":
    """``(name, literal)`` when ``attribute == literal`` is a plain string
    test: an attribute against a non-numeric string literal, or against a
    slot (only non-numeric literals are slotted), whose index stands for
    the literal.  (A numeric literal also equals other spellings of its
    number: ``"01" == "1"``.)"""
    if attribute.__class__ is not Attribute:
        return None
    if literal.__class__ is Slot:
        return attribute.name, literal.index
    if (literal.__class__ is StringLit
            and _num_or_none(literal.value) is None):
        return attribute.name, literal.value
    return None


class _Lowering:
    """Lowers one program's expressions to closures.

    Every closure mirrors the tree walker's handling of its node: the same
    evaluation order, a soft failure raised as :class:`_SoftFailure` where
    the tree walker raises it, and the same hard errors.  Subexpressions
    that read no attribute are folded through the tree walker; ``dynamic``
    holds the ids of the nodes that do read one.
    """

    __slots__ = ("dynamic",)

    def __init__(self, dynamic: "set[int]") -> None:
        self.dynamic = dynamic

    # -- truth ------------------------------------------------------------

    def truth(self, expr: Expr, depth: int) -> "_Folded | Closure":
        """Lower ``expr`` read as a test: a closure returning a bool."""
        if id(expr) not in self.dynamic:
            folded = _fold(expr, True)
            if folded is not None:
                return folded
        depth = _deeper(depth)
        if expr.__class__ is Binary:
            op = expr.op
            if op == "&&":
                return self._all_of(expr, depth)
            if op == "||":
                return self._any_of(expr, depth)
            if op == "~=":
                return self._match(expr, depth)
            if op in _COMPARISONS:
                return self._compare(expr, depth)
        elif expr.__class__ is Unary and expr.op == "!":
            return self._negation(expr, depth)
        value = _closure(self.value(expr, depth))

        def bare(attrs, lits):
            # A bare value holds iff it is "true" or a nonzero number.
            result = value(attrs, lits)
            number = _num_or_none(result)
            return result == "true" if number is None else number != 0.0
        return bare

    @staticmethod
    def _operands(expr: Binary) -> list:
        """The operands of the ``expr.op`` chain at ``expr``, in evaluation
        order: nested ``expr.op`` nodes are flattened on either side."""
        op = expr.op
        operands = []
        stack = [expr.right, expr.left]
        while stack:
            node = stack.pop()
            if node.__class__ is Binary and node.op == op:
                stack.append(node.right)
                stack.append(node.left)
            else:
                operands.append(node)
        return operands

    def _all_of(self, expr: Binary, depth: int) -> "_Folded | Closure":
        tests = []
        last: object = True
        for operand in self._operands(expr):
            lowered = self.truth(operand, depth)
            if lowered.__class__ is not _Folded:
                tests.append(lowered)
            elif lowered.value is not True:
                # False or a soft failure: no later operand ever runs.
                last = lowered.value
                break
        if not tests:
            return _Folded(last)
        if len(tests) == 1 and last is True:
            return tests[0]
        tests = tuple(tests)

        def all_of(attrs, lits):
            for test in tests:
                if not test(attrs, lits):
                    return False
            if last is _FAILED:
                _fail()
            return last
        return all_of

    def _any_of(self, expr: Binary, depth: int) -> "_Folded | Closure":
        # Every operand but the last is protected: its soft failure reads
        # as false.  The last one's soft failure is the chain's.
        operands = self._operands(expr)
        tests = []
        last: object = False
        for index, operand in enumerate(operands):
            lowered = self.truth(operand, depth)
            if lowered.__class__ is not _Folded:
                tests.append(lowered)
                continue
            value = lowered.value
            if value is True or index == len(operands) - 1:
                last = value  # no later operand ever runs
                break
            # A false or failed operand before the last is absorbed.
        else:
            last = tests.pop()
        if not tests:
            return last if callable(last) else _Folded(last)
        tests = tuple(tests)
        final = last if callable(last) else _closure(_Folded(last))

        def any_of(attrs, lits):
            for test in tests:
                try:
                    if test(attrs, lits):
                        return True
                except _SoftFailure:
                    pass
            return final(attrs, lits)
        return any_of

    def _negation(self, expr: Expr, depth: int) -> "_Folded | Closure":
        negate = False
        while expr.__class__ is Unary and expr.op == "!":
            negate = not negate
            expr = expr.operand
        inner = self.truth(expr, depth)
        if not negate:
            return inner  # an even run of ``!``: truths are bools already
        if inner.__class__ is _Folded:
            value = inner.value
            return inner if value is _FAILED else _Folded(not value)

        def negation(attrs, lits):
            return not inner(attrs, lits)
        return negation

    def _compare(self, expr: Binary, depth: int) -> Closure:
        op = expr.op
        if op == "==" or op == "!=":
            plain = (_attribute_literal(expr.left, expr.right)
                     or _attribute_literal(expr.right, expr.left))
            if plain is not None:
                return _string_test(op, *plain)
        left = _closure(self.value(expr.left, depth))
        right = _closure(self.value(expr.right, depth))
        compare = _COMPARISONS[op]
        mixed = _MIXED.get(op)

        def compare_values(attrs, lits):
            # Strict left-to-right: a soft-failed left operand never
            # evaluates the right one.
            a = left(attrs, lits)
            b = right(attrs, lits)
            a_number = _num_or_none(a)
            b_number = _num_or_none(b)
            if a_number is not None and b_number is not None:
                return compare(a_number, b_number)
            if a_number is None and b_number is None:
                return compare(a, b)  # neither is a float: strings as-is
            if mixed is None:
                _fail()
            return mixed
        return compare_values

    def _match(self, expr: Binary, depth: int) -> Closure:
        left, right = expr.left, expr.right
        pattern = None
        if right.__class__ is StringLit:
            try:
                pattern = re.compile(right.value)
            except re.error:
                pass  # KeyNoteEvalError per query, as the tree walker
        subject_of = _closure(self.value(left, depth))
        if pattern is not None:
            search = pattern.search

            def match_literal(attrs, lits):
                return search(_as_string(subject_of(attrs, lits))) is not None
            return match_literal
        pattern_of = _closure(self.value(right, depth))

        def match(attrs, lits):
            subject = _as_string(subject_of(attrs, lits))
            text = _as_string(pattern_of(attrs, lits))
            try:
                return re.search(text, subject) is not None
            except re.error as exc:
                raise KeyNoteEvalError(
                    f"bad regular expression {text!r}: {exc}")
        return match

    # -- values -------------------------------------------------------------

    def value(self, expr: Expr, depth: int) -> "_Folded | Closure":
        """Lower ``expr`` read as a value: a closure returning a string or
        a float."""
        if expr.__class__ is StringLit:
            return _Folded(expr.value)
        if expr.__class__ is NumberLit:
            return _Folded(_number_literal(expr.literal))
        if expr.__class__ is Slot:
            slot = expr.index

            def literal(attrs, lits):
                return lits[slot]
            return literal
        if expr.__class__ is Attribute:
            name = expr.name

            def attribute(attrs, lits):
                return attrs.get(name, "")
            return attribute
        if id(expr) not in self.dynamic:
            folded = _fold(expr, False)
            if folded is not None:
                return folded
        depth = _deeper(depth)
        if expr.__class__ is Deref:
            return self._unary(expr, depth)
        if expr.__class__ is Unary:
            if expr.op == "-":
                return self._unary(expr, depth)
            if expr.op == "!":
                return _as_text(self._negation(expr, depth))
            raise KeyNoteEvalError(f"unknown unary operator {expr.op!r}")
        if expr.__class__ is Binary:
            op = expr.op
            if op == "." or op in _ARITH_OPS:
                return self._arithmetic(expr, depth)
            if op in _COMPARISONS or op == "~=" or op in _BOOL_OPS:
                return _as_text(self.truth(expr, depth))
            raise KeyNoteEvalError(f"unknown operator {op!r}")
        raise KeyNoteEvalError(f"cannot evaluate {expr!r}")

    def _unary(self, expr: "Unary | Deref", depth: int) -> Closure:
        # A run of ``-`` and ``$`` (``--n``, ``-$$a``) is one closure that
        # applies them innermost first: ``$`` reads the attribute its
        # operand names, ``-`` negates a number.
        derefs = []
        while True:
            if expr.__class__ is Deref:
                derefs.append(True)
                expr = expr.inner
            elif expr.__class__ is Unary and expr.op == "-":
                derefs.append(False)
                expr = expr.operand
            else:
                break
        inner = _closure(self.value(expr, depth))
        derefs.reverse()
        derefs = tuple(derefs)

        def unary(attrs, lits):
            value = inner(attrs, lits)
            for deref in derefs:
                if deref:
                    value = attrs.get(_as_string(value), "")
                else:
                    value = -_as_number(value)
            return value
        return unary

    def _arithmetic(self, expr: Binary, depth: int) -> Closure:
        # The parser nests a chain of ``.`` and arithmetic to the left
        # (``a . b . c`` is ``(a . b) . c``); the chain is one closure
        # that combines its operands left to right.
        steps = []
        while True:
            steps.append((expr.op, expr.right))
            expr = expr.left
            if not (expr.__class__ is Binary
                    and (expr.op == "." or expr.op in _ARITH_OPS)):
                break
        first = _closure(self.value(expr, depth))
        steps = tuple((op, _closure(self.value(right, depth)))
                      for op, right in reversed(steps))

        def chain(attrs, lits):
            value = first(attrs, lits)
            for op, operand in steps:
                if op == ".":
                    value = (_as_string(value)
                             + _as_string(operand(attrs, lits)))
                else:
                    # The left operand must be a number before the right
                    # one is evaluated.
                    number = _as_number(value)
                    value = _ARITH(op, number,
                                   _as_number(operand(attrs, lits)))
            return value
        return chain


def _as_text(test: "_Folded | Closure") -> "_Folded | Closure":
    """A truth read as a value: "true" or "false"."""
    if test.__class__ is _Folded:
        value = test.value
        return test if value is _FAILED else _Folded(
            "true" if value else "false")

    def as_text(attrs, lits):
        return "true" if test(attrs, lits) else "false"
    return as_text


def _string_test(op: str, name: str, literal: "str | int") -> Closure:
    """``name == literal`` or ``!=`` for a non-numeric literal (or the
    binding's slot ``literal``): one string comparison.  A value that is
    not that string differs from it, numeric or not, exactly as the
    general rule finds."""
    if literal.__class__ is int:
        slot = literal
        if op == "==":
            def equals_slot(attrs, lits):
                return attrs.get(name, "") == lits[slot]
            return equals_slot

        def differs_slot(attrs, lits):
            return attrs.get(name, "") != lits[slot]
        return differs_slot
    if op == "==":
        def equals(attrs, lits):
            return attrs.get(name, "") == literal
        return equals

    def differs(attrs, lits):
        return attrs.get(name, "") != literal
    return differs


# -- programs -----------------------------------------------------------------

#: clause kinds: the test yields ``_MAX_TRUST``, a named value, or a
#: nested program's rank
_MAXIMUM, _NAMED, _NESTED = 0, 1, 2


def _lower_clauses(lowering: _Lowering, clauses, depth: int) -> tuple:
    """``(test, kind, payload)`` per clause that can fire; ``test`` is
    None when it holds statically, and a statically false clause is
    dropped."""
    lowered = []
    for clause in clauses:
        test = lowering.truth(clause.test, depth)
        if test.__class__ is _Folded:
            if test.value is not True:
                continue  # statically false: the clause can never fire
            test = None
        if clause.value is None:
            lowered.append((test, _MAXIMUM, None))
        elif isinstance(clause.value, ConditionsProgram):
            nested = _lower_clauses(lowering, clause.value.clauses,
                                    _deeper(depth))
            lowered.append((test, _NESTED, _program_rank(nested)))
        else:
            # Resolved against the query's value set when the test holds:
            # an unknown name must keep raising exactly then.
            lowered.append((test, _NAMED, clause.value))
    return tuple(lowered)


def _rank_minimum(attrs, values, lits) -> int:
    return 0


def _rank_maximum(attrs, values, lits) -> int:
    return values.top


def _program_rank(clauses: tuple) -> "Callable[..., int]":
    """The rank closure of lowered clauses: the join of the ranks of the
    clauses whose tests hold."""
    if not clauses:
        return _rank_minimum
    if len(clauses) == 1 and clauses[0][1] == _MAXIMUM:
        test = clauses[0][0]
        if test is None:
            return _rank_maximum

        def rank_if(attrs, values, lits):
            try:
                return values.top if test(attrs, lits) else 0
            except _SoftFailure:
                return 0
        return rank_if

    def rank_join(attrs, values, lits):
        # Every clause runs, as in the tree walker: a later one may raise.
        best = 0
        for test, kind, payload in clauses:
            if test is not None:
                try:
                    if not test(attrs, lits):
                        continue
                except _SoftFailure:
                    continue
            if kind == _MAXIMUM:
                rank = values.top
            elif kind == _NAMED:
                rank = values.rank(payload)
            else:
                rank = payload(attrs, values, lits)
            if rank > best:
                best = rank
        return best
    return rank_join


class CompiledConditions:
    """A Conditions program lowered to closures, evaluated many times.

    Built once per program (:func:`compile_conditions` keeps it on the
    program) and then invoked per query with just the action attribute
    set, the value set and the credential's *binding* — exactly
    :meth:`ConditionEvaluator.program_value` on the program with its
    slots filled from the binding (:func:`~repro.keynote.ast.bind`),
    without re-walking the AST.  A shape is compiled once for every
    credential cut from its template: a closure that reads a slot indexes
    the binding it is called with, so a credential keeps only its
    literals.  A program without slots takes the empty binding.
    :meth:`rank` is the compliance checker's entry point (the value's
    index in the value set); :meth:`value` names it.
    :meth:`referenced_attributes` reports which action attributes can
    influence the program's value (``None`` when a ``$`` dereference
    makes the set dynamic), which is what lets the decision cache ignore
    irrelevant attributes such as an unused ``_cur_time``.  :attr:`guard`
    is the equality conjunct the compliance checker indexes the program's
    assertion by, :meth:`bound_guard` that conjunct for one binding.
    """

    __slots__ = ("_rank", "_referenced", "_guard")

    def __init__(self, program: ConditionsProgram) -> None:
        dynamic, names, flags = _scan(program)
        plain = _plain_equality(program)
        self._rank = (_rank_if_equal(*plain) if plain is not None
                      else _program_rank(_lower_clauses(
                          _Lowering(dynamic), program.clauses, 0)))
        shared: "list[tuple[str, str | int]] | None" = None
        for clause in program.clauses:
            guards = _equality_guards(clause.test)
            shared = guards if shared is None else [
                guard for guard in shared if guard in guards]
        self._referenced: "frozenset[str] | None" = (
            None if flags & _DEREF else _shared_names(frozenset(names)))
        self._guard: "tuple[str, str | int] | None" = (
            shared[0] if shared and not flags & _HARD_ERROR else None)

    @property
    def guard(self) -> "tuple[str, str | int] | None":
        """``(attribute, literal)`` when every top-level clause tests
        ``attribute == "literal"`` as a conjunct, so the program's value
        is the minimum whenever the attribute reads anything else; None
        when no such conjunct exists or skipping could hide a hard error.
        When the literal is a slot, ``literal`` is its index in the
        binding (:meth:`bound_guard` reads it).  Read-only: every holder
        of the program shares this object."""
        return self._guard

    def bound_guard(self, binding: "tuple[str, ...]" = (),
                    ) -> "tuple[str, str] | None":
        """:attr:`guard` with its literal read from ``binding``: the
        conjunct of the credential that holds that binding."""
        guard = self.guard
        if guard is None or guard[1].__class__ is not int:
            return guard
        return guard[0], binding[guard[1]]

    def rank(self, attributes: Mapping[str, str],
             values: ComplianceValueSet,
             binding: "tuple[str, ...]" = ()) -> int:
        """Rank in ``values`` of the program's value for one attribute
        set, its slots filled from ``binding``."""
        return self._rank(attributes, values, binding)

    def value(self, attributes: Mapping[str, str],
              values: ComplianceValueSet,
              binding: "tuple[str, ...]" = ()) -> str:
        """Compliance value of the program for one attribute set, its
        slots filled from ``binding``."""
        return values.values[self._rank(attributes, values, binding)]

    def referenced_attributes(self) -> "frozenset[str] | None":
        """Attributes the program reads, or None when ``$`` makes the set
        depend on runtime values."""
        return self._referenced

    def closures(self, binding: "tuple[str, ...] | None" = None,
                 ) -> "list[tuple[str, tuple]]":
        """``(name, constants)`` of every closure the compiler built for
        the program, outermost first: what each does, and the literals,
        folded values and patterns it holds.  A closure that reads a slot
        reports the literal ``binding`` holds for it (the literal the
        credential holding that binding evaluates), or the
        :class:`~repro.keynote.ast.Slot` itself without a binding.  A
        fully folded program has none."""
        found: "list[tuple[str, tuple]]" = []
        pending: list = [self._rank]
        while pending:
            function = pending.pop(0)
            if not function.__closure__:
                continue  # a shared function, not one built here
            constants, nested = [], []
            cells = [
                (cell.cell_contents if name != "slot"
                 else Slot(cell.cell_contents) if binding is None
                 else binding[cell.cell_contents])
                for name, cell in zip(function.__code__.co_freevars,
                                      function.__closure__)]
            while cells:
                item = cells.pop(0)
                if isinstance(item, FunctionType):
                    nested.append(item)
                elif isinstance(item, tuple):
                    cells[:0] = item
                elif item is not None:
                    constants.append(item)
            found.append((function.__name__, tuple(constants)))
            pending[:0] = nested
        return found


def _plain_equality(program: ConditionsProgram,
                    ) -> "tuple[str, str | int] | None":
    """``(name, literal)`` when the whole program is one plain
    ``attribute == "literal"`` test: the commonest credential (a team
    signs one per member), which then costs a single closure."""
    if len(program.clauses) != 1 or program.clauses[0].value is not None:
        return None
    test = program.clauses[0].test
    if test.__class__ is not Binary or test.op != "==":
        return None
    return (_attribute_literal(test.left, test.right)
            or _attribute_literal(test.right, test.left))


def _rank_if_equal(name: str, literal: "str | int") -> "Callable[..., int]":
    if literal.__class__ is int:
        slot = literal

        def rank_if_equal_slot(attrs, values, lits):
            return values.top if attrs.get(name, "") == lits[slot] else 0
        return rank_if_equal_slot

    def rank_if_equal(attrs, values, lits):
        return values.top if attrs.get(name, "") == literal else 0
    return rank_if_equal


def compile_conditions(program: ConditionsProgram) -> CompiledConditions:
    """Lower a Conditions program (a credential's shape, slots and all)
    into a :class:`CompiledConditions`, kept on the program for every
    later call.

    :raises KeyNoteSyntaxError: for a program the compiler cannot lower
        (nested deeper than :data:`MAX_NESTING`, or than its own recursion
        reaches) or a malformed number literal.
    """
    compiled = program.compiled
    if compiled is None:
        try:
            compiled = CompiledConditions(program)
        except RecursionError:
            raise KeyNoteSyntaxError(
                "Conditions nest too deeply to compile") from None
        object.__setattr__(program, "compiled", compiled)
    return compiled


def _scan(program: ConditionsProgram) -> "tuple[set[int], set[str], int]":
    """One iterative walk over every test of ``program`` and its nested
    programs: the ids of the nodes whose value depends on the attributes,
    the attribute names read and the walk's flags."""
    dynamic: "set[int]" = set()
    names: "set[str]" = set()
    flags = 0
    stack: list = []
    programs = [program]
    while programs:
        for clause in programs.pop().clauses:
            stack.append(clause.test)
            if isinstance(clause.value, ConditionsProgram):
                programs.append(clause.value)
    order = []  # parents before children
    while stack:
        node = stack.pop()
        order.append(node)
        if node.__class__ is Binary:
            stack.append(node.left)
            stack.append(node.right)
        elif node.__class__ is Unary:
            stack.append(node.operand)
        elif node.__class__ is Deref:
            stack.append(node.inner)
    for node in reversed(order):
        kind = node.__class__
        if kind is StringLit or kind is NumberLit or kind is Slot:
            continue
        if kind is Attribute:
            names.add(node.name)
        elif kind is Deref:
            flags |= _DEREF
        elif kind is Binary:
            if node.op == "~=" and not _is_literal_pattern(node.right):
                flags |= _HARD_ERROR
            if id(node.left) not in dynamic and id(node.right) not in dynamic:
                continue
        elif kind is Unary:
            if id(node.operand) not in dynamic:
                continue
        dynamic.add(id(node))  # an unknown node class counts as dynamic
    return dynamic, names, flags


@lru_cache(maxsize=1024)
def _shared_names(names: frozenset[str]) -> frozenset[str]:
    """The first-seen set equal to ``names``, so programs that read the
    same attributes (one per credential cut from a template) hold one
    set between them."""
    return names


#: flags of the attribute walk: a ``$`` makes the read set dynamic, and a
#: ``~=`` whose pattern is not a valid literal may raise at query time
_DEREF = 1
_HARD_ERROR = 2


def _is_literal_pattern(expr: Expr) -> bool:
    """True for a string literal that compiles as a regex — the only
    ``~=`` operand matched without a query-time error path."""
    if not isinstance(expr, StringLit):
        return False
    try:
        re.compile(expr.value)
    except re.error:
        return False
    return True


def _equality_guards(test: Expr) -> "list[tuple[str, str | int]]":
    """The ``attribute == "literal"`` conjuncts of ``test`` (literal on
    either side), in evaluation order: when the attribute reads anything
    but the literal, the whole test is not true.

    Only non-numeric literals qualify.  For them ``==`` is plain string
    equality; a numeric-looking literal also equals other spellings of
    its number (``"01" == "1"``)."""
    guards = []
    stack = [test]
    while stack:
        node = stack.pop()
        if node.__class__ is not Binary:
            continue
        if node.op == "&&":
            stack.append(node.right)
            stack.append(node.left)
        elif node.op == "==":
            plain = (_attribute_literal(node.left, node.right)
                     or _attribute_literal(node.right, node.left))
            if plain is not None:
                guards.append(plain)
    return guards
