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
lowers a program once into a **flat postfix bytecode** evaluated by a
small stack VM — no ``isinstance`` dispatch and no Python call tree per
query.  The compiler constant-folds every attribute-free subexpression
(including whole clauses whose tests are statically decided), precompiles
literal regexes, and emits explicit short-circuit jumps for ``&&``/``||``
and for RFC 2704's invalid-operand rule: a soft failure is a *sentinel
value* (:data:`FAIL`) that jump instructions route past the unevaluated
operand, byte-for-byte matching the tree walker's exception semantics.
:class:`ComplianceChecker <repro.keynote.compliance.ComplianceChecker>`
compiles every assertion's conditions at construction time.
"""

from __future__ import annotations

import re
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
    StringLit,
    Unary,
)
from repro.keynote.values import DEFAULT_VALUE_SET, ComplianceValueSet

Value = Union[str, float]


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
    attribute set."""

    def __init__(self, attributes: Mapping[str, str],
                 values: ComplianceValueSet) -> None:
        self._attributes = attributes
        self._values = values

    # -- public entry points -------------------------------------------------

    def program_value(self, program: ConditionsProgram) -> str:
        """Compliance value of a full Conditions field."""
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
            return self.program_value(clause.value)
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
            return _NUMERIC_COMPARISONS[expr.op](_as_number(left),
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
        return _STRING_COMPARISONS[expr.op](lstr, rstr)

    def _value(self, expr: Expr) -> Value:
        if isinstance(expr, StringLit):
            return expr.value
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


_NUMERIC_COMPARISONS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}

_STRING_COMPARISONS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


# -- compiled conditions: flat postfix bytecode -------------------------------

class _Failure:
    """The soft-failure sentinel the VM routes instead of raising.

    RFC 2704's invalid-operand rule is an *exception* in the tree walker;
    in the bytecode it is a stack value, so the flat instruction stream
    needs no Python try/except per node.  Jump instructions propagate it
    past unevaluated operands exactly where the tree walker's exception
    would have unwound, and the test boundary converts it to False.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "FAIL"


#: the singleton soft-failure sentinel
FAIL = _Failure()

# Opcodes.  arg meaning in brackets; stack effect after the dash.
OP_CONST = 0        # [value]        — push constant
OP_FAIL = 1         # []             — push FAIL (folded soft failure)
OP_ATTR = 2         # [name]         — push attrs.get(name, "")
OP_DEREF = 3        # []             — pop v; push attrs.get(str(v), "")
OP_NEG = 4          # []             — pop v; push -number(v)
OP_NOT = 5          # []             — pop t; push not t
OP_TRUTH = 6        # []             — pop v; push bare-value truth of v
OP_BOOL2STR = 7     # []             — pop t; push "true"/"false"
OP_CONCAT = 8       # []             — pop b, a; push str(a) + str(b)
OP_ARITH = 9        # [op]           — pop b, a; push a <op> b
OP_CMP = 10         # [op]           — pop b, a; push comparison truth
OP_MATCH = 11       # []             — pop pattern, subject; regex search
OP_MATCH_CONST = 12  # [compiled re] — pop subject; precompiled search
OP_JFALSE = 13      # [target]       — top False/FAIL: jump (keep); else pop
OP_JTRUE = 14       # [target]       — top True: jump (keep); else pop
OP_JFAIL = 15       # [target]       — top FAIL: jump (keep); else continue

OP_NAMES = {
    OP_CONST: "CONST", OP_FAIL: "PUSH_FAIL", OP_ATTR: "ATTR",
    OP_DEREF: "DEREF", OP_NEG: "NEG", OP_NOT: "NOT", OP_TRUTH: "TRUTH",
    OP_BOOL2STR: "BOOL2STR", OP_CONCAT: "CONCAT", OP_ARITH: "ARITH",
    OP_CMP: "CMP", OP_MATCH: "MATCH", OP_MATCH_CONST: "MATCH_CONST",
    OP_JFALSE: "JFALSE", OP_JTRUE: "JTRUE", OP_JFAIL: "JFAIL",
}

#: bytecode: a tuple of (opcode, arg) pairs
Code = "tuple[tuple[int, object], ...]"

_ARITH_FN = ConditionEvaluator._arith


def _run(code, attrs: Mapping[str, str]):
    """Execute one test's bytecode; returns True, False or :data:`FAIL`.

    :raises KeyNoteEvalError: for a malformed *dynamic* regex pattern —
        the one hard error the tree walker also raises at query time.
    """
    stack: list = []
    push = stack.append
    pop = stack.pop
    pc = 0
    size = len(code)
    while pc < size:
        op, arg = code[pc]
        pc += 1
        if op == OP_ATTR:
            push(attrs.get(arg, ""))
        elif op == OP_CONST:
            push(arg)
        elif op == OP_CMP:
            b = pop()
            a = pop()
            if b is FAIL:
                push(FAIL)
                continue
            a_num = _num_or_none(a)
            b_num = _num_or_none(b)
            if a_num is not None and b_num is not None:
                push(_NUMERIC_COMPARISONS[arg](a_num, b_num))
            elif (a_num is None) != (b_num is None):
                # Mixed numeric/non-numeric: (in)equality is a meaningful
                # string test, ordered comparison soft-fails (RFC 2704).
                if arg == "==":
                    push(False)
                elif arg == "!=":
                    push(True)
                else:
                    push(FAIL)
            else:
                push(_STRING_COMPARISONS[arg](_as_string(a), _as_string(b)))
        elif op == OP_JFALSE:
            if stack[-1] is False or stack[-1] is FAIL:
                pc = arg
            else:
                pop()
        elif op == OP_JTRUE:
            if stack[-1] is True:
                pc = arg
            else:
                pop()  # discard False *or FAIL*: || protects its left arm
        elif op == OP_JFAIL:
            if stack[-1] is FAIL:
                pc = arg
        elif op == OP_MATCH_CONST:
            a = pop()
            push(FAIL if a is FAIL
                 else arg.search(_as_string(a)) is not None)
        elif op == OP_MATCH:
            b = pop()
            a = pop()
            if b is FAIL:
                push(FAIL)
                continue
            pattern = _as_string(b)
            try:
                push(re.search(pattern, _as_string(a)) is not None)
            except re.error as exc:
                raise KeyNoteEvalError(
                    f"bad regular expression {pattern!r}: {exc}")
        elif op == OP_TRUTH:
            v = pop()
            if v is FAIL:
                push(FAIL)
            else:
                v_num = _num_or_none(v)
                push(v == "true" if v_num is None else v_num != 0.0)
        elif op == OP_NOT:
            t = pop()
            push(FAIL if t is FAIL else not t)
        elif op == OP_BOOL2STR:
            t = pop()
            push(FAIL if t is FAIL else ("true" if t else "false"))
        elif op == OP_ARITH:
            b = pop()
            a = pop()
            if b is FAIL:
                push(FAIL)
                continue
            try:
                push(_ARITH_FN(arg, _as_number(a), _as_number(b)))
            except _SoftFailure:
                push(FAIL)
        elif op == OP_CONCAT:
            b = pop()
            a = pop()
            push(FAIL if b is FAIL else _as_string(a) + _as_string(b))
        elif op == OP_NEG:
            v = pop()
            if v is FAIL:
                push(FAIL)
            else:
                v_num = _num_or_none(v)
                push(FAIL if v_num is None else -v_num)
        elif op == OP_DEREF:
            v = pop()
            push(FAIL if v is FAIL else attrs.get(_as_string(v), ""))
        else:  # OP_FAIL
            push(FAIL)
    return stack[-1]


def _num_or_none(value):
    """float(value) or None — one conversion where the tree walker pays
    two (_is_numeric then _as_number)."""
    if type(value) is float:
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


# -- compiler -----------------------------------------------------------------

#: stateless tree-walking evaluator used for compile-time constant folding
_CONST_EVAL = ConditionEvaluator({}, DEFAULT_VALUE_SET)


def _is_const(expr: Expr) -> bool:
    """True when no attribute (direct or dereferenced) can influence
    ``expr`` — the subtree folds to a constant at compile time."""
    if isinstance(expr, (StringLit, NumberLit)):
        return True
    if isinstance(expr, (Attribute, Deref)):
        return False
    if isinstance(expr, Unary):
        return _is_const(expr.operand)
    if isinstance(expr, Binary):
        return _is_const(expr.left) and _is_const(expr.right)
    return False


def _emit_truth(expr: Expr, code: list) -> None:
    """Emit bytecode leaving the *truth* of ``expr`` (bool or FAIL)."""
    if _is_const(expr):
        try:
            code.append([OP_CONST, _CONST_EVAL._truth(expr)])
            return
        except _SoftFailure:
            code.append([OP_FAIL, None])
            return
        except KeyNoteEvalError:
            pass  # e.g. bad literal regex: defer the hard error to runtime
    if isinstance(expr, Binary) and expr.op in _BOOL_OPS:
        mark = len(code)
        _emit_truth(expr.left, code)
        if len(code) == mark + 1 and code[mark][0] in (OP_CONST, OP_FAIL):
            # Constant left arm with a dynamic right arm: either the left
            # arm decides (keep it as the result) or it is transparent
            # (drop it, the right arm alone remains).  A FAIL left arm
            # decides && (propagates) and is absorbed by ||.
            left_true = (code[mark][0] == OP_CONST
                         and code[mark][1] is True)
            if left_true if expr.op == "||" else not left_true:
                return
            code.pop()
            _emit_truth(expr.right, code)
            return
        jump = [OP_JFALSE if expr.op == "&&" else OP_JTRUE, None]
        code.append(jump)
        _emit_truth(expr.right, code)
        jump[1] = len(code)
        return
    if isinstance(expr, Unary) and expr.op == "!":
        _emit_truth(expr.operand, code)
        code.append([OP_NOT, None])
        return
    if isinstance(expr, Binary) and (expr.op in _COMPARE_OPS
                                     or expr.op == "~="):
        _emit_compare(expr, code)
        return
    _emit_value(expr, code)
    code.append([OP_TRUTH, None])


def _emit_compare(expr: Binary, code: list) -> None:
    _emit_value(expr.left, code)
    if expr.op == "~=" and isinstance(expr.right, StringLit):
        try:
            compiled = re.compile(expr.right.value)
        except re.error:
            compiled = None  # defer: KeyNoteEvalError at query time
        if compiled is not None:
            code.append([OP_MATCH_CONST, compiled])
            return
    # Strict left-to-right: a soft-failed left operand must skip the
    # right operand entirely (its evaluation could raise a hard error the
    # tree walker would never reach).
    jump = [OP_JFAIL, None]
    code.append(jump)
    _emit_value(expr.right, code)
    code.append([OP_MATCH if expr.op == "~=" else OP_CMP,
                 None if expr.op == "~=" else expr.op])
    jump[1] = len(code)


def _emit_value(expr: Expr, code: list) -> None:
    """Emit bytecode leaving the *value* of ``expr`` (str, float or FAIL)."""
    if isinstance(expr, StringLit):
        code.append([OP_CONST, expr.value])
        return
    if isinstance(expr, NumberLit):
        code.append([OP_CONST, _number_literal(expr.literal)])
        return
    if isinstance(expr, Attribute):
        code.append([OP_ATTR, expr.name])
        return
    if _is_const(expr):
        try:
            code.append([OP_CONST, _CONST_EVAL._value(expr)])
            return
        except _SoftFailure:
            code.append([OP_FAIL, None])
            return
        except KeyNoteEvalError:
            pass
    if isinstance(expr, Deref):
        _emit_value(expr.inner, code)
        code.append([OP_DEREF, None])
        return
    if isinstance(expr, Unary):
        if expr.op == "-":
            _emit_value(expr.operand, code)
            code.append([OP_NEG, None])
            return
        if expr.op == "!":
            _emit_truth(expr.operand, code)
            code.append([OP_NOT, None])
            code.append([OP_BOOL2STR, None])
            return
        raise KeyNoteEvalError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, Binary):
        if expr.op == "." or expr.op in _ARITH_OPS:
            _emit_value(expr.left, code)
            jump = [OP_JFAIL, None]
            code.append(jump)
            _emit_value(expr.right, code)
            code.append([OP_CONCAT, None] if expr.op == "."
                        else [OP_ARITH, expr.op])
            jump[1] = len(code)
            return
        if expr.op in _COMPARE_OPS | {"~="} | _BOOL_OPS:
            _emit_truth(expr, code)
            code.append([OP_BOOL2STR, None])
            return
        raise KeyNoteEvalError(f"unknown operator {expr.op!r}")
    raise KeyNoteEvalError(f"cannot evaluate {expr!r}")


def compile_test(expr: Expr) -> "Code | None":
    """Compile one clause test to bytecode.

    Returns ``None`` when the test folds to a static True (the caller
    skips the VM), and ``()`` when it folds to static False/FAIL (the
    caller drops the clause).
    """
    code: list = []
    _emit_truth(expr, code)
    if len(code) == 1 and code[0][0] == OP_CONST:
        return None if code[0][1] is True else ()
    if len(code) == 1 and code[0][0] == OP_FAIL:
        return ()
    return tuple((op, arg) for op, arg in code)


class _CompiledClause:
    """One clause: compiled test + its value form.

    ``kind`` 0 yields ``_MAX_TRUST``, 1 a named value (resolved against
    the query's value set when the test passes — unknown names must keep
    raising exactly then), 2 a nested tuple of compiled clauses.
    """

    __slots__ = ("code", "kind", "payload")

    def __init__(self, code, kind: int, payload) -> None:
        self.code = code
        self.kind = kind
        self.payload = payload


def _compile_clause(clause: Clause) -> "_CompiledClause | None":
    code = compile_test(clause.test)
    if code == ():
        return None  # statically false test: the clause can never fire
    if clause.value is None:
        return _CompiledClause(code, 0, None)
    if isinstance(clause.value, ConditionsProgram):
        nested = tuple(c for c in map(_compile_clause, clause.value.clauses)
                       if c is not None)
        return _CompiledClause(code, 2, nested)
    return _CompiledClause(code, 1, clause.value)


def _clause_value(clause: _CompiledClause, attrs: Mapping[str, str],
                  values: ComplianceValueSet) -> str:
    if clause.code is not None and _run(clause.code, attrs) is not True:
        return values.minimum
    if clause.kind == 0:
        return values.maximum
    if clause.kind == 1:
        return values.resolve(clause.payload)
    result = values.minimum
    for sub in clause.payload:
        result = values.join([result, _clause_value(sub, attrs, values)])
    return result


class CompiledConditions:
    """A Conditions program lowered to bytecode, evaluated many times.

    Built once (per assertion, at checker construction) and then invoked
    per query with just the action attribute set and the value set —
    exactly :meth:`ConditionEvaluator.program_value`, without re-walking
    the AST.  :meth:`referenced_attributes` reports which action
    attributes can influence the program's value (``None`` when a ``$``
    dereference makes the set dynamic), which is what lets the decision
    cache ignore irrelevant attributes such as an unused ``_cur_time``.
    """

    __slots__ = ("program", "_clauses", "_referenced")

    def __init__(self, program: ConditionsProgram) -> None:
        self.program = program
        self._clauses = tuple(
            c for c in map(_compile_clause, program.clauses)
            if c is not None)
        names: set[str] = set()
        dynamic = _collect_program_attributes(program, names)
        self._referenced: "frozenset[str] | None" = (
            None if dynamic else frozenset(names))

    def value(self, attributes: Mapping[str, str],
              values: ComplianceValueSet) -> str:
        """Compliance value of the program for one attribute set."""
        result = values.minimum
        for clause in self._clauses:
            result = values.join([result,
                                  _clause_value(clause, attributes, values)])
        return result

    def referenced_attributes(self) -> "frozenset[str] | None":
        """Attributes the program reads, or None when ``$`` makes the set
        depend on runtime values."""
        return self._referenced

    def instruction_count(self) -> int:
        """Total emitted instructions (0 for a fully folded program)."""
        def count(clauses) -> int:
            total = 0
            for clause in clauses:
                total += len(clause.code or ())
                if clause.kind == 2:
                    total += count(clause.payload)
            return total
        return count(self._clauses)

    def disassemble(self) -> list[str]:
        """Human-readable listing of every clause's bytecode."""
        lines: list[str] = []

        def dump(clauses, indent: str) -> None:
            for index, clause in enumerate(clauses):
                value = {0: "-> _MAX_TRUST",
                         1: f"-> {clause.payload!r}",
                         2: "-> {...}"}[clause.kind]
                lines.append(f"{indent}clause {index} {value}")
                if clause.code is None:
                    lines.append(f"{indent}  <static true>")
                else:
                    for addr, (op, arg) in enumerate(clause.code):
                        suffix = "" if arg is None else f" {arg!r}"
                        lines.append(
                            f"{indent}  {addr:3d} {OP_NAMES[op]}{suffix}")
                if clause.kind == 2:
                    dump(clause.payload, indent + "  ")
        dump(self._clauses, "")
        return lines


def compile_conditions(program: ConditionsProgram) -> CompiledConditions:
    """Lower a Conditions program into a :class:`CompiledConditions`."""
    return CompiledConditions(program)


def _collect_program_attributes(program: ConditionsProgram,
                                names: set) -> bool:
    """Accumulate attribute names read by ``program``; True if dynamic."""
    dynamic = False
    for clause in program.clauses:
        dynamic |= _collect_expr_attributes(clause.test, names)
        if isinstance(clause.value, ConditionsProgram):
            dynamic |= _collect_program_attributes(clause.value, names)
    return dynamic


def _collect_expr_attributes(expr: Expr, names: set) -> bool:
    if isinstance(expr, Attribute):
        names.add(expr.name)
        return False
    if isinstance(expr, Deref):
        _collect_expr_attributes(expr.inner, names)
        return True
    if isinstance(expr, Unary):
        return _collect_expr_attributes(expr.operand, names)
    if isinstance(expr, Binary):
        left = _collect_expr_attributes(expr.left, names)
        right = _collect_expr_attributes(expr.right, names)
        return left or right
    return False
