"""Bytecode-vs-tree-walk equivalence for the condition compiler (PR 8).

The postfix bytecode in :mod:`repro.keynote.eval` must agree with the
tree-walking :class:`ConditionEvaluator` on every program: same value,
same soft-failure outcomes, and — crucially — the same *hard* errors (a
soft-failed left operand must keep the right operand unevaluated in both
implementations).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyNoteEvalError, KeyNoteSyntaxError
from repro.keynote.ast import (Attribute, Binary, Clause, ConditionsProgram,
                               Deref, NumberLit, StringLit, Unary)
from repro.keynote.eval import (ConditionEvaluator, compile_conditions,
                                compile_test, _run)
from repro.keynote.parser import parse_conditions
from repro.keynote.values import DEFAULT_VALUE_SET, ComplianceValueSet

VALUES = ComplianceValueSet(("low", "medium", "high"))

_ATTR_NAMES = ("a", "b", "num", "flag")
_LEAVES = st.one_of(
    st.sampled_from([StringLit("x"), StringLit("true"), StringLit(""),
                     StringLit("3"), NumberLit("2"), NumberLit("0"),
                     NumberLit("3.5")]),
    st.sampled_from(_ATTR_NAMES).map(Attribute),
)
_UNARY_OPS = ("!", "-")
_BINARY_OPS = ("&&", "||", "==", "!=", "<", ">", "<=", ">=", "~=",
               "+", "-", "*", "/", "%", "^", ".")


def _exprs(children):
    return st.one_of(
        st.tuples(st.sampled_from(_UNARY_OPS), children)
        .map(lambda t: Unary(t[0], t[1])),
        children.map(Deref),
        st.tuples(st.sampled_from(_BINARY_OPS), children, children)
        .map(lambda t: Binary(t[0], t[1], t[2])),
    )


EXPRESSIONS = st.recursive(_LEAVES, _exprs, max_leaves=12)
ATTRIBUTES = st.fixed_dictionaries(
    {}, optional={name: st.sampled_from(["", "1", "2", "x", "true", "b"])
                  for name in _ATTR_NAMES})


def _program_outcomes(program, attributes, values):
    """(tree outcome, bytecode outcome) where an outcome is a value string
    or the marker ``("error", message)``."""
    try:
        tree = ConditionEvaluator(attributes, values).program_value(program)
    except KeyNoteEvalError as exc:
        tree = ("error", str(exc))
    compiled = compile_conditions(program)
    try:
        byte = compiled.value(attributes, values)
    except KeyNoteEvalError as exc:
        byte = ("error", str(exc))
    return tree, byte


class TestGeneratedEquivalence:
    @given(expr=EXPRESSIONS, attributes=ATTRIBUTES)
    @settings(max_examples=300, deadline=None)
    def test_single_clause_value(self, expr, attributes):
        program = ConditionsProgram((Clause(expr, None),))
        tree, byte = _program_outcomes(program, attributes, DEFAULT_VALUE_SET)
        assert tree == byte

    @given(exprs=st.lists(EXPRESSIONS, min_size=1, max_size=3),
           attributes=ATTRIBUTES)
    @settings(max_examples=150, deadline=None)
    def test_multi_clause_named_values(self, exprs, attributes):
        names = ("low", "medium", "high")
        program = ConditionsProgram(tuple(
            Clause(expr, names[i % 3]) for i, expr in enumerate(exprs)))
        tree, byte = _program_outcomes(program, attributes, VALUES)
        assert tree == byte

    @given(expr=EXPRESSIONS, inner=EXPRESSIONS, attributes=ATTRIBUTES)
    @settings(max_examples=100, deadline=None)
    def test_nested_programs(self, expr, inner, attributes):
        program = ConditionsProgram((
            Clause(expr, ConditionsProgram((Clause(inner, "medium"),))),))
        tree, byte = _program_outcomes(program, attributes, VALUES)
        assert tree == byte


def _value(text, attributes, values=DEFAULT_VALUE_SET):
    program = parse_conditions(text)
    tree, byte = _program_outcomes(program, attributes, values)
    assert tree == byte
    return byte


class TestTargetedSemantics:
    def test_soft_failure_skips_right_operand(self):
        # The left comparison soft-fails (string vs number ordered), so
        # the right operand's bad regex must stay unevaluated — in the
        # tree walker the exception unwinds first, in the bytecode the
        # JFAIL jump skips it.
        assert _value('(("x" < 1) == (a ~= "[")) || true',
                      {"a": "x"}) == "true"

    def test_dynamic_bad_regex_is_a_hard_error(self):
        program = parse_conditions('a ~= b')
        compiled = compile_conditions(program)
        with pytest.raises(KeyNoteEvalError):
            compiled.value({"a": "x", "b": "["}, DEFAULT_VALUE_SET)

    def test_literal_bad_regex_is_deferred_not_compile_time(self):
        # Compilation must not raise; the error surfaces per query,
        # exactly when the tree walker would raise it.
        program = parse_conditions('a ~= "["')
        compiled = compile_conditions(program)
        with pytest.raises(KeyNoteEvalError):
            compiled.value({"a": "x"}, DEFAULT_VALUE_SET)

    def test_or_absorbs_left_soft_failure(self):
        assert _value('("x" < 1) || true', {}) == "true"

    def test_and_propagates_soft_failure_to_false(self):
        assert _value('("x" < 1) && true', {}) == "false"

    def test_unknown_value_name_raises_only_when_test_passes(self):
        program = parse_conditions('a == "1" -> "no-such-value"')
        compiled = compile_conditions(program)
        assert compiled.value({"a": "0"}, VALUES) == "low"
        with pytest.raises(Exception):
            compiled.value({"a": "1"}, VALUES)


class TestConstantFolding:
    def test_constant_program_emits_no_instructions(self):
        compiled = compile_conditions(parse_conditions('1 < 2 && 3 == 3'))
        assert compiled.instruction_count() == 0
        assert compiled.value({}, DEFAULT_VALUE_SET) == "true"

    def test_statically_false_clause_is_dropped(self):
        compiled = compile_conditions(
            parse_conditions('1 > 2 -> "high"; a == "1" -> "medium"'))
        assert len(compiled._clauses) == 1
        assert compiled.value({"a": "1"}, VALUES) == "medium"
        assert compiled.value({"a": "0"}, VALUES) == "low"

    def test_constant_subexpression_is_folded(self):
        from repro.keynote.eval import OP_ARITH, OP_CONST
        code = compile_test(parse_conditions('a == 2 * 3').clauses[0].test)
        ops = [op for op, _ in code]
        assert OP_ARITH not in ops  # 2 * 3 folded at compile time
        assert (OP_CONST, 6.0) in code

    def test_short_circuit_skips_right_arm(self):
        # A statically-true left arm folds the whole || to a constant.
        compiled = compile_conditions(parse_conditions('1 < 2 || a == "1"'))
        assert compiled.instruction_count() == 0

    def test_referenced_attributes(self):
        compiled = compile_conditions(parse_conditions('a == "1" && b < 2'))
        assert compiled.referenced_attributes() == frozenset({"a", "b"})
        dynamic = compile_conditions(parse_conditions('$a == "1"'))
        assert dynamic.referenced_attributes() is None

    def test_disassemble_lists_opcodes(self):
        compiled = compile_conditions(parse_conditions('a == "1" && b < 2'))
        listing = "\n".join(compiled.disassemble())
        assert "ATTR" in listing and "JFALSE" in listing and "CMP" in listing


class TestMalformedNumberLiteral:
    """A NUMBER that ``float`` cannot read (only a hand-built AST can hold
    one) fails compilation as a syntax error, not a raw ``ValueError``."""

    @pytest.mark.parametrize("test", [
        Binary("<", Attribute("n"), NumberLit("\u00b2")),
        Binary("<", Binary("+", NumberLit("1"), NumberLit("\u00b2")),
               Attribute("n")),
    ])
    def test_compile_raises_syntax_error(self, test):
        with pytest.raises(KeyNoteSyntaxError):
            compile_conditions(ConditionsProgram((Clause(test),)))
