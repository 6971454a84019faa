"""Compiled-vs-tree-walk equivalence for the condition compiler.

The closures :func:`~repro.keynote.eval.compile_conditions` lowers a
program to must agree with the tree-walking :class:`ConditionEvaluator`
on every program: same value, same soft-failure outcomes, and —
crucially — the same *hard* errors (a soft-failed left operand must keep
the right operand unevaluated in both implementations).  A generated
program also survives its credential's text form: the Conditions a
credential journals parse back to it, literal whitespace and escaped
quotes included.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyNoteEvalError, KeyNoteSyntaxError
from repro.keynote.ast import (Attribute, Binary, Clause, ConditionsProgram,
                               Deref, NumberLit, Slot, StringLit, Unary, bind)
from repro.keynote.compliance import ComplianceChecker
from repro.keynote.credential import Credential
from repro.keynote.eval import ConditionEvaluator, compile_conditions
from repro.keynote.parser import parse_conditions
from repro.keynote.values import DEFAULT_VALUE_SET, ComplianceValueSet

VALUES = ComplianceValueSet(("low", "medium", "high"))

_ATTR_NAMES = ("a", "b", "num", "flag")
_LEAVES = st.one_of(
    st.sampled_from([StringLit("x"), StringLit("true"), StringLit(""),
                     StringLit("3"), NumberLit("2"), NumberLit("0"),
                     NumberLit("3.5"), StringLit("x  y"), StringLit("\tx "),
                     StringLit('say "hi"')]),
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
    {}, optional={name: st.sampled_from(["", "1", "2", "x", "true", "b",
                                         "x  y"])
                  for name in _ATTR_NAMES})


def _text(expr) -> str:
    """Conditions text for ``expr``, parenthesised so it parses back to
    exactly this tree."""
    if isinstance(expr, StringLit):
        return '"' + expr.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(expr, NumberLit):
        return expr.literal
    if isinstance(expr, Attribute):
        return expr.name
    if isinstance(expr, Deref):
        return f"$({_text(expr.inner)})"
    if isinstance(expr, Unary):
        return f"({expr.op}({_text(expr.operand)}))"
    return f"({_text(expr.left)} {expr.op} {_text(expr.right)})"


def _program_outcomes(program, attributes, values):
    """(tree outcome, compiled outcome) where an outcome is a value string
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
        # The journalled text of a credential carrying the program (what
        # recovery reads) parses back to it.
        journalled = Credential.build("POLICY", '"Ka"',
                                      _text(expr)).to_text()
        read = Credential.from_text(journalled)
        assert read.conditions == program
        assert _program_outcomes(read.conditions, attributes,
                                 DEFAULT_VALUE_SET) == (tree, byte)

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


#: the comparisons a shape may leave a literal of as a slot
_SLOT_OPS = ("==", "!=", "<", ">", "<=", ">=")
#: non-numeric literals only: a template never slots a numeric one
_SLOT_LITERALS = st.sampled_from(["x", "", "true", "b", "x  y", "\tx ",
                                  'say "hi"', "[", "zz"])
BINDINGS = st.tuples(_SLOT_LITERALS, _SLOT_LITERALS, _SLOT_LITERALS)
_SLOT_TESTS = st.tuples(
    st.sampled_from(_SLOT_OPS), st.sampled_from(_ATTR_NAMES).map(Attribute),
    st.integers(0, 2).map(Slot), st.booleans(),
).map(lambda t: Binary(t[0], t[1], t[2]) if t[3] else Binary(t[0], t[2], t[1]))
#: shapes: the generated expressions plus slot comparisons, a slot read
#: anywhere, a literal pattern and a literal bad regex
SHAPES = st.recursive(
    st.one_of(_LEAVES, _SLOT_TESTS, st.integers(0, 2).map(Slot),
              st.sampled_from(_ATTR_NAMES).map(
                  lambda name: Binary("~=", Attribute(name), StringLit("x+"))),
              st.sampled_from(_ATTR_NAMES).map(
                  lambda name: Binary("~=", Attribute(name), StringLit("[")))),
    _exprs, max_leaves=12)


def _bound_outcomes(shape, attributes, values, binding):
    """(tree outcome on the bound tree, compiled outcome of the shape
    under ``binding``), each a value or ``("error", message)``."""
    try:
        tree = ConditionEvaluator(attributes, values).program_value(
            bind(shape, binding))
    except KeyNoteEvalError as exc:
        tree = ("error", str(exc))
    compiled = compile_conditions(shape)
    try:
        rank = compiled.rank(attributes, values, binding)
        bound = values.values[rank]
        assert compiled.value(attributes, values, binding) == bound
    except KeyNoteEvalError as exc:
        bound = ("error", str(exc))
    return tree, bound


class TestBoundShapes:
    """A shape compiled once and evaluated against a binding is the tree
    walker on the tree :func:`~repro.keynote.ast.bind` fills from it."""

    @given(expr=SHAPES, attributes=ATTRIBUTES, binding=BINDINGS)
    @settings(max_examples=300, deadline=None)
    def test_a_bound_shape_is_its_concrete_tree(self, expr, attributes,
                                                binding):
        shape = ConditionsProgram((Clause(expr, None),))
        tree, bound = _bound_outcomes(shape, attributes, DEFAULT_VALUE_SET,
                                      binding)
        assert tree == bound

    @given(exprs=st.lists(SHAPES, min_size=1, max_size=3),
           attributes=ATTRIBUTES, binding=BINDINGS)
    @settings(max_examples=150, deadline=None)
    def test_named_values_and_nested_programs(self, exprs, attributes,
                                              binding):
        names = ("low", "medium", "high")
        shape = ConditionsProgram(tuple(
            Clause(expr, names[i % 3] if i % 2 else ConditionsProgram(
                (Clause(expr, names[(i + 1) % 3]),)))
            for i, expr in enumerate(exprs)))
        tree, bound = _bound_outcomes(shape, attributes, VALUES, binding)
        assert tree == bound

    @given(expr=EXPRESSIONS, attributes=ATTRIBUTES)
    @settings(max_examples=200, deadline=None)
    def test_a_credentials_shape_and_binding_are_its_text(self, expr,
                                                          attributes):
        """Through the credential's text: the template's slots, the shared
        shape and the binding evaluate as the program the text writes."""
        credential = Credential.build("POLICY", '"Ka"', _text(expr))
        program = ConditionsProgram((Clause(expr, None),))
        assert credential.conditions == program
        tree, bound = _bound_outcomes(credential.shape, attributes,
                                      DEFAULT_VALUE_SET, credential.binding)
        assert (tree, bound) == _program_outcomes(program, attributes,
                                                  DEFAULT_VALUE_SET)

    @pytest.mark.parametrize("conditions", [
        'a == "{}"',
        'a == "{}" && b != "{}" && c < "{}"',
        'a == "{}" || b == "{}" || c == "{}"',
    ])
    def test_plain_tests_and_chains_read_their_binding(self, conditions):
        first = Credential.build("POLICY", '"Ka"',
                                 conditions.format("x", "y", "m"))
        second = Credential.build("POLICY", '"Kb"',
                                  conditions.format("x2", "y2", "z2"))
        slots = conditions.count("{}")
        assert first.binding == ("x", "y", "m")[:slots]
        assert second.binding == ("x2", "y2", "z2")[:slots]
        assert first.shape is second.shape
        compiled = compile_conditions(first.shape)
        for credential in (first, second):
            reported = [value for _, constants
                        in compiled.closures(credential.binding)
                        for value in constants]
            assert all(literal in reported for literal in credential.binding)
            concrete = compile_conditions(credential.conditions)
            for values in ({"a": "x", "b": "q", "c": "a"},
                           {"a": "x2", "b": "y2", "c": "z2"}, {}):
                assert compiled.value(values, DEFAULT_VALUE_SET,
                                      credential.binding) == \
                    concrete.value(values, DEFAULT_VALUE_SET)
        # Unbound, a slot reports itself.
        assert Slot(0) in [value for _, constants in compiled.closures()
                           for value in constants]

    def test_a_literal_bad_regex_still_raises_per_query(self):
        credential = Credential.build("POLICY", '"Ka"',
                                      'a == "x" && b ~= "["')
        assert credential.binding == ("x",)
        compiled = compile_conditions(credential.shape)
        assert compiled.value({"a": "y"}, DEFAULT_VALUE_SET,
                              credential.binding) == "false"
        with pytest.raises(KeyNoteEvalError):
            compiled.value({"a": "x"}, DEFAULT_VALUE_SET, credential.binding)
        with pytest.raises(KeyNoteEvalError):
            ConditionEvaluator({"a": "x"}, DEFAULT_VALUE_SET).program_value(
                credential.conditions)


class TestTargetedSemantics:
    def test_soft_failure_skips_right_operand(self):
        # The left comparison soft-fails (string vs number ordered), so
        # the right operand's bad regex must stay unevaluated — in the
        # tree walker the exception unwinds first, in the compiled
        # comparison it propagates before the right closure runs.
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

    def test_or_propagates_its_last_arms_soft_failure(self):
        # Only the arms before the last are protected: the last arm's
        # soft failure fails the whole ||, and so the test around it.
        assert _value('!(a == "1" || ("x" < a))', {"a": "2"}) == "false"
        assert _value('!(("x" < a) || a == "1")', {"a": "2"}) == "true"

    def test_unknown_value_name_raises_only_when_test_passes(self):
        program = parse_conditions('a == "1" -> "no-such-value"')
        compiled = compile_conditions(program)
        assert compiled.value({"a": "0"}, VALUES) == "low"
        with pytest.raises(Exception):
            compiled.value({"a": "1"}, VALUES)


class TestConstantFolding:
    def test_constant_program_emits_no_instructions(self):
        compiled = compile_conditions(parse_conditions('1 < 2 && 3 == 3'))
        assert compiled.closures() == []
        assert compiled.value({}, DEFAULT_VALUE_SET) == "true"

    def test_statically_false_clause_is_dropped(self):
        compiled = compile_conditions(
            parse_conditions('1 > 2 -> "high"; a == "1" -> "medium"'))
        held = [value for _, constants in compiled.closures()
                for value in constants]
        assert "medium" in held and "high" not in held
        assert compiled.value({"a": "1"}, VALUES) == "medium"
        assert compiled.value({"a": "0"}, VALUES) == "low"

    def test_constant_subexpression_is_folded(self):
        compiled = compile_conditions(parse_conditions('a == 2 * 3'))
        # 2 * 3 folded at compile time: one comparison against 6.0 and no
        # arithmetic closure
        closures = compiled.closures()
        assert "chain" not in [name for name, _ in closures]
        assert ("constant", (6.0,)) in closures
        assert compiled.value({"a": "6"}, DEFAULT_VALUE_SET) == "true"

    def test_short_circuit_skips_right_arm(self):
        # A statically-true left arm folds the whole || to a constant.
        compiled = compile_conditions(parse_conditions('1 < 2 || a == "1"'))
        assert compiled.closures() == []

    def test_referenced_attributes(self):
        compiled = compile_conditions(parse_conditions('a == "1" && b < 2'))
        assert compiled.referenced_attributes() == frozenset({"a", "b"})
        dynamic = compile_conditions(parse_conditions('$a == "1"'))
        assert dynamic.referenced_attributes() is None

    def test_disassemble_lists_opcodes(self):
        compiled = compile_conditions(parse_conditions('a == "x" && b < 2'))
        closures = dict(compiled.closures())
        assert closures["all_of"] == (True,)  # one n-ary conjunction
        assert closures["equals"] == ("x", "a")  # a plain string test
        assert "compare_values" in closures
        assert closures["attribute"] == ("b",)
        assert closures["constant"] == (2.0,)


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


def _deepest(build, limit=5000):
    """The largest depth in [1, limit] for which ``build(depth)`` parses
    (``build`` raises KeyNoteSyntaxError past the parser's reach)."""
    low, high = 1, limit
    while low < high:
        middle = (low + high + 1) // 2
        try:
            build(middle)
        except KeyNoteSyntaxError:
            high = middle - 1
        else:
            low = middle
    return low


def _deep_value(text, attributes):
    """The compiled value of ``text``, checked against the tree walker,
    whose recursion a deep program needs more frames for."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 4000)
    try:
        tree = ConditionEvaluator(attributes, DEFAULT_VALUE_SET).program_value(
            parse_conditions(text))
    finally:
        sys.setrecursionlimit(limit)
    compiled = compile_conditions(parse_conditions(text))
    assert compiled.value(attributes, DEFAULT_VALUE_SET) == tree
    return tree


class TestDeepPrograms:
    """Programs far deeper than a recursive compiler could lower, each
    checked inside a POLICY -> K1 -> K2 -> K3 -> K4 delegation chain whose
    every hop carries the program, against values computed by hand."""

    HOPS = ("POLICY", "K1", "K2", "K3", "K4")

    def _decide(self, text, attributes):
        # The hops share one parsed program (one text, no constants).
        chain = [Credential.build(author, f'"{licensee}"', text)
                 for author, licensee in zip(self.HOPS, self.HOPS[1:])]
        checker = ComplianceChecker(chain, verify_signatures=False)
        value = checker.query(attributes, ["K4"])
        if value == "true":  # a grant walked every hop
            assert checker.last_query_stats.max_depth == 4
        return value

    def test_a_5000_term_or_chain(self):
        text = " || ".join(f'a=="v{n}"' for n in range(5000))
        assert self._decide(text, {"a": "v4999"}) == "true"
        assert self._decide(text, {"a": "v0"}) == "true"
        assert self._decide(text, {"a": "v5000"}) == "false"

    def test_a_5000_term_and_chain(self):
        text = " && ".join(f'a{n}=="v"' for n in range(5000))
        every = {f"a{n}": "v" for n in range(5000)}
        assert self._decide(text, every) == "true"
        assert self._decide(text, {**every, "a4999": "w"}) == "false"
        assert self._decide(text, {**every, "a0": "w"}) == "false"

    def test_the_deepest_not_chain_the_parser_accepts(self):
        def text(depth):
            return "!" * depth + 'a=="x"'

        depth = _deepest(lambda d: Credential.build("POLICY", '"K1"',
                                                    text(d)))
        assert depth > 100
        for d in (depth, depth - 1):
            holds = d % 2 == 0  # an even run of ! cancels out
            assert self._decide(text(d), {"a": "x"}) == (
                "true" if holds else "false")
            assert self._decide(text(d), {"a": "y"}) == (
                "false" if holds else "true")

    def test_a_1000_term_concatenation(self):
        text = (" . ".join(f"a{n}" for n in range(1000))
                + f' == "{"x" * 1000}"')
        every = {f"a{n}": "x" for n in range(1000)}
        assert _deep_value(text, every) == "true"
        assert self._decide(text, every) == "true"
        assert self._decide(text, {**every, "a999": ""}) == "false"
        assert self._decide(text, {**every, "a0": "xx"}) == "false"

    def test_a_1000_term_arithmetic_chain(self):
        # ((n + 1) - 1) * 1 ... keeps n; a non-number fails the test
        text = ("n" + " + 1 - 1 * 1" * 333) + " == 7"
        assert _deep_value(text, {"n": "7"}) == "true"
        assert self._decide(text, {"n": "7"}) == "true"
        assert self._decide(text, {"n": "8"}) == "false"
        assert self._decide(text, {"n": "z"}) == "false"

    @pytest.mark.parametrize("depth", [299, 300])
    def test_a_300_deep_run_of_minus(self, depth):
        text = "-" * depth + "n == " + ("-3" if depth % 2 else "3")
        for n, holds in (("3", "true"), ("4", "false"), ("z", "false")):
            assert _deep_value(text, {"n": n}) == holds
            assert self._decide(text, {"n": n}) == holds

    @pytest.mark.parametrize("depth", [299, 300])
    def test_a_300_deep_run_of_dereferences(self, depth):
        # a names b, b names a: the run ends on a for an odd depth
        text = "$" * depth + 'a == "b"'
        attributes = {"a": "b", "b": "a"}
        holds = "false" if depth % 2 else "true"
        assert _deep_value(text, attributes) == holds
        assert self._decide(text, attributes) == holds

    def test_the_deepest_parenthesis_nesting_the_parser_accepts(self):
        # E(0) = c=="z";  E(n) = (a=="x" && (b=="y" || E(n - 1)))
        def text(depth):
            return ('(a=="x" && (b=="y" || ' * depth + 'c=="z"'
                    + "))" * depth)

        depth = _deepest(lambda d: Credential.build("POLICY", '"K1"',
                                                    text(d)))
        assert depth > 10
        program = text(depth)
        assert self._decide(program, {"a": "x", "b": "y"}) == "true"
        assert self._decide(program, {"a": "x", "c": "z"}) == "true"
        assert self._decide(program, {"a": "x", "b": "n",
                                      "c": "n"}) == "false"
        assert self._decide(program, {"b": "y", "c": "z"}) == "false"
