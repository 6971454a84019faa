"""Tests for ordered compliance-value sets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ComplianceError
from repro.keynote.values import DEFAULT_VALUE_SET, ComplianceValueSet

TRI = ComplianceValueSet(("reject", "approve_with_log", "approve"))


class TestConstruction:
    def test_default_is_boolean(self):
        assert DEFAULT_VALUE_SET.minimum == "false"
        assert DEFAULT_VALUE_SET.maximum == "true"

    def test_needs_two_values(self):
        with pytest.raises(ComplianceError):
            ComplianceValueSet(("only",))

    def test_rejects_duplicates(self):
        with pytest.raises(ComplianceError):
            ComplianceValueSet(("a", "a"))

    def test_rejects_reserved_names(self):
        with pytest.raises(ComplianceError):
            ComplianceValueSet(("_MIN_TRUST", "x"))

    def test_of_constructor(self):
        assert ComplianceValueSet.of(["a", "b"]).values == ("a", "b")


class TestOrdering:
    def test_rank(self):
        assert TRI.rank("reject") == 0
        assert TRI.rank("approve") == 2

    def test_reserved_aliases(self):
        assert TRI.rank("_MIN_TRUST") == 0
        assert TRI.rank("_MAX_TRUST") == 2
        assert TRI.resolve("_MAX_TRUST") == "approve"
        assert TRI.resolve("approve_with_log") == "approve_with_log"

    def test_unknown_value_raises(self):
        with pytest.raises(ComplianceError):
            TRI.rank("maybe")

    @pytest.mark.parametrize("call", [
        lambda: TRI.join(["approve", "maybe"]),
        lambda: TRI.meet(["maybe"]),
        lambda: TRI.kth_largest(["reject", "maybe"], 1),
        lambda: TRI.resolve("maybe"),
        lambda: TRI.rank(["unhashable"]),
    ], ids=["join", "meet", "kth_largest", "resolve", "unhashable"])
    def test_every_ranking_refuses_an_unknown_value(self, call):
        with pytest.raises(ComplianceError, match="not in the compliance"):
            call()

    def test_the_rank_table_stays_out_of_equality_and_repr(self):
        again = ComplianceValueSet.of(TRI.values)
        assert again == TRI and hash(again) == hash(TRI)
        assert repr(again) == ("ComplianceValueSet(values=('reject', "
                               "'approve_with_log', 'approve'))")
        assert TRI.top == 2 and DEFAULT_VALUE_SET.top == 1

    def test_meet_join(self):
        assert TRI.meet(["approve", "reject"]) == "reject"
        assert TRI.join(["approve_with_log", "reject"]) == "approve_with_log"
        assert TRI.meet([]) == "approve"
        assert TRI.join([]) == "reject"

    def test_kth_largest(self):
        vals = ["approve", "reject", "approve_with_log"]
        assert TRI.kth_largest(vals, 1) == "approve"
        assert TRI.kth_largest(vals, 2) == "approve_with_log"
        assert TRI.kth_largest(vals, 3) == "reject"
        assert TRI.kth_largest(vals, 4) == "reject"  # more than available

    def test_kth_largest_validates_k(self):
        with pytest.raises(ComplianceError):
            TRI.kth_largest(["approve"], 0)

    def test_from_bool(self):
        assert TRI.from_bool(True) == "approve"
        assert TRI.from_bool(False) == "reject"

    def test_at_least(self):
        assert TRI.at_least("approve", "approve_with_log")
        assert not TRI.at_least("reject", "approve_with_log")

    def test_contains(self):
        assert "approve" in TRI
        assert "_MAX_TRUST" in TRI
        assert "nope" not in TRI

    def test_len(self):
        assert len(TRI) == 3


class TestLatticeProperties:
    values_strategy = st.lists(
        st.sampled_from(TRI.values), min_size=1, max_size=6)

    @settings(max_examples=50, deadline=None)
    @given(values_strategy)
    def test_meet_le_join(self, vals):
        assert TRI.rank(TRI.meet(vals)) <= TRI.rank(TRI.join(vals))

    @settings(max_examples=50, deadline=None)
    @given(values_strategy)
    def test_kth_largest_monotone_in_k(self, vals):
        ranks = [TRI.rank(TRI.kth_largest(vals, k))
                 for k in range(1, len(vals) + 1)]
        assert ranks == sorted(ranks, reverse=True)

    @settings(max_examples=50, deadline=None)
    @given(values_strategy)
    def test_first_largest_is_join(self, vals):
        assert TRI.kth_largest(vals, 1) == TRI.join(vals)
