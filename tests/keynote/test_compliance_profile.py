"""Profiling counters and the taint rule of the compliance checker.

The fixpoint memoises principal values, but a value computed while a
cycle-break assumption was live may be an under-approximation and must not
be cached — unless it is already the maximum, which monotonicity makes safe.
These tests pin both sides of that rule down through the new memo hit/miss
counters, and check that the counters are inert when a decision-cache hit
skips the fixpoint (and with it the memo table).
"""

import pytest

from repro.errors import CredentialError
from repro.crypto import Keystore
from repro.keynote.compliance import (
    ComplianceChecker,
    ComplianceStats,
    evaluate_query,
)
from repro.keynote.credential import Credential
from repro.keynote.values import ComplianceValueSet
from repro.obs.metrics import MetricsRegistry

TRI = ComplianceValueSet(("reject", "log", "approve"))


@pytest.fixture
def keystore() -> Keystore:
    ks = Keystore()
    for name in ("Ka", "Kb", "Kc", "Kd", "Ke"):
        ks.create(name)
    return ks


def policy(licensees: str, conditions: str) -> Credential:
    return Credential.build("POLICY", licensees, conditions)


def signed(keystore: Keystore, authorizer: str, licensees: str,
           conditions: str) -> Credential:
    cred = Credential.build(authorizer, licensees, conditions)
    return cred.sign(keystore.pair(authorizer).private)


def diamond(keystore: Keystore) -> list[Credential]:
    """POLICY -> Ka -> (Kb and Kc) -> Kd -> Ke: Kd is reached twice."""
    return [
        policy('"Ka"', "true"),
        signed(keystore, "Ka", '"Kb" && "Kc"', "true"),
        signed(keystore, "Kb", '"Kd"', "true"),
        signed(keystore, "Kc", '"Kd"', "true"),
        signed(keystore, "Kd", '"Ke"', "true"),
    ]


class TestMemoCounters:
    def test_diamond_produces_memo_hit(self, keystore):
        checker = ComplianceChecker(diamond(keystore), keystore=keystore)
        assert checker.query({}, ["Ke"]) == "true"
        profile = checker.last_query_stats
        # Kd is evaluated through Kb (miss), then served from the memo
        # through Kc; POLICY, Ka, Kb, Kd, Kc are the five misses.
        assert profile.memo_hits == 1
        assert profile.memo_misses == 5
        assert profile.cycles_broken == 0
        assert profile.max_depth == 4  # POLICY -> Ka -> Kb -> Kd

    def test_counters_inert_without_memoisation(self, keystore):
        # A decision-cache hit never consults the fixpoint's memo table.
        checker = ComplianceChecker(diamond(keystore), keystore=keystore)
        checker.query({}, ["Ke"])
        assert checker.query({}, ["Ke"]) == "true"
        assert checker.cache_hits == 1
        profile = checker.last_query_stats
        assert profile.queries == 1
        assert profile.memo_hits == 0
        assert profile.memo_misses == 0
        assert profile.assertions_visited == 0

    def test_stats_accumulate_across_queries(self, keystore):
        # The decision cache would serve the repeat query without running
        # the fixpoint; clear it — this test measures the search itself.
        checker = ComplianceChecker(diamond(keystore), keystore=keystore)
        checker.query({}, ["Ke"])
        first = checker.last_query_stats
        checker.clear_decision_cache()
        checker.query({}, ["Ke"])
        assert checker.stats.queries == 2
        assert checker.stats.memo_hits == 2 * first.memo_hits
        assert checker.stats.memo_misses == 2 * first.memo_misses
        # last_query_stats covers only the most recent query.
        assert checker.last_query_stats.queries == 1

    def test_metrics_registry_mirrors_profile(self, keystore):
        metrics = MetricsRegistry()
        checker = ComplianceChecker(diamond(keystore), keystore=keystore,
                                    metrics=metrics)
        checker.query({}, ["Ke"])
        assert metrics.counter("keynote.queries").value == 1
        assert metrics.counter("keynote.memo.hit").value == 1
        assert metrics.counter("keynote.memo.miss").value == 5
        assert metrics.histogram("keynote.fixpoint_depth").maximum() == 4


class TestTaintRule:
    def test_cycle_under_approximation_is_not_memoised(self, keystore):
        # Two policy assertions both reach the Ka <-> Kb cycle; nobody
        # delegates to the requester, so every value on the cycle is the
        # under-approximated minimum and must NOT be cached: the second
        # policy assertion has to re-walk Kb from scratch.
        assertions = [
            policy('"Ka"', "true"),
            policy('"Kb"', "true"),
            signed(keystore, "Ka", '"Kb"', "true"),
            signed(keystore, "Kb", '"Ka"', "true"),
        ]
        checker = ComplianceChecker(assertions, keystore=keystore)
        assert checker.query({}, ["Ke"]) == "false"
        profile = checker.last_query_stats
        # A cached under-approximation would have made the second walk a
        # hit; instead both walks are cold and both break the cycle.
        assert profile.memo_hits == 0
        assert profile.memo_misses == 7
        assert profile.cycles_broken == 2

    def test_maximum_under_taint_is_still_cached(self, keystore):
        # Kb sits on a cycle back to Ka, but one of its licensees is the
        # requester, so its value is the maximum — which is always safe to
        # cache (monotonicity: the true value cannot be lower).  The second
        # policy assertion then gets Kb straight from the memo.
        assertions = [
            policy('"Ka"', 'true -> "log"'),
            policy('"Kb"', "true"),
            signed(keystore, "Ka", '"Kb"', "true"),
            signed(keystore, "Kb", '"Ka" || "Ke"', "true"),
        ]
        checker = ComplianceChecker(assertions, keystore=keystore)
        assert checker.query({}, ["Ke"], TRI) == "approve"
        profile = checker.last_query_stats
        assert profile.memo_hits == 1  # Kb, despite the tainted subtree
        assert profile.cycles_broken == 1

    def test_cycle_cannot_raise_trust(self, keystore):
        # Sanity: the under-approximation is also the correct answer here.
        assertions = [
            policy('"Ka"', "true"),
            signed(keystore, "Ka", '"Kb"', "true"),
            signed(keystore, "Kb", '"Ka"', "true"),
        ]
        checker = ComplianceChecker(assertions, keystore=keystore)
        assert checker.query({}, ["Kc"]) == "false"
        assert checker.last_query_stats.cycles_broken >= 1


class TestLicenseeDisjunction:
    """POLICY licenses four orgs with one ``||``; each org licenses Ke,
    and only the granting org's credential holds for the request (the
    others' conditions have no equality guard, so a visit reads them)."""

    ORGS = ("Ka", "Kb", "Kc", "Kd")

    def checker(self, keystore, granting: str) -> ComplianceChecker:
        orgs = " || ".join(f'"{org}"' for org in self.ORGS)
        return ComplianceChecker([policy(orgs, 'app=="grid"'), *(
            signed(keystore, org, '"Ke"', f'org=="{org}"'
                   if org == granting else 'org=="none" || app=="none"')
            for org in self.ORGS)], keystore=keystore)

    def test_the_first_granting_org_ends_the_disjunction(self, keystore):
        checker = self.checker(keystore, "Ka")
        assert checker.query({"app": "grid", "org": "Ka"}, ["Ke"]) == "true"
        # POLICY's assertion and Ka's: no other org is visited.
        assert checker.last_query_stats.assertions_visited == 2
        assert checker.last_query_stats.memo_misses == 2
        # ... or recorded: adding under Kb leaves the decision cached.
        checker.add_assertion(
            signed(keystore, "Kb", '"Ke"', 'org=="Ka"'))
        assert checker.cached_decision(
            {"app": "grid", "org": "Ka"}, ["Ke"])[1] == "true"

    def test_orgs_after_the_granting_one_are_not_visited(self, keystore):
        checker = self.checker(keystore, "Kc")
        assert checker.query({"app": "grid", "org": "Kc"}, ["Ke"]) == "true"
        assert checker.last_query_stats.assertions_visited == 4
        assert checker.last_query_stats.memo_misses == 4
        checker.add_assertion(
            signed(keystore, "Kd", '"Ke"', 'org=="Kc"'))
        assert checker.cached_decision(
            {"app": "grid", "org": "Kc"}, ["Ke"])[1] == "true"
        # A denial visits every org (Kc's guarded credential is skipped).
        assert checker.query({"app": "grid", "org": "Kx"}, ["Ke"]) == "false"
        assert checker.last_query_stats.assertions_visited == 4
        assert checker.last_query_stats.memo_misses == 5


class TestEvaluateQueryParity:
    """The one-shot helper must honour the same knobs as the checker."""

    def test_strict_flag_is_plumbed_through(self, keystore):
        unsigned = Credential.build("Ka", '"Kb"', "true")
        creds = [policy('"Ka"', "true"), unsigned]
        # Non-strict: the bad credential is silently discarded.
        assert evaluate_query(creds, {}, ["Kb"],
                              keystore=keystore) == "false"
        with pytest.raises(CredentialError):
            evaluate_query(creds, {}, ["Kb"], keystore=keystore, strict=True)


class TestComplianceStats:
    def test_merge_and_reset(self):
        stats = ComplianceStats(queries=1, memo_hits=2, memo_misses=3,
                                assertions_visited=4, max_depth=5,
                                cycles_broken=6)
        stats.merge(ComplianceStats(queries=1, memo_hits=1, memo_misses=1,
                                    assertions_visited=1, max_depth=2,
                                    cycles_broken=1))
        assert stats.as_dict() == {
            "queries": 2, "memo_hits": 3, "memo_misses": 4,
            "assertions_visited": 5, "max_depth": 5, "cycles_broken": 7,
        }
        stats.reset()
        assert stats.as_dict() == {
            "queries": 0, "memo_hits": 0, "memo_misses": 0,
            "assertions_visited": 0, "max_depth": 0, "cycles_broken": 0,
        }
