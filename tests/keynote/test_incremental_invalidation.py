"""Churn-metamorphic suite for dependency-indexed invalidation.

The metamorphic relation under test: after ANY mutation of the assertion
set, every decision the warm checker returns must equal what a cold
checker built from the post-mutation assertions computes — selective
eviction may keep or drop whatever it likes, but it must never change an
answer.  The companion direction: decisions whose recorded dependency
sets do not intersect a delta must *survive* it (entries retained, served
as hits), while dependent decisions are evicted.
"""

import itertools
import random

import pytest

from repro.keynote.compliance import ComplianceChecker
from repro.keynote.credential import Credential
from repro.oracle.keynote_oracle import oracle_compliance_value

#: the two operations the proxy workload requests (a stable referenced
#: attribute vocabulary — churn must not change the cache key shape)
_OPS = ("submit", "status")


def build_delegation_universe(*, orgs, teams, users):
    """A Grid-style delegation graph.

    POLICY licenses each org key for its own org attribute; each org
    licenses its teams (condition-pruned by team); each team licenses its
    member user keys; and each user key licenses a short-lived *proxy*
    key — the Grid single-sign-on credential, and the tier that churns.
    Requests are made by proxy keys, so the delegation cone a decision
    walks (and therefore its recorded dependency set) is confined to the
    requester's own org/team, and one proxy renewal touches only the
    issuing user key's neighbourhood.
    """
    return {
        "orgs": orgs, "teams": teams, "users": users,
        "policy_creds": [
            Credential.build("POLICY", f'"Korg{o}"',
                             f'app=="grid" && org=="o{o}"')
            for o in range(orgs)],
        "org_creds": [
            Credential.build(f"Korg{t % orgs}", f'"Kteam{t}"',
                             f'team=="t{t}"')
            for t in range(teams)],
        "team_creds": [
            Credential.build(f"Kteam{u % teams}", f'"Kuser{u}"',
                             'op=="submit" || op=="status"')
            for u in range(users)],
        "proxy_creds": [
            Credential.build(f"Kuser{u}", f'"Kproxy{u}"', 'app=="grid"')
            for u in range(users)],
        "proxy_keys": [f"Kproxy{u}" for u in range(users)],
    }


def _attrs(universe, user, op):
    team = user % universe["teams"]
    return {"app": "grid", "op": op,
            "org": f"o{team % universe['orgs']}", "team": f"t{team}"}


def small_universe():
    return build_delegation_universe(orgs=2, teams=4, users=24)


def fresh_checker(universe):
    assertions = (universe["policy_creds"] + universe["org_creds"]
                  + universe["team_creds"] + universe["proxy_creds"])
    return ComplianceChecker(assertions=assertions, verify_signatures=False)


def probe(checker, universe, user, op="submit"):
    return checker.query(_attrs(universe, user, op),
                         [universe["proxy_keys"][user]])


class TestMetamorphicEquivalence:
    """cached == cold recompute after every mutation, for every probe."""

    def assert_agrees_with_cold(self, checker, universe):
        cold = ComplianceChecker(assertions=list(checker.assertions),
                                 verify_signatures=False)
        for user in range(universe["users"]):
            for op in _OPS:
                assert probe(checker, universe, user, op) == \
                    probe(cold, universe, user, op), \
                    f"user {user} op {op} diverged from cold recompute"

    def test_seeded_churn_never_changes_an_answer(self):
        universe = small_universe()
        checker = fresh_checker(universe)
        proxy_creds = list(universe["proxy_creds"])
        for user in range(universe["users"]):  # warm every decision
            for op in _OPS:
                probe(checker, universe, user, op)
        rng = random.Random(99)
        for step in range(12):
            user = rng.randrange(universe["users"])
            if rng.random() < 0.5:
                checker.revoke_assertion(proxy_creds[user])
            else:
                renewed = Credential.build(
                    f"Kuser{user}", f'"Kproxy{user}"', 'app=="grid"',
                    local_constants={"renewal": str(step)})
                checker.add_assertion(renewed)
                proxy_creds[user] = renewed
            self.assert_agrees_with_cold(checker, universe)
        assert checker.full_flushes == 0  # the vocabulary never changed

    def test_post_churn_sample_agrees_with_oracle(self):
        universe = small_universe()
        checker = fresh_checker(universe)
        for user in range(universe["users"]):
            probe(checker, universe, user)
        checker.revoke_assertion(universe["proxy_creds"][5])
        checker.revoke_assertion(universe["team_creds"][11])
        rng = random.Random(7)
        for _ in range(20):
            user = rng.randrange(universe["users"])
            op = rng.choice(_OPS)
            attributes = _attrs(universe, user, op)
            authorizers = [universe["proxy_keys"][user]]
            assert checker.query(attributes, authorizers) == \
                oracle_compliance_value(list(checker.assertions),
                                        attributes, authorizers)


class TestSelectiveEviction:
    """Dependent decisions are evicted, non-dependent ones survive and
    keep serving hits."""

    def test_unrelated_revocation_keeps_the_entry_and_the_hit(self):
        universe = small_universe()
        checker = fresh_checker(universe)
        # user 0 (team 0) and user 1 (team 1): disjoint delegation cones.
        allow = probe(checker, universe, 0)
        probe(checker, universe, 1)
        key, cached = checker.cached_decision(
            _attrs(universe, 0, "submit"), [universe["proxy_keys"][0]])
        assert cached == allow
        hits = checker.cache_hits
        checker.revoke_assertion(universe["proxy_creds"][1])
        _key, still = checker.cached_decision(
            _attrs(universe, 0, "submit"), [universe["proxy_keys"][0]])
        assert still == allow, "non-dependent entry was evicted"
        assert probe(checker, universe, 0) == allow
        # Two hits: the cached_decision read and the probe.
        assert checker.cache_hits == hits + 2

    def test_dependent_decision_is_evicted_and_recomputed(self):
        universe = small_universe()
        checker = fresh_checker(universe)
        assert probe(checker, universe, 2) == "true"
        checker.revoke_assertion(universe["proxy_creds"][2])
        _key, cached = checker.cached_decision(
            _attrs(universe, 2, "submit"), [universe["proxy_keys"][2]])
        assert cached is None, "dependent entry survived its own delta"
        assert checker.selective_evictions >= 1
        assert probe(checker, universe, 2) == "false"

    def test_new_credential_evicts_only_the_authorizers_cone(self):
        universe = small_universe()
        checker = fresh_checker(universe)
        probe(checker, universe, 0)   # team 0
        probe(checker, universe, 3)   # team 3
        evicted_before = checker.selective_evictions
        # A second proxy credential for user 3 touches Kuser3's cone only.
        checker.add_assertion(Credential.build(
            "Kuser3", '"Kproxy3b"', 'app=="grid"'))
        _key, survivor = checker.cached_decision(
            _attrs(universe, 0, "submit"), [universe["proxy_keys"][0]])
        assert survivor is not None
        assert checker.selective_evictions >= evicted_before
        assert checker.full_flushes == 0

    def test_referenced_shape_change_falls_back_to_full_flush(self):
        universe = small_universe()
        checker = fresh_checker(universe)
        probe(checker, universe, 0)
        probe(checker, universe, 1)
        assert checker.cache_info()["entries"] == 2
        # A brand-new attribute name changes the cache-key projection:
        # selective eviction cannot address old-projection entries.
        checker.add_assertion(Credential.build(
            "Kuser0", '"Kproxy0"', 'vo=="atlas"'))
        assert checker.full_flushes == 1
        assert checker.cache_info()["entries"] == 0



def _grant(authorizer, licensee, conditions):
    return Credential.build(authorizer, f'"{licensee}"', conditions)


#: the policy grants Kalice on c=="1"; Kq and Kz are reachable from no
#: policy, so their assertions only move the referenced-attribute shape
_ALICE_ON_C = _grant("POLICY", "Kalice", 'c=="1"')
_ALICE_ON_B = _grant("POLICY", "Kalice", 'b=="1"')
_ALICE_ON_A = _grant("POLICY", "Kalice", 'a=="1"')
_UNREACHED_B = _grant("Kq", "Kbob", 'b=="1"')
_UNREACHED_D = _grant("Kz", "Kw", 'd=="1"')

#: (initial assertions, mutations): each mutation is ("add" | "revoke",
#: assertion), and every one changes the key shape
_SHAPE_CHURN = {
    # a sorts before b: b's value moves from position 0 to 1
    "add-a-reader-before-b": ([_ALICE_ON_B], [("add", _ALICE_ON_A)]),
    # the only reader of a leaves: b's value moves from position 1 to 0
    "revoke-the-only-a-reader": ([_ALICE_ON_B, _ALICE_ON_A],
                                 [("revoke", _ALICE_ON_A)]),
    # (b, c) -> (b, c, d) -> (c, d): the first and last shapes have the
    # same length, and no warm decision read the churned assertions, so
    # only the full flush keeps a (b, c) key from answering a (c, d) one
    "same-length-shift": ([_ALICE_ON_C, _UNREACHED_B],
                          [("add", _UNREACHED_D),
                           ("revoke", _UNREACHED_B)]),
}


class TestValuesOnlyKeys:
    """A decision key holds attribute values without their names, in the
    order of the referenced-attribute shape.  Every shape change flushes
    the cache, so no key built for one shape answers a request under
    another: after each mutation the warm checker equals a cold one."""

    PROBES = [dict(zip("abcd", bits))
              for bits in itertools.product("01", repeat=4)]

    @pytest.mark.parametrize("case", sorted(_SHAPE_CHURN))
    def test_shape_churn_never_aliases_a_key(self, case):
        initial, mutations = _SHAPE_CHURN[case]
        checker = ComplianceChecker(assertions=list(initial),
                                    verify_signatures=False)
        for attributes in self.PROBES:  # warm every decision
            checker.query(attributes, ["Kalice"])
        for action, assertion in mutations:
            shape = checker._referenced_key
            flushes = checker.full_flushes
            if action == "add":
                assert checker.add_assertion(assertion)
            else:
                assert checker.revoke_assertion(assertion)
            assert checker._referenced_key != shape
            assert checker.full_flushes == flushes + 1
            cold = ComplianceChecker(assertions=list(checker.assertions),
                                     verify_signatures=False)
            for attributes in self.PROBES:
                assert checker.query(attributes, ["Kalice"]) == \
                    cold.query(attributes, ["Kalice"]), (case, attributes)


class TestRevokeEvictionOrdering:
    """Pins the revoke_assertion contract: the prepared entry is marked dead
    and the generation bumped BEFORE the entry is structurally removed and
    its attributes retracted from the referenced-attribute multiset.  A
    concurrent query that raced the old order could recompute against
    half-applied state and be cached as valid."""

    def test_mark_bump_then_remove(self, monkeypatch):
        universe = small_universe()
        checker = fresh_checker(universe)
        probe(checker, universe, 4)
        events = []
        revoked = universe["proxy_creds"][4]
        held = checker._assertions[revoked]
        key = checker._canonical("Kuser4")

        real_bump = checker._bump_generation
        real_count = checker._count_attributes

        def spy_bump(*args, **kwargs):
            # Marked dead, still in its bucket and its attributes counted.
            events.append(("bump", held.count, key in checker._buckets))
            return real_bump(*args, **kwargs)

        def spy_count(prepared, delta):
            # Structural removal happens immediately before the retraction;
            # record what the structures say at this point.
            events.append(("retract", delta, key in checker._buckets))
            return real_count(prepared, delta)

        monkeypatch.setattr(checker, "_bump_generation", spy_bump)
        monkeypatch.setattr(checker, "_count_attributes", spy_count)

        assert checker.revoke_assertion(revoked)
        assert events == [("bump", 0, True), ("retract", -1, False)]
        # The dependent decision is dropped on its next read.
        _key, cached = checker.cached_decision(
            _attrs(universe, 4, "submit"), [universe["proxy_keys"][4]])
        assert cached is None

    def test_failed_revoke_neither_evicts_nor_bumps(self):
        universe = small_universe()
        checker = fresh_checker(universe)
        probe(checker, universe, 4)
        info = checker.cache_info()
        stranger = Credential.build("Knobody", '"Kno-one"', 'app=="grid"')
        assert not checker.revoke_assertion(stranger)
        after = checker.cache_info()
        assert after["entries"] == info["entries"]
        assert after["generation"] == info["generation"]
        assert after["selective_evictions"] == info["selective_evictions"]
