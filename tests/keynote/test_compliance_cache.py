"""The KeyNote decision cache: hits, projection, invalidation, taint.

Covers the generation-stamped decision cache on
:class:`~repro.keynote.compliance.ComplianceChecker`, the batch
``query_many`` API, the process-wide signature-verification cache, and the
cached-vs-oracle equivalence sweep the fast path is accepted against.
"""

import random

import pytest

from repro.crypto import Keystore
from repro.crypto.keys import PublicKey
from repro.crypto.keystore import SIGNATURE_CACHE, SignatureVerificationCache
from repro.keynote.compliance import ComplianceChecker, evaluate_query
from repro.keynote.credential import Credential
from repro.obs.metrics import MetricsRegistry
from repro.oracle.keynote_oracle import oracle_compliance_value


@pytest.fixture
def keystore():
    ks = Keystore()
    for name in ("Ka", "Kb", "Kc", "Kd"):
        ks.create(name)
    return ks


def chain(keystore, conditions='x=="1"'):
    """POLICY -> Ka -> Kb, all with the given conditions."""
    return [
        Credential.build("POLICY", '"Ka"', conditions),
        Credential.build("Ka", '"Kb"', conditions).sign(
            keystore.pair("Ka").private),
    ]


class TestDecisionCache:
    def test_warm_hit_skips_the_fixpoint(self, keystore):
        checker = ComplianceChecker(chain(keystore), keystore=keystore)
        assert checker.query({"x": "1"}, ["Kb"]) == "true"
        assert checker.cache_misses == 1 and checker.cache_hits == 0
        assert checker.query({"x": "1"}, ["Kb"]) == "true"
        assert checker.cache_hits == 1
        # The hit ran no search at all.
        assert checker.last_query_stats.assertions_visited == 0
        assert checker.last_query_stats.memo_misses == 0

    def test_unreferenced_attributes_do_not_fragment_the_cache(self, keystore):
        # The session-injected `_cur_time` changes every query; no assertion
        # reads it, so it must not bust the cache.
        checker = ComplianceChecker(chain(keystore), keystore=keystore)
        checker.query({"x": "1", "_cur_time": "10"}, ["Kb"])
        assert checker.query({"x": "1", "_cur_time": "999"}, ["Kb"]) == "true"
        assert checker.cache_hits == 1

    def test_referenced_attribute_changes_are_distinct_entries(self, keystore):
        checker = ComplianceChecker(chain(keystore), keystore=keystore)
        assert checker.query({"x": "1"}, ["Kb"]) == "true"
        assert checker.query({"x": "2"}, ["Kb"]) == "false"
        assert checker.cache_hits == 0 and checker.cache_misses == 2
        # Both decisions are cached independently.
        assert checker.query({"x": "1"}, ["Kb"]) == "true"
        assert checker.query({"x": "2"}, ["Kb"]) == "false"
        assert checker.cache_hits == 2

    def test_deref_makes_the_attribute_key_dynamic(self, keystore):
        # `$name` reads an attribute chosen at evaluation time, so the
        # referenced set is unknowable and the full attribute set is keyed.
        assertions = [Credential.build("POLICY", '"Ka"', '$ptr=="1"')]
        checker = ComplianceChecker(assertions, keystore=keystore)
        assert checker._referenced_key is None
        assert checker.query({"ptr": "y", "y": "1"}, ["Ka"]) == "true"
        assert checker.query({"ptr": "y", "y": "1", "z": "9"},
                             ["Ka"]) == "true"
        # The extra attribute changed the (full) key: no false sharing.
        assert checker.cache_hits == 0

    def test_add_assertion_flushes_a_stale_deny(self, keystore):
        checker = ComplianceChecker(
            [Credential.build("POLICY", '"Ka"', "true")], keystore=keystore)
        assert checker.query({}, ["Kb"]) == "false"
        generation = checker.generation
        assert checker.add_assertion(
            Credential.build("Ka", '"Kb"', "true").sign(
                keystore.pair("Ka").private))
        assert checker.generation == generation + 1
        assert checker.query({}, ["Kb"]) == "true"

    def test_revoke_assertion_flushes_a_stale_allow(self, keystore):
        assertions = chain(keystore, conditions="true")
        checker = ComplianceChecker(assertions, keystore=keystore)
        assert checker.query({}, ["Kb"]) == "true"
        generation = checker.generation
        assert checker.revoke_assertion(assertions[1])
        assert checker.generation == generation + 1
        # The cached ALLOW must not survive the revocation.
        assert checker.query({}, ["Kb"]) == "false"
        assert not checker.revoke_assertion(assertions[1])  # already gone

    def test_tainted_deny_is_never_cached(self, keystore):
        # Ka <-> Kb delegation cycle; querying for an unrelated principal
        # breaks the cycle (taint) and yields the minimum — that outcome
        # must be recomputed, never served from the cache.
        assertions = [
            Credential.build("POLICY", '"Ka"', "true"),
            Credential.build("Ka", '"Kb"', "true").sign(
                keystore.pair("Ka").private),
            Credential.build("Kb", '"Ka"', "true").sign(
                keystore.pair("Kb").private),
        ]
        checker = ComplianceChecker(assertions, keystore=keystore)
        assert checker.query({}, ["Kc"]) == "false"
        assert checker.last_query_stats.cycles_broken > 0
        assert checker.cache_info()["entries"] == 0
        assert checker.query({}, ["Kc"]) == "false"
        assert checker.cache_hits == 0 and checker.cache_misses == 2

    def test_tainted_maximum_is_safe_to_cache(self, keystore):
        # The same cycle, but the requester closes it: the result is the
        # maximum, which monotonicity makes safe to cache despite the taint.
        assertions = [
            Credential.build("POLICY", '"Ka"', "true"),
            Credential.build("Ka", '"Kb"', "true").sign(
                keystore.pair("Ka").private),
            Credential.build("Kb", '"Ka"', "true").sign(
                keystore.pair("Kb").private),
        ]
        checker = ComplianceChecker(assertions, keystore=keystore)
        assert checker.query({}, ["Kb"]) == "true"
        assert checker.query({}, ["Kb"]) == "true"
        assert checker.cache_hits == 1

    def test_clear_decision_cache_forces_recompute(self, keystore):
        checker = ComplianceChecker(chain(keystore), keystore=keystore)
        checker.query({"x": "1"}, ["Kb"])
        checker.clear_decision_cache()
        checker.query({"x": "1"}, ["Kb"])
        assert checker.cache_hits == 0 and checker.cache_misses == 2
        # clear() does not bump the generation: nothing changed.
        assert checker.generation == 0

    def test_metrics_mirror_cache_traffic(self, keystore):
        metrics = MetricsRegistry()
        checker = ComplianceChecker(chain(keystore), keystore=keystore,
                                    metrics=metrics)
        checker.query({"x": "1"}, ["Kb"])
        checker.query({"x": "1"}, ["Kb"])
        assert metrics.counter("keynote.cache.miss").value == 1
        assert metrics.counter("keynote.cache.hit").value == 1
        assert metrics.counter("keynote.queries").value == 2


class TestQueryMany:
    def test_matches_individual_queries(self, keystore):
        assertions = chain(keystore)
        batch = ComplianceChecker(list(assertions), keystore=keystore)
        requests = [({"x": "1"}, ["Kb"]), ({"x": "2"}, ["Kb"]),
                    ({"x": "1"}, ["Ka"]), ({"x": "1"}, ["Kc"]),
                    ({"x": "1"}, ["Kb"])]
        expected = [ComplianceChecker(list(assertions),
                                      keystore=keystore).query(attrs, auths)
                    for attrs, auths in requests]
        assert batch.query_many(requests) == expected

    def test_duplicate_requests_hit_the_decision_cache(self, keystore):
        checker = ComplianceChecker(chain(keystore), keystore=keystore)
        results = checker.query_many([({"x": "1"}, ["Kb"])] * 5)
        assert results == ["true"] * 5
        assert checker.cache_misses == 1 and checker.cache_hits == 4

    def test_authorizer_order_and_repeats_share_one_entry(self, keystore):
        checker = ComplianceChecker(chain(keystore), keystore=keystore)
        results = checker.query_many([({"x": "1"}, ["Kb", "Kc"]),
                                      ({"x": "1"}, ["Kc", "Kb"]),
                                      ({"x": "1"}, ["Kc", "Kb", "Kc"])])
        assert results == ["true"] * 3
        assert checker.cache_misses == 1 and checker.cache_hits == 2
        assert checker.cache_info()["entries"] == 1


class TestSignatureCache:
    def signed_chain(self, keystore, depth=3):
        names = [f"Ks{i}" for i in range(depth + 1)]
        for name in names:
            keystore.create(name)
        assertions = [Credential.build("POLICY", f'"{names[0]}"', "true")]
        for issuer, licensee in zip(names, names[1:]):
            assertions.append(
                Credential.build(issuer, f'"{licensee}"', "true").sign(
                    keystore.pair(issuer).private))
        return assertions, names[-1]

    def test_schnorr_verify_runs_once_per_credential(self, keystore,
                                                     monkeypatch):
        # Satellite regression: repeated one-shot evaluate_query calls over
        # the same credentials must verify each signature exactly once.
        assertions, leaf = self.signed_chain(keystore)
        calls = []
        real_verify = PublicKey.verify

        def counting_verify(self, message, signature):
            calls.append(self.y)
            return real_verify(self, message, signature)

        monkeypatch.setattr(PublicKey, "verify", counting_verify)
        SIGNATURE_CACHE.clear()
        try:
            for _ in range(4):
                assert evaluate_query(assertions, {}, [leaf],
                                      keystore=keystore) == "true"
        finally:
            SIGNATURE_CACHE.clear()
        signed = [a for a in assertions if not a.is_policy]
        assert len(calls) == len(signed)

    def test_dedicated_cache_instance_counts_traffic(self, keystore):
        cache = SignatureVerificationCache()
        credential = Credential.build("Ka", '"Kb"', "true").sign(
            keystore.pair("Ka").private)
        assert credential.verify(keystore, cache=cache)
        assert credential.verify(keystore, cache=cache)
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}
        cache.clear()
        assert len(cache) == 0

    def test_invalid_signature_outcome_is_cached_too(self, keystore):
        cache = SignatureVerificationCache()
        credential = Credential.build("Ka", '"Kb"', "true").sign(
            keystore.pair("Ka").private)
        # Tamper: re-sign under a different key but keep Ka as authorizer.
        forged = Credential.build("Ka", '"Kb"', "true").sign(
            keystore.pair("Kb").private)
        assert not forged.verify(keystore, cache=cache)
        assert not forged.verify(keystore, cache=cache)
        assert cache.hits == 1 and cache.misses == 1
        assert credential.verify(keystore, cache=cache)


class TestCachedUncachedEquivalence:
    """Acceptance sweep: under randomised delegation graphs, queries and
    add/revoke churn, the cached checker agrees with the uncached naive
    oracle on every single query."""

    CONDITIONS = ('x=="1"', 'y=="2"', "true", 'x=="1" && y=="2"',
                  'x=="1" || y=="2"')

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(12))
    def test_cached_matches_uncached(self, seed):
        rng = random.Random(seed)
        keystore = Keystore()
        names = [f"K{i}" for i in range(6)]
        for name in names:
            keystore.create(name)

        def random_credential():
            authorizer = rng.choice(["POLICY"] + names)
            licensee = rng.choice(names)
            credential = Credential.build(authorizer, f'"{licensee}"',
                                          rng.choice(self.CONDITIONS))
            if authorizer != "POLICY":
                credential = credential.sign(
                    keystore.pair(authorizer).private)
            return credential

        assertions = [random_credential() for _ in range(8)]
        cached = ComplianceChecker(list(assertions), keystore=keystore)
        for _step in range(40):
            roll = rng.random()
            if roll < 0.15:
                credential = random_credential()
                cached.add_assertion(credential)
            elif roll < 0.25 and len(cached.assertions) > 1:
                victim = cached.assertions[
                    rng.randrange(len(cached.assertions))]
                cached.revoke_assertion(victim)
            attributes = {"x": rng.choice(["1", "0"]),
                          "y": rng.choice(["2", "0"]),
                          "noise": str(rng.randrange(4))}
            authorizers = [rng.choice(names)]
            assert cached.query(attributes, authorizers) == \
                oracle_compliance_value(cached.assertions, attributes,
                                        authorizers, keystore=keystore)
        assert cached.cache_hits > 0  # the sweep actually exercised hits


class TestFullFlushCounting:
    def test_a_shape_change_counts_a_flush_only_of_cached_entries(self):
        checker = ComplianceChecker(
            [Credential.build("POLICY", '"Ka"', 'x=="1"')],
            verify_signatures=False)
        # A new attribute changes the key shape; nothing is cached yet.
        checker.add_assertion(Credential.build("POLICY", '"Kb"', 'y=="1"'))
        assert checker.full_flushes == 0
        assert checker.query({"x": "1"}, ["Ka"]) == "true"
        checker.add_assertion(Credential.build("POLICY", '"Kc"', 'z=="1"'))
        assert checker.full_flushes == 1
        assert checker.cache_info()["entries"] == 0
