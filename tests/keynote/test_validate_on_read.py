"""Validation on read and the bounded decision cache.

A mutation only marks what it changed (a stamped authorizer bucket, a dead
prepared entry); a read drops a cached decision whose dependencies moved.
These are counting tests: the cache and the canonicalisation memo sit at
their bounds under cache-busting traffic, a revoke visits none of its
dependents, a stale entry is never served, and the checker's metrics are
bound once.
"""

import random

import pytest

from repro.keynote import compliance
from repro.keynote.compliance import ComplianceChecker
from repro.keynote.credential import Credential
from repro.obs.metrics import MetricsRegistry

_GRANT = Credential.build("POLICY", '"Kbob"', 'app=="grid"')
_READ = Credential.build("Kbob", '"Kalice"', 'op=="read"')
_WRITE = Credential.build("Kbob", '"Kalice"', 'op=="write"')
#: makes ``job`` part of the decision key, as the bench's org regex does:
#: every job value is a decision of its own
_JOB = Credential.build("Kbob", '"Kalice"', 'job=="never"')
#: another reader of ``op``, which no chain from POLICY reaches: revoking
#: ``_READ`` then leaves the key shape as it was, so no full flush hides
#: what validation does
_KEEPS_OP = Credential.build("Kzed", '"Kalice"', 'op=="write"')


def _checker(*assertions, **kwargs):
    return ComplianceChecker(assertions=list(assertions),
                             verify_signatures=False, **kwargs)


def _cold(checker, attributes, authorizers):
    """What a checker built from scratch over the same assertions says."""
    return _checker(*checker.assertions).query(attributes, authorizers)


def _request(op, job="j0"):
    return {"app": "grid", "op": op, "job": job}


class TestBounds:
    def test_cold_traffic_fills_the_cache_to_its_bound(self, monkeypatch):
        monkeypatch.setattr(compliance, "DECISION_CACHE_SIZE", 100)
        checker = _checker(_GRANT, _READ, _JOB)
        requests = 1000
        for n in range(requests):
            assert checker.query(_request("read", f"job-{n}"),
                                 ["Kalice"]) == "true"
        info = checker.cache_info()
        assert info["entries"] == 100
        assert info["evictions"] == requests - 100
        assert info["misses"] == requests
        # The newest decisions survive and still hit; the oldest went.
        assert checker.cached_decision(_request("read", "job-999"),
                                       ["Kalice"])[1] == "true"
        assert checker.cached_decision(_request("read", "job-0"),
                                       ["Kalice"])[1] is None

    def test_a_hit_makes_an_entry_the_most_recent(self, monkeypatch):
        monkeypatch.setattr(compliance, "DECISION_CACHE_SIZE", 3)
        checker = _checker(_GRANT, _READ)
        for op in ("read", "write", "list"):
            checker.query(_request(op), ["Kalice"])
        checker.query(_request("read"), ["Kalice"])  # a hit
        checker.query(_request("stat"), ["Kalice"])  # evicts "write"
        assert checker.cached_decision(_request("read"),
                                       ["Kalice"])[1] == "true"
        assert checker.cached_decision(_request("write"),
                                       ["Kalice"])[1] is None

    def test_the_canonicalisation_memo_sits_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(compliance, "CANON_CACHE_SIZE", 50)
        checker = _checker(_GRANT, _READ)
        requests = 500
        for n in range(requests):
            assert checker.query(_request("read"), [f"Kstranger{n}"]) \
                == "false"
        assert len(checker._canon_cache) == 50
        assert checker._canon_cache.evictions >= requests - 50

    def test_interned_key_values_are_shared(self):
        checker = _checker(_GRANT, _READ, _JOB)
        first = {"app": "".join(["gr", "id"]), "op": "read", "job": "j"}
        second = {"app": "".join(["g", "rid"]), "op": "read", "job": "k"}
        assert first["app"] is not second["app"]
        checker.query(first, ["Kalice"])
        checker.query(second, ["Kalice"])
        keys = list(checker._decision_cache)
        assert keys[0][0] is keys[1][0]  # one "grid" for both keys


class TestRevokeIsConstantTime:
    def test_a_revoke_with_ten_thousand_dependents_touches_none(self):
        checker = _checker(_GRANT, _READ, _JOB, _KEEPS_OP)
        dependents = 10_000
        for n in range(dependents):
            checker.query(_request("read", f"job-{n}"), ["Kalice"])
        info = checker.cache_info()
        assert info["entries"] == dependents

        checked = []
        moved = checker._moved

        def spy(generation, deps):
            checked.append(deps)
            return moved(generation, deps)

        checker._moved = spy
        assert checker.revoke_assertion(_READ)
        after = checker.cache_info()
        assert checked == []  # no dependent was visited
        assert after["entries"] == dependents
        assert after["selective_evictions"] == 0
        assert after["generation"] == info["generation"] + 1
        # Each dependent is dropped when it is next read, and only then.
        for n in range(10):
            assert checker.query(_request("read", f"job-{n}"),
                                 ["Kalice"]) == "false"
        assert len(checked) == 10
        assert checker.cache_info()["selective_evictions"] == 10

    def test_an_add_marks_only_the_authorizers_bucket(self):
        checker = _checker(_GRANT, _READ)
        checker.query(_request("write"), ["Kalice"])
        stamps = {key: bucket.stamp
                  for key, bucket in checker._buckets.items()}
        checker.add_assertion(_WRITE)
        assert checker._buckets["Kbob"].stamp == checker.generation
        assert {key: bucket.stamp for key, bucket in checker._buckets.items()
                if key != "Kbob"} == {key: stamp for key, stamp
                                      in stamps.items() if key != "Kbob"}


class TestNoStaleEntryIsServed:
    def _both_reads(self, checker, attributes):
        """The value a cache read and a query give, each checked against
        a cold checker."""
        cold = _cold(checker, attributes, ["Kalice"])
        _key, cached = checker.cached_decision(attributes, ["Kalice"])
        assert cached in (None, cold)
        assert checker.query(attributes, ["Kalice"]) == cold
        return cold

    def test_stale_through_an_add(self):
        checker = _checker(_GRANT, _READ)
        assert checker.query(_request("write"), ["Kalice"]) == "false"
        checker.add_assertion(_WRITE)
        _key, cached = checker.cached_decision(_request("write"), ["Kalice"])
        assert cached is None
        assert checker.selective_evictions == 1
        assert self._both_reads(checker, _request("write")) == "true"

    def test_stale_through_a_revoke(self):
        checker = _checker(_GRANT, _READ, _KEEPS_OP)
        assert checker.query(_request("read"), ["Kalice"]) == "true"
        checker.revoke_assertion(_READ)
        assert checker.query(_request("read"), ["Kalice"]) == "false"
        assert checker.selective_evictions == 1
        assert self._both_reads(checker, _request("read")) == "false"

    def test_stale_through_a_revoke_then_a_readd_of_the_same_value(self):
        checker = _checker(_GRANT, _READ, _KEEPS_OP)
        assert checker.query(_request("read"), ["Kalice"]) == "true"
        checker.revoke_assertion(_READ)
        # The DENY computed in between must not outlive the re-add, even
        # though Kbob's bucket was emptied and rebuilt.
        assert checker.query(_request("read"), ["Kalice"]) == "false"
        assert "Kbob" not in checker._buckets
        checker.add_assertion(_READ)
        assert self._both_reads(checker, _request("read")) == "true"
        # And the ALLOW from before the revoke is not revived either: its
        # prepared entry stays dead when an equal credential comes back.
        checker.revoke_assertion(_READ)
        checker.add_assertion(_READ)
        assert self._both_reads(checker, _request("read")) == "true"
        # One drop per mutation: the ALLOW, the DENY, the second ALLOW.
        assert checker.selective_evictions == 3

    def test_a_copy_keeps_dependents_valid(self):
        checker = _checker(_GRANT, _READ)
        assert checker.query(_request("read"), ["Kalice"]) == "true"
        checker.add_assertion(_READ)     # a second copy: nothing moves
        checker.revoke_assertion(_READ)  # one copy left: nothing moves
        hits = checker.cache_hits
        assert checker.query(_request("read"), ["Kalice"]) == "true"
        assert checker.cache_hits == hits + 1
        assert checker.selective_evictions == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_random_churn_against_a_cold_checker(self, seed, monkeypatch):
        # A bound below the request space, so evictions interleave with
        # validation.
        monkeypatch.setattr(compliance, "DECISION_CACHE_SIZE", 8)
        rng = random.Random(seed)
        keys = ["Kbob", "Kcarol", "Kalice", "Kdave"]
        pool = [Credential.build("POLICY", f'"{k}"', f'app=="{app}"')
                for k in keys[:2] for app in ("grid", "web")]
        pool += [Credential.build(a, f'"{b}"', f'op=="{op}"')
                 for a in keys for b in keys if a != b
                 for op in ("read", "write")]
        held = [pool[0]]
        checker = _checker(*held)
        for _ in range(300):
            roll = rng.random()
            if roll < 0.2:
                credential = rng.choice(pool)
                checker.add_assertion(credential)
                held.append(credential)
            elif roll < 0.35 and held:
                credential = rng.choice(held)
                assert checker.revoke_assertion(credential)
                held.remove(credential)
            else:
                attributes = {"app": rng.choice(("grid", "web")),
                              "op": rng.choice(("read", "write"))}
                requester = [rng.choice(keys)]
                cold = _checker(*held).query(attributes, requester)
                _key, cached = checker.cached_decision(attributes, requester)
                assert cached in (None, cold)
                assert checker.query(attributes, requester) == cold


class TestMetricsBoundOnce:
    def test_queries_ask_the_registry_for_no_name(self, monkeypatch):
        registry = MetricsRegistry()
        checker = _checker(_GRANT, _READ, _JOB, metrics=registry)
        checker.query(_request("read"), ["Kalice"])  # binds the miss path
        checker.query(_request("read"), ["Kalice"])  # binds the hit path
        names = []
        lookup = MetricsRegistry._get

        def spy(self, name, kind):
            names.append(name)
            return lookup(self, name, kind)

        monkeypatch.setattr(MetricsRegistry, "_get", spy)
        for n in range(5):
            checker.query(_request("read", f"job-{n}"), ["Kalice"])
            checker.query(_request("read", f"job-{n}"), ["Kalice"])
        assert names == []
        monkeypatch.undo()
        assert registry.counter("keynote.cache.miss").value == 6
        assert registry.counter("keynote.cache.hit").value == 6
        assert registry.counter("keynote.queries").value == 12
        assert registry.histogram("keynote.fixpoint_depth").count == 6

    def test_an_unused_instrument_stays_out_of_the_registry(self):
        registry = MetricsRegistry()
        checker = _checker(_GRANT, _READ, metrics=registry)
        checker.query(_request("read"), ["Kalice"])
        assert "keynote.cache.hit" not in registry.names()
        assert "keynote.cache.full_flush" not in registry.names()
