"""Request-scoped credentials: a per-call overlay on the live checker.

``KeyNoteSession.query(..., extra_credentials=X)`` evaluates ``X`` as an
overlay on the session's live :class:`ComplianceChecker` instead of building
a throwaway checker over every assertion.  These tests pin the overlay to two
references — a fresh checker over every assertion plus ``X`` and the
Kleene-iteration oracle — and check that an overlay query leaves no trace in
the live checker.
"""

import random

import pytest

from repro.crypto import Keystore
from repro.errors import CredentialError
from repro.keynote.api import KeyNoteSession
from repro.keynote.compliance import ComplianceChecker
from repro.keynote.credential import Credential
from repro.obs.metrics import MetricsRegistry
from repro.oracle.gen import gen_compliance_case
from repro.oracle.keynote_oracle import oracle_compliance_value

#: the principal names the delegation-graph generator draws from
KEYS = [f"K{i}" for i in range(6)]


@pytest.fixture
def keystore():
    return make_keystore()


def make_keystore() -> Keystore:
    keystore = Keystore()
    for name in KEYS:
        keystore.create(name)
    return keystore


def signed(keystore, source):
    """Parse (if needed) and sign under the authorizer's own key; POLICY
    assertions stay unsigned."""
    credential = (source if isinstance(source, Credential)
                  else Credential.from_text(source))
    if credential.is_policy:
        return credential
    return credential.sign(keystore.pair(credential.authorizer).private)


def forged(keystore, credential):
    """``credential`` signed under some key other than its authorizer's."""
    other = next(k for k in KEYS if k != credential.authorizer)
    return credential.sign(keystore.pair(other).private)


def trace(checker):
    """Everything an overlay query must leave untouched."""
    return (checker.cache_info(), checker.generation,
            len(checker.assertions), checker.discarded,
            dict(checker._canon_cache))


def session_over(keystore, assertions):
    session = KeyNoteSession(keystore=keystore)
    for assertion in assertions:
        if assertion.is_policy:
            session.add_policy(assertion)
        else:
            session.add_credential(assertion)
    return session


def overlay_value(session, keystore, attributes, authorizers, extras):
    """One overlay query, checked against both references and for leaving
    no trace; returns its compliance value."""
    checker = session.checker
    before = trace(checker)
    result = session.query(attributes, authorizers, extra_credentials=extras)
    assert trace(checker) == before
    universe = session.policies + session.credentials + list(extras)
    attributes = result.attributes  # with the session-injected _cur_time
    fresh = ComplianceChecker(universe, keystore=keystore)
    assert result.compliance_value == fresh.query(attributes, authorizers)
    admitted = [a for a in universe if a.verify(keystore)]
    assert result.compliance_value == oracle_compliance_value(
        admitted, attributes, authorizers, keystore=keystore)
    return result.compliance_value


def chain(keystore, depth=2, conditions='x=="1"'):
    """POLICY -> K0 -> ... -> K{depth-1}, every hop with ``conditions``."""
    assertions = [Credential.build("POLICY", '"K0"', conditions)]
    for i in range(depth - 1):
        assertions.append(signed(keystore, Credential.build(
            f"K{i}", f'"K{i + 1}"', conditions)))
    return assertions


class TestOverlaySweep:
    def test_matches_fresh_checker_and_oracle(self):
        """Seeded sweep over generated delegation graphs: part of each graph
        lives in the session, the rest is presented with every request,
        plus a duplicate of a session credential and a forged one; a churn
        phase (adds and revokes) then reruns the queries."""
        granted_by_overlay = forged_presented = 0
        for seed in range(30):
            rng = random.Random(seed)
            keystore = make_keystore()
            case = gen_compliance_case(rng, label=f"seed-{seed}")
            assertions = [signed(keystore, t) for t in case["credentials"]]
            held = set(rng.sample(range(len(assertions)),
                                  rng.randint(1, len(assertions) // 2 + 1)))
            session = session_over(keystore, [
                a for i, a in enumerate(assertions) if i not in held])
            extras = [assertions[i] for i in sorted(held)]
            if session.credentials:
                extras.append(rng.choice(session.credentials))
            delegations = [a for a in assertions if not a.is_policy]
            if delegations:
                extras.append(forged(keystore, rng.choice(delegations)))
                forged_presented += 1
            for phase in [[]] + case["churn"][:1]:
                for op in phase:
                    if op["op"] == "revoke" and session.credentials:
                        credentials = session.credentials
                        session.revoke_credential(
                            credentials[op["index"] % len(credentials)])
                    elif op["op"] == "add":
                        added = signed(keystore, op["credential"])
                        if added.is_policy:
                            session.add_policy(added)
                        else:
                            session.add_credential(added)
                for attributes, authorizers in case["queries"]:
                    # The plain query warms the decision cache the overlay
                    # must neither read nor write.
                    base = session.query(attributes, authorizers)
                    value = overlay_value(session, keystore, attributes,
                                          authorizers, extras)
                    if value != base.compliance_value:
                        granted_by_overlay += 1
                    assert session.query(attributes, authorizers) \
                        .compliance_value == base.compliance_value, seed
        # The sweep exercised what it claims to.
        assert granted_by_overlay > 0
        assert forged_presented > 0


class TestOverlayCases:
    def test_extras_delegate_through_session_principals(self, keystore):
        session = session_over(keystore, chain(keystore, depth=2))
        extra = signed(keystore, Credential.build("K1", '"K2"', 'x=="1"'))
        assert overlay_value(session, keystore, {"x": "1"}, ["K2"],
                             [extra]) == "true"
        assert overlay_value(session, keystore, {"x": "2"}, ["K2"],
                             [extra]) == "false"

    def test_duplicate_of_a_session_credential(self, keystore):
        assertions = chain(keystore, depth=2)
        session = session_over(keystore, assertions)
        assert overlay_value(session, keystore, {"x": "1"}, ["K1"],
                             [assertions[1]]) == "true"
        assert len(session.credentials) == 1

    def test_forged_extra_is_dropped_in_non_strict_mode(self, keystore):
        session = session_over(keystore, chain(keystore, depth=2))
        bad = forged(keystore, Credential.build("K1", '"K2"', 'x=="1"'))
        assert overlay_value(session, keystore, {"x": "1"}, ["K2"],
                             [bad]) == "false"
        assert session.checker.discarded == []

    def test_forged_extra_raises_in_strict_mode(self, keystore):
        checker = ComplianceChecker(chain(keystore, depth=2),
                                    keystore=keystore, strict=True)
        assert checker.query({"x": "1"}, ["K2"]) == "false"
        before = trace(checker)
        bad = forged(keystore, Credential.build("K1", '"K2"', 'x=="1"'))
        with pytest.raises(CredentialError):
            checker.query({"x": "1"}, ["K2"], extra=[bad])
        assert trace(checker) == before

    def test_query_after_a_session_revoke(self, keystore):
        assertions = chain(keystore, depth=3)
        session = session_over(keystore, assertions)
        assert session.query({"x": "1"}, ["K2"])
        assert session.revoke_credential(assertions[1])
        assert not session.query({"x": "1"}, ["K2"])
        # Re-presenting the revoked hop proves the request for this call
        # alone; the revocation stands.
        assert overlay_value(session, keystore, {"x": "1"}, ["K2"],
                             [assertions[1]]) == "true"
        assert not session.query({"x": "1"}, ["K2"])

    def test_cached_deny_does_not_hide_an_overlay_grant(self, keystore):
        session = session_over(keystore, chain(keystore, depth=2))
        checker = session.checker
        assert not session.query({"x": "1"}, ["K2"])
        assert checker.cache_info()["entries"] == 1
        extra = signed(keystore, Credential.build("K1", '"K2"', 'x=="1"'))
        assert overlay_value(session, keystore, {"x": "1"}, ["K2"],
                             [extra]) == "true"
        # The cached DENY is still served to the plain request.
        hits = checker.cache_hits
        assert not session.query({"x": "1"}, ["K2"])
        assert checker.cache_hits == hits + 1

    def test_local_policy_extra(self, keystore):
        # The trusted local caller's idiom (the framework's
        # check_access_by_key): a POLICY presented with the query.
        session = session_over(keystore, chain(keystore, depth=2))
        grant = Credential.build("POLICY", '"K5"', 'x=="1"')
        assert overlay_value(session, keystore, {"x": "1"}, ["K5"],
                             [grant]) == "true"
        assert not session.query({"x": "1"}, ["K5"])
        assert len(session.policies) == 1

    def test_overlay_is_not_decision_cache_traffic(self, keystore):
        metrics = MetricsRegistry()
        checker = ComplianceChecker(chain(keystore, depth=2),
                                    keystore=keystore, metrics=metrics)
        extra = signed(keystore, Credential.build("K1", '"K2"', 'x=="1"'))
        assert checker.query({"x": "1"}, ["K2"], extra=[extra]) == "true"
        assert metrics.get("keynote.cache.hit") is None
        assert metrics.get("keynote.cache.miss") is None
        assert metrics.counter("keynote.queries").value == 1
        assert checker.stats.queries == 1
