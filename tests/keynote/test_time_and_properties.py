"""Time-limited credentials and compliance-checker properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import Keystore
from repro.keynote.api import KeyNoteSession
from repro.keynote.compliance import ComplianceChecker
from repro.keynote.credential import Credential
from repro.oracle.keynote_oracle import oracle_compliance_value
from repro.util.clock import SimulatedClock


@pytest.fixture
def keystore() -> Keystore:
    ks = Keystore()
    for name in ("Ka", "Kb", "Kc", "Kd"):
        ks.create(name)
    return ks


class TestTimeLimitedCredentials:
    """The KeyNote expiry idiom: conditions test the `_cur_time` attribute
    the session injects from the simulated clock."""

    def test_credential_expires(self, keystore):
        clock = SimulatedClock()
        session = KeyNoteSession(keystore=keystore, clock=clock)
        session.add_policy(
            'Authorizer: POLICY\nLicensees: "Ka"\n'
            'Conditions: app_domain=="db" && _cur_time < 100;')
        attrs = {"app_domain": "db"}
        assert session.query(attrs, ["Ka"])
        clock.advance(150.0)
        assert not session.query(attrs, ["Ka"])

    def test_not_yet_valid(self, keystore):
        clock = SimulatedClock()
        session = KeyNoteSession(keystore=keystore, clock=clock)
        session.add_policy(
            'Authorizer: POLICY\nLicensees: "Ka"\n'
            'Conditions: _cur_time >= 50 && _cur_time <= 100;')
        assert not session.query({}, ["Ka"])
        clock.advance(60.0)
        assert session.query({}, ["Ka"])
        clock.advance(60.0)
        assert not session.query({}, ["Ka"])

    def test_expiring_delegation_link(self, keystore):
        clock = SimulatedClock()
        session = KeyNoteSession(keystore=keystore, clock=clock)
        session.add_policy('Authorizer: POLICY\nLicensees: "Ka"\n'
                           'Conditions: x=="1";')
        session.add_credential(Credential.build(
            "Ka", '"Kb"', 'x=="1" && _cur_time < 10').signed_by(keystore))
        assert session.query({"x": "1"}, ["Kb"])
        clock.advance(20.0)
        # The chain's middle link expired; the root is unaffected.
        assert not session.query({"x": "1"}, ["Kb"])
        assert session.query({"x": "1"}, ["Ka"])

    def test_explicit_cur_time_wins(self, keystore):
        session = KeyNoteSession(keystore=keystore)
        session.add_policy('Authorizer: POLICY\nLicensees: "Ka"\n'
                           'Conditions: _cur_time < 100;')
        # Caller-supplied _cur_time overrides the clock (e.g. for auditing
        # a past decision).
        assert not session.query({"_cur_time": "500"}, ["Ka"])


# -- properties ---------------------------------------------------------------

keys = st.sampled_from(["Ka", "Kb", "Kc", "Kd"])
conds = st.sampled_from(['x=="1"', 'x=="1" || x=="2"', "true"])


@st.composite
def credential_sets(draw):
    """A policy plus a random bag of signed delegation credentials."""
    keystore = Keystore()
    for name in ("Ka", "Kb", "Kc", "Kd"):
        keystore.create(name)
    assertions = [Credential.build("POLICY", f'"{draw(keys)}"', draw(conds))]
    for _ in range(draw(st.integers(0, 5))):
        issuer, licensee = draw(keys), draw(keys)
        if issuer == licensee:
            continue
        assertions.append(Credential.build(
            issuer, f'"{licensee}"', draw(conds)).signed_by(keystore))
    return keystore, assertions


class TestComplianceProperties:
    @settings(max_examples=60, deadline=None)
    @given(credential_sets(), keys, conds)
    def test_adding_credentials_is_monotone(self, bag, extra_licensee,
                                            extra_cond):
        """Adding a credential never *lowers* a request's compliance value
        (KeyNote's monotonicity guarantee)."""
        keystore, assertions = bag
        extra = Credential.build("Ka", f'"{extra_licensee}"',
                                 extra_cond).signed_by(keystore) \
            if extra_licensee != "Ka" else None
        attrs = {"x": "1"}
        for requester in ("Ka", "Kb", "Kc", "Kd"):
            before = ComplianceChecker(assertions, keystore=keystore).query(
                attrs, [requester])
            augmented = assertions + ([extra] if extra else [])
            after = ComplianceChecker(augmented, keystore=keystore).query(
                attrs, [requester])
            assert not (before == "true" and after == "false")

    @settings(max_examples=60, deadline=None)
    @given(credential_sets())
    def test_memoised_equals_naive(self, bag):
        """The memoised checker equals the naive oracle over random graphs."""
        keystore, assertions = bag
        memo = ComplianceChecker(assertions, keystore=keystore)
        for requester in ("Ka", "Kb", "Kc", "Kd"):
            for attrs in ({"x": "1"}, {"x": "2"}, {"x": "9"}):
                assert memo.query(attrs, [requester]) == \
                    oracle_compliance_value(assertions, attrs, [requester],
                                            keystore=keystore)

    @settings(max_examples=40, deadline=None)
    @given(credential_sets())
    def test_queries_are_deterministic(self, bag):
        keystore, assertions = bag
        checker = ComplianceChecker(assertions, keystore=keystore)
        for requester in ("Ka", "Kd"):
            first = checker.query({"x": "1"}, [requester])
            second = checker.query({"x": "1"}, [requester])
            assert first == second

    @settings(max_examples=40, deadline=None)
    @given(credential_sets())
    def test_more_requesters_never_hurt(self, bag):
        """A request made by a superset of keys has at least the compliance
        value of any subset (joint requests are monotone too)."""
        keystore, assertions = bag
        checker = ComplianceChecker(assertions, keystore=keystore)
        single = checker.query({"x": "1"}, ["Kb"])
        joint = checker.query({"x": "1"}, ["Kb", "Kc"])
        assert not (single == "true" and joint == "false")
