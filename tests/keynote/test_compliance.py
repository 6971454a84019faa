"""Tests for the compliance checker — the heart of the trust-management layer.

Includes the paper's Example 1/2 narrative (Figures 2 and 4) and the
Figure 5/6/7 delegation chains.
"""

import pytest

from repro.crypto import Keystore
from repro.errors import ComplianceError, CredentialError
from repro.keynote.compliance import ComplianceChecker, evaluate_query
from repro.keynote.credential import Credential
from repro.keynote.values import ComplianceValueSet
from repro.oracle.keynote_oracle import oracle_compliance_value

SALARIES = {"app_domain": "SalariesDB"}


@pytest.fixture
def keystore() -> Keystore:
    ks = Keystore()
    for name in ("Kbob", "Kalice", "KWebCom", "Kclaire", "Kfred", "Ka", "Kb",
                 "Kc", "Kd"):
        ks.create(name)
    return ks


def policy(licensees: str, conditions: str) -> Credential:
    return Credential.build("POLICY", licensees, conditions)


def signed(keystore: Keystore, authorizer: str, licensees: str,
           conditions: str) -> Credential:
    cred = Credential.build(authorizer, licensees, conditions)
    return cred.sign(keystore.pair(authorizer).private)


class TestDirectAuthorisation:
    def test_paper_example1_bob(self, keystore):
        fig2 = policy('"Kbob"',
                      'app_domain=="SalariesDB" && (oper=="read" || oper=="write")')
        checker = ComplianceChecker([fig2], keystore=keystore)
        assert checker.query({**SALARIES, "oper": "read"}, ["Kbob"]) == "true"
        assert checker.query({**SALARIES, "oper": "write"}, ["Kbob"]) == "true"
        assert checker.query({**SALARIES, "oper": "delete"}, ["Kbob"]) == "false"
        assert checker.query({"app_domain": "Other", "oper": "read"},
                             ["Kbob"]) == "false"

    def test_unknown_requester_denied(self, keystore):
        checker = ComplianceChecker(
            [policy('"Kbob"', 'app_domain=="SalariesDB"')], keystore=keystore)
        assert checker.query(SALARIES, ["Kalice"]) == "false"

    def test_empty_authorizers_rejected(self, keystore):
        checker = ComplianceChecker([], keystore=keystore)
        with pytest.raises(ComplianceError):
            checker.query(SALARIES, [])

    def test_no_assertions_means_deny(self, keystore):
        checker = ComplianceChecker([], keystore=keystore)
        assert checker.query(SALARIES, ["Kbob"]) == "false"


class TestDelegationChains:
    def test_paper_example2_alice_via_bob(self, keystore):
        fig2 = policy('"Kbob"',
                      'app_domain=="SalariesDB" && (oper=="read" || oper=="write")')
        fig4 = signed(keystore, "Kbob", '"Kalice"',
                      'app_domain=="SalariesDB" && oper=="write"')
        checker = ComplianceChecker([fig2, fig4], keystore=keystore)
        # Alice may write (delegated) but not read (Bob only delegated write).
        assert checker.query({**SALARIES, "oper": "write"}, ["Kalice"]) == "true"
        assert checker.query({**SALARIES, "oper": "read"}, ["Kalice"]) == "false"
        # Bob keeps his own authority.
        assert checker.query({**SALARIES, "oper": "read"}, ["Kbob"]) == "true"

    def test_delegation_cannot_widen_authority(self, keystore):
        # Bob only holds write; delegating read to Alice grants nothing.
        pol = policy('"Kbob"', 'oper=="write"')
        cred = signed(keystore, "Kbob", '"Kalice"', 'oper=="read"')
        checker = ComplianceChecker([pol, cred], keystore=keystore)
        assert checker.query({"oper": "read"}, ["Kalice"]) == "false"

    def test_three_link_chain(self, keystore):
        chain = [
            policy('"Ka"', 'x=="1"'),
            signed(keystore, "Ka", '"Kb"', 'x=="1"'),
            signed(keystore, "Kb", '"Kc"', 'x=="1"'),
        ]
        checker = ComplianceChecker(chain, keystore=keystore)
        assert checker.query({"x": "1"}, ["Kc"]) == "true"
        assert checker.query({"x": "2"}, ["Kc"]) == "false"

    def test_chain_conditions_intersect(self, keystore):
        # Middle link narrows the conditions; the leaf only gets the
        # intersection.
        chain = [
            policy('"Ka"', 'x=="1" || x=="2"'),
            signed(keystore, "Ka", '"Kb"', 'x=="1"'),
        ]
        checker = ComplianceChecker(chain, keystore=keystore)
        assert checker.query({"x": "1"}, ["Kb"]) == "true"
        assert checker.query({"x": "2"}, ["Kb"]) == "false"

    def test_delegation_cycle_grants_nothing(self, keystore):
        chain = [
            signed(keystore, "Ka", '"Kb"', "true"),
            signed(keystore, "Kb", '"Ka"', "true"),
        ]
        checker = ComplianceChecker(chain, keystore=keystore)
        assert checker.query({"x": "1"}, ["Ka"]) == "false"

    def test_cycle_with_policy_escape(self, keystore):
        # A cycle exists but POLICY also trusts Ka directly: must allow.
        chain = [
            policy('"Ka"', "true"),
            signed(keystore, "Ka", '"Kb"', "true"),
            signed(keystore, "Kb", '"Ka"', "true"),
        ]
        checker = ComplianceChecker(chain, keystore=keystore)
        assert checker.query({}, ["Kb"]) == "true"

    def test_diamond_memoisation_sound(self, keystore):
        # Kd is reachable via Kb and Kc; both paths must be explored.
        chain = [
            policy('"Ka"', "true"),
            signed(keystore, "Ka", '"Kb"', 'oper=="read"'),
            signed(keystore, "Ka", '"Kc"', 'oper=="write"'),
            signed(keystore, "Kb", '"Kd"', "true"),
            signed(keystore, "Kc", '"Kd"', "true"),
        ]
        checker = ComplianceChecker(chain, keystore=keystore)
        assert checker.query({"oper": "read"}, ["Kd"]) == "true"
        assert checker.query({"oper": "write"}, ["Kd"]) == "true"
        assert checker.query({"oper": "other"}, ["Kd"]) == "false"

    def test_naive_and_memoised_agree(self, keystore):
        chain = [
            policy('"Ka"', "true"),
            signed(keystore, "Ka", '"Kb" && "Kc"', 'x=="1"'),
            signed(keystore, "Kb", '"Kd"', "true"),
            signed(keystore, "Kc", '"Kd"', "true"),
        ]
        """The memoised checker against the naive Kleene-iteration oracle."""
        memo = ComplianceChecker(chain, keystore=keystore)
        for authorizers in (["Kd"], ["Kb", "Kc"], ["Kb"]):
            assert (memo.query({"x": "1"}, authorizers)
                    == oracle_compliance_value(chain, {"x": "1"}, authorizers,
                                               keystore=keystore))


class TestConjunctiveLicensees:
    def test_joint_delegation_requires_both(self, keystore):
        pol = policy('"Ka" && "Kb"', "true")
        checker = ComplianceChecker([pol], keystore=keystore)
        assert checker.query({}, ["Ka"]) == "false"
        assert checker.query({}, ["Ka", "Kb"]) == "true"

    def test_conjunction_satisfied_via_mixed_chain(self, keystore):
        # Ka is a requester; Kb's trust flows via delegation to the requester Kc.
        assertions = [
            policy('"Ka" && "Kb"', "true"),
            signed(keystore, "Kb", '"Kc"', "true"),
        ]
        checker = ComplianceChecker(assertions, keystore=keystore)
        assert checker.query({}, ["Ka", "Kc"]) == "true"
        assert checker.query({}, ["Kc"]) == "false"

    def test_threshold_licensees(self, keystore):
        pol = policy('2-of("Ka", "Kb", "Kc")', "true")
        checker = ComplianceChecker([pol], keystore=keystore)
        assert checker.query({}, ["Ka"]) == "false"
        assert checker.query({}, ["Ka", "Kc"]) == "true"


class TestSignatureHandling:
    def test_unsigned_credential_discarded(self, keystore):
        cred = Credential.build("Kbob", '"Kalice"', "true")  # never signed
        checker = ComplianceChecker(
            [policy('"Kbob"', "true"), cred], keystore=keystore)
        assert checker.query({}, ["Kalice"]) == "false"
        assert len(checker.discarded) == 1

    def test_strict_mode_raises(self, keystore):
        cred = Credential.build("Kbob", '"Kalice"', "true")
        with pytest.raises(CredentialError):
            ComplianceChecker([cred], keystore=keystore, strict=True)

    def test_verification_can_be_disabled(self, keystore):
        cred = Credential.build("Kbob", '"Kalice"', "true")
        checker = ComplianceChecker(
            [policy('"Kbob"', "true"), cred], keystore=keystore,
            verify_signatures=False)
        assert checker.query({}, ["Kalice"]) == "true"

    def test_symbolic_and_encoded_principals_unify(self, keystore):
        # Policy names the symbolic "Kbob"; the request comes from the
        # encoded key.  The keystore canonicalises both.
        pol = policy('"Kbob"', "true")
        checker = ComplianceChecker([pol], keystore=keystore)
        encoded = keystore.public("Kbob").encode()
        assert checker.query({}, [encoded]) == "true"


class TestComplianceValues:
    def test_graded_approval(self, keystore):
        tri = ComplianceValueSet(("reject", "log", "approve"))
        pol = policy('"Ka"', 'risk=="low" -> "approve"; risk=="mid" -> "log"')
        checker = ComplianceChecker([pol], keystore=keystore)
        assert checker.query({"risk": "low"}, ["Ka"], tri) == "approve"
        assert checker.query({"risk": "mid"}, ["Ka"], tri) == "log"
        assert checker.query({"risk": "high"}, ["Ka"], tri) == "reject"

    def test_chain_takes_weakest_link_value(self, keystore):
        tri = ComplianceValueSet(("reject", "log", "approve"))
        assertions = [
            policy('"Ka"', 'true -> "approve"'),
            signed(keystore, "Ka", '"Kb"', 'true -> "log"'),
        ]
        checker = ComplianceChecker(assertions, keystore=keystore)
        assert checker.query({}, ["Kb"], tri) == "log"

    def test_authorises_threshold(self, keystore):
        tri = ComplianceValueSet(("reject", "log", "approve"))
        pol = policy('"Ka"', 'true -> "log"')
        checker = ComplianceChecker([pol], keystore=keystore)
        assert not checker.authorises({}, ["Ka"], tri)
        assert checker.authorises({}, ["Ka"], tri, threshold="log")


class TestEvaluateQueryHelper:
    def test_one_shot(self, keystore):
        value = evaluate_query([policy('"Ka"', "true")], {}, ["Ka"],
                               keystore=keystore)
        assert value == "true"
