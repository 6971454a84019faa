"""The brute-force KeyNote oracle against handcrafted delegation shapes and
the production :class:`~repro.keynote.compliance.ComplianceChecker`."""

import random

import pytest

from repro.errors import ComplianceError
from repro.keynote.compliance import ComplianceChecker
from repro.keynote.credential import Credential
from repro.keynote.values import ComplianceValueSet
from repro.oracle.gen import gen_compliance_case
from repro.oracle.keynote_oracle import (
    oracle_authorises,
    oracle_compliance_value,
)


def policy(licensees: str, conditions: str) -> Credential:
    return Credential.build("POLICY", licensees, conditions)


def cred(authorizer: str, licensees: str, conditions: str) -> Credential:
    return Credential.build(authorizer, licensees, conditions)


class TestHandcrafted:
    def test_direct_policy_grant(self):
        assertions = [policy('"Ka"', 'op=="read"')]
        assert oracle_compliance_value(assertions, {"op": "read"},
                                       ["Ka"]) == "true"
        assert oracle_compliance_value(assertions, {"op": "write"},
                                       ["Ka"]) == "false"
        assert oracle_compliance_value(assertions, {"op": "read"},
                                       ["Kb"]) == "false"

    def test_delegation_chain(self):
        assertions = [policy('"Ka"', "true"), cred("Ka", '"Kb"', "true"),
                      cred("Kb", '"Kc"', 'op=="read"')]
        assert oracle_authorises(assertions, {"op": "read"}, ["Kc"])
        assert not oracle_authorises(assertions, {"op": "write"}, ["Kc"])

    def test_cycle_grants_nothing(self):
        # Kx and Ky license each other but nothing connects them to POLICY:
        # the least fixpoint leaves both at bottom.
        assertions = [policy('"Ka"', "true"),
                      cred("Kx", '"Ky"', "true"), cred("Ky", '"Kx"', "true")]
        assert not oracle_authorises(assertions, {}, ["Kx"])
        assert not oracle_authorises(assertions, {}, ["Ky"])
        assert oracle_authorises(assertions, {}, ["Ka"])

    def test_cycle_on_the_path_still_authorises_through_it(self):
        # A cycle hanging off an otherwise valid chain must not poison it.
        assertions = [policy('"Ka"', "true"), cred("Ka", '"Kb"', "true"),
                      cred("Kb", '"Ka"', "true")]
        assert oracle_authorises(assertions, {}, ["Kb"])

    def test_threshold_licensees(self):
        assertions = [policy('2-of("Ka", "Kb", "Kc")', "true")]
        assert oracle_authorises(assertions, {}, ["Ka", "Kb"])
        assert not oracle_authorises(assertions, {}, ["Ka"])

    def test_policy_requester_is_max_trust(self):
        assert oracle_compliance_value([], {}, ["POLICY"]) == "true"

    def test_no_authorizer_raises(self):
        with pytest.raises(ComplianceError):
            oracle_compliance_value([], {}, [])

    def test_multi_valued_chain_takes_weakest_link(self):
        tri = ComplianceValueSet(("reject", "log", "approve"))
        assertions = [policy('"Ka"', 'true -> "approve"'),
                      cred("Ka", '"Kb"', 'true -> "log"')]
        assert oracle_compliance_value(assertions, {}, ["Kb"],
                                       values=tri) == "log"
        assert oracle_compliance_value(assertions, {}, ["Ka"],
                                       values=tri) == "approve"

    def test_multi_valued_join_over_parallel_paths(self):
        tri = ComplianceValueSet(("reject", "log", "approve"))
        assertions = [policy('"Ka"', 'true -> "log"'),
                      policy('"Ka"', 'risk=="low" -> "approve"')]
        assert oracle_compliance_value(assertions, {"risk": "low"}, ["Ka"],
                                       values=tri) == "approve"
        assert oracle_compliance_value(assertions, {"risk": "hi"}, ["Ka"],
                                       values=tri) == "log"

    def test_authorises_threshold(self):
        tri = ComplianceValueSet(("reject", "log", "approve"))
        assertions = [policy('"Ka"', 'true -> "log"')]
        assert not oracle_authorises(assertions, {}, ["Ka"], values=tri)
        assert oracle_authorises(assertions, {}, ["Ka"], values=tri,
                                 threshold="log")


@pytest.mark.parametrize("seed", range(15))
def test_agrees_with_production_checker(seed):
    """Seeded delegation graphs (chains, cycles, thresholds): the memoised
    DFS and the Kleene iteration must compute the same value for every
    query."""
    rng = random.Random(f"keynote-oracle:{seed}")
    case = gen_compliance_case(rng)
    assertions = [Credential.from_text(t) for t in case["credentials"]]
    checker = ComplianceChecker(list(assertions), verify_signatures=False)
    for attributes, authorizers in case["queries"]:
        assert (checker.query(attributes, authorizers)
                == oracle_compliance_value(assertions, attributes,
                                           authorizers))


class TestOracleBuildsNoTrees:
    def test_template_credentials_are_read_through_their_binding(
            self, monkeypatch):
        """The oracle walks each assertion's shared shape with its own
        literals: over credentials cut from templates it fills no tree
        (counted on :func:`repro.keynote.ast.bind`) and still agrees with
        the checker."""
        import repro.keynote.ast as ast_module
        import repro.keynote.credential as credential_module

        tri = ComplianceValueSet(("reject", "log", "approve"))
        assertions = [policy('"Kteam"', 'app=="grid"')]
        for n in range(4):
            assertions.append(cred("Kteam", f'"Ku{n}"', f'subject=="u{n}"'))
            assertions.append(cred(
                f"Ku{n}", f'"Kp{n}"',
                f'subject=="u{n}" -> {{ op=="read" -> "approve"; '
                f'op=="{n}" -> "log"; }}'))
        assert all(a.binding for a in assertions)
        queries = [({"app": "grid", "subject": f"u{n}", "op": op}, [f"Kp{n}"])
                   for n in range(4) for op in ("read", "2", "write")]
        checker = ComplianceChecker(list(assertions), verify_signatures=False)
        expected = [checker.query(attributes, authorizers, tri)
                    for attributes, authorizers in queries]
        assert set(expected) == {"approve", "log", "reject"}

        calls = []
        real_bind = ast_module.bind

        def counting_bind(*args):
            calls.append(args)
            return real_bind(*args)

        monkeypatch.setattr(ast_module, "bind", counting_bind)
        monkeypatch.setattr(credential_module, "bind", counting_bind)
        assert [oracle_compliance_value(assertions, attributes, authorizers,
                                        tri)
                for attributes, authorizers in queries] == expected
        assert calls == []
        assert assertions[1].conditions is not None  # the spy is live
        assert calls
