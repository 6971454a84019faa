"""A KeyNote fixpoint run leaves no reference cycle behind.

Every L2 decision that misses the decision cache runs one fixpoint
(``ComplianceChecker._evaluate``): a cold ``mediate`` through the Fig 10
stack, a Fig 8 KeyCom install's overlay query, a ``probe``.  Whatever a
run allocates (its memo, its dependency set, a presented credential's
prepared entry) must be freed by reference counting when the call
returns, not left for the cycle collector: a long-running daemon would
otherwise pay a collector pass every few hundred cold decisions.

Each test runs its operation once to warm first-call state (lazy imports,
the oracle, interned strings), then, with the collector off, empties the
heap of garbage, runs the operation again and asks ``gc.collect()`` how
many unreachable objects it left.
"""

import gc
from itertools import count

import pytest

from repro.crypto.keys import KeyPair
from repro.keynote.compliance import ComplianceChecker
from repro.keynote.credential import Credential
from repro.serve.plane import ServePolicyPlane

ORG, TEAM, USER, PROXY, ADMIN = (
    KeyPair.generate(f"cycle-free-{role}")
    for role in ("org", "team", "user", "proxy", "admin"))
PROXY_KEY = PROXY.public.encode()
SUBJECT = {"app_domain": "grid", "vo": "o0", "group": "t0", "subject": "u0"}
PROXY_OPS = 'op=="submit" || op=="status" || op=="run"'


def signed(signer: KeyPair, licensee: str, conditions: str,
           comment: str = "") -> str:
    return Credential.build(signer.public.encode(), f'"{licensee}"',
                            conditions, comment=comment
                            ).sign(signer.private).to_text()


def cyclic_garbage(operation) -> int:
    """Objects the cycle collector finds after one warm ``operation``."""
    operation()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        operation()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(scope="module")
def plane() -> ServePolicyPlane:
    """The bench's chain, one principal a hop:
    POLICY -> org -> team -> user -> proxy, plus the KeyCom administrator
    POLICY licenses for Fig 8 role credentials."""
    plane = ServePolicyPlane()
    plane.add_policy({"text": "Authorizer: POLICY\nLicensees: "
                      f'"{ORG.public.encode()}"\n'
                      'Conditions: app_domain=="grid";\n'})
    plane.add_policy({"text": "Authorizer: POLICY\nLicensees: "
                      f'"{ADMIN.public.encode()}"\n'
                      'Conditions: app_domain=="WebCom";\n'})
    for text in (
            signed(ORG, TEAM.public.encode(),
                   'vo=="o0" && group=="t0" '
                   '&& (op != "run" || job ~= "^job-[0-9]+$")'),
            signed(TEAM, USER.public.encode(), 'subject=="u0"'),
            signed(USER, PROXY_KEY, PROXY_OPS)):
        assert plane.add_credential({"text": text})["added"]
    return plane


def request(operation: str, **extra: str) -> dict:
    return {"user": "u0", "user_key": PROXY_KEY, "object_type": "grid",
            "operation": operation, "attributes": {**SUBJECT, **extra}}


#: job numbers no request has used, so a cold request never hits the cache
JOBS = count()


class TestFixpointRuns:
    def test_a_cold_mediate(self, plane):
        def cold():
            decision = plane.mediate(request("run", job=f"job-{next(JOBS)}"))
            assert decision["allowed"]

        misses = plane.session.checker.cache_misses
        assert cyclic_garbage(cold) == 0
        assert plane.session.checker.cache_misses == misses + 2

    def test_a_keycom_update(self, plane):
        serials = count()

        def update():
            role = f"role-{next(serials)}"
            credential = signed(ADMIN, PROXY_KEY,
                                'app_domain=="WebCom" && '
                                f'Domain=="serve/orb" && Role=="{role}"')
            assert plane.keycom_update({
                "user": "u0", "user_key": PROXY_KEY, "domain": "serve/orb",
                "role": role, "credentials": [credential],
                "request_id": role})["applied"]

        assert cyclic_garbage(update) == 0

    def test_a_probe(self, plane):
        def probe():
            result = plane.probe(request("run", job=f"job-{next(JOBS)}"))
            assert result["allowed"] and result["agree"]

        assert cyclic_garbage(probe) == 0

    def test_a_query_through_a_delegation_cycle(self):
        checker = ComplianceChecker([
            Credential.build("POLICY", '"Ka"', "true"),
            Credential.build("Ka", '"Kb"', "true"),
            Credential.build("Kb", '"Ka" || "Kc"', 'n != "-"'),
        ], verify_signatures=False)
        numbers = count()

        def query():
            assert checker.query({"n": str(next(numbers))}, ["Kc"]) == "true"
            assert checker.last_query_stats.memo_misses > 0
            assert checker.last_query_stats.cycles_broken > 0

        assert cyclic_garbage(query) == 0

    def test_a_query_through_a_threshold_licensee(self):
        checker = ComplianceChecker([
            Credential.build("POLICY", '2-of("Ka", "Kb", "Kc")', "true"),
            Credential.build("Ka", '"Kd"', 'n != "-"'),
            Credential.build("Kb", '"Kd"', 'n != "-"'),
        ], verify_signatures=False)
        numbers = count()

        def query():
            assert checker.query({"n": str(next(numbers))}, ["Kd"]) == "true"
            assert checker.last_query_stats.memo_misses > 0

        assert cyclic_garbage(query) == 0


class TestRunsWithoutAFixpoint:
    def test_a_hot_mediate(self, plane):
        def hot():
            assert plane.mediate(request("submit"))["allowed"]

        assert cyclic_garbage(hot) == 0

    def test_an_add_credential_and_a_revoke(self, plane):
        renewals = [signed(USER, PROXY_KEY, PROXY_OPS, f"proxy {serial}")
                    for serial in range(2)]
        added, revoked = iter(renewals), iter(renewals)

        def add():
            assert plane.add_credential({"text": next(added)})["added"]

        def revoke():
            assert plane.revoke_credential(
                {"text": next(revoked)})["revoked"]

        assert cyclic_garbage(add) == 0
        assert cyclic_garbage(revoke) == 0
