"""Concurrency-safety regressions for the shared decision caches.

The serve daemon exposes the authorisation plane to many concurrent
callers, and test harnesses drive checkers from worker threads; the
process-wide signature cache, the compliance checker's decision cache and
the stack's mediation / last-known-good stores are all mutated on those
paths.  These tests hammer each cache from racing threads (lost-update /
torn-counter regressions) and pin the *stale-fresh confusion* property
deterministically: a decision computed against state that changed
mid-mediation must never be served as fresh afterwards.
"""

import threading

from repro.crypto.keys import KeyPair
from repro.crypto.keystore import Keystore, SignatureVerificationCache
from repro.keynote.api import KeyNoteSession
from repro.keynote.compliance import ComplianceChecker
from repro.keynote.credential import Credential
from repro.webcom.stack import AuthorisationStack, MediationRequest


def _run_threads(workers):
    threads = [threading.Thread(target=worker) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestSignatureCacheThreads:
    def test_concurrent_verifies_and_clears_keep_counters_consistent(self):
        cache = SignatureVerificationCache()
        pair = KeyPair.generate("Kthread")
        messages = [f"message-{n}".encode() for n in range(4)]
        signatures = [pair.private.sign(m) for m in messages]
        rounds = 200
        errors = []

        def verifier():
            try:
                for n in range(rounds):
                    m = messages[n % len(messages)]
                    s = signatures[n % len(signatures)]
                    assert cache.verify(pair.public, m, s)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        def clearer():
            for _ in range(20):
                cache.clear()

        _run_threads([verifier] * 4 + [clearer])
        assert not errors
        stats = cache.stats()
        # Every verify call was counted exactly once as a hit or a miss
        # since the last clear; no torn counter, no lost update.
        assert stats["hits"] + stats["misses"] <= 4 * rounds
        assert stats["entries"] <= len(messages)
        assert cache.verify(pair.public, messages[0], signatures[0])


class TestComplianceCheckerThreads:
    def test_queries_racing_mutations_never_corrupt_the_checker(self):
        keystore = Keystore()
        for name in ("Kroot", "Kworker"):
            keystore.create(name)
        policy = Credential.from_text(
            'Authorizer: POLICY\nLicensees: "Kroot"\n'
            'Conditions: app_domain=="db";')
        grant = Credential.build(
            "Kroot", '"Kworker"', 'app_domain=="db"',
        ).sign(keystore.pair("Kroot").private)
        checker = ComplianceChecker(assertions=[policy], keystore=keystore)
        attributes = {"app_domain": "db", "_cur_time": "0.0"}
        errors = []

        def querier():
            try:
                for _ in range(150):
                    value = checker.query(attributes, ("Kworker",))
                    assert value in ("true", "false")
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        def churner():
            for _ in range(30):
                checker.add_assertion(grant)
                checker.revoke_assertion(grant)

        _run_threads([querier] * 4 + [churner])
        assert not errors
        # The churner's last act was a revoke: the worker's delegation is
        # gone, and no stale cached ALLOW may answer for it.
        assert checker.query(attributes, ("Kworker",)) == "false"
        checker.add_assertion(grant)
        assert checker.query(attributes, ("Kworker",)) == "true"


class _RevokingOS:
    """An L0 backend that revokes a TM credential *during* mediation.

    The stack consults layers top-down (L2 before L0), so by the time this
    check runs the TM layer has already allowed — the decision being
    assembled is stale the moment it is produced.
    """

    platform = "revoking-test-os"

    def __init__(self, session, credential):
        self.session = session
        self.credential = credential
        self.fired = False

    def check(self, user, os_object, access):
        if not self.fired:
            self.fired = True
            assert self.session.revoke_credential(self.credential)
        return True


class TestStackStaleFreshConfusion:
    def _stack(self):
        keystore = Keystore()
        keystore.create("Kroot")
        keystore.create("Kuser")
        session = KeyNoteSession(keystore=keystore)
        session.add_policy(
            'Authorizer: POLICY\nLicensees: "Kroot"\n'
            'Conditions: app_domain=="WebCom";')
        grant = session.add_credential(Credential.build(
            "Kroot", '"Kuser"', 'app_domain=="WebCom"',
        ).sign(keystore.pair("Kroot").private))
        stack = AuthorisationStack()
        stack.plug_trust_management(session)
        return session, grant, stack

    def test_mid_mediation_revocation_is_never_served_as_fresh(self):
        session, grant, stack = self._stack()
        stack.plug_os(_RevokingOS(session, grant))
        request = MediationRequest(
            user="alice", user_key="Kuser", object_type="graph",
            operation="run", attributes={"app_domain": "WebCom"})
        # First mediation: TM allows (credential still present), then the
        # OS layer revokes it mid-flight.  The ALLOW it produced reflects
        # pre-revocation state.
        assert stack.mediate(request).allowed
        # The stale ALLOW must not satisfy the next mediation from the TM
        # cache: the revocation evicted the decision it rested on.
        second = stack.mediate(request)
        assert not second.allowed
        assert session.checker.cache_hits == 0

    def test_mid_mediation_revocation_on_the_selective_eviction_path(self):
        """PR 10 regression: dependency-indexed invalidation narrows what a
        revocation evicts — but a revocation landing *mid-mediation* must
        still never let the dependent decision be cached as fresh, while a
        non-dependent principal's warm entry survives the same churn."""
        keystore = Keystore()
        keystore.create("Kroot")
        keystore.create("Kuser")
        keystore.create("Kother")
        session = KeyNoteSession(keystore=keystore)
        session.add_policy(
            'Authorizer: POLICY\nLicensees: "Kroot"\n'
            'Conditions: app_domain=="WebCom";')
        # Bob's credential first: his fixpoint short-circuits at max value
        # before ever reading Alice's, so his decision does not depend on it.
        session.add_credential(Credential.build(
            "Kroot", '"Kother"', 'app_domain=="WebCom"',
        ).sign(keystore.pair("Kroot").private))
        grant = session.add_credential(Credential.build(
            "Kroot", '"Kuser"', 'app_domain=="WebCom"',
        ).sign(keystore.pair("Kroot").private))
        stack = AuthorisationStack()
        stack.plug_trust_management(session)
        alice = MediationRequest(
            user="alice", user_key="Kuser", object_type="graph",
            operation="run", attributes={"app_domain": "WebCom"})
        bob = MediationRequest(
            user="bob", user_key="Kother", object_type="graph",
            operation="run", attributes={"app_domain": "WebCom"})

        class _AliceTriggeredOS:
            platform = "revoking-test-os"
            fired = False

            def check(self, user, os_object, access):
                if user == "alice" and not self.fired:
                    self.fired = True
                    assert session.revoke_credential(grant)
                return True

        stack.plug_os(_AliceTriggeredOS())
        assert stack.mediate(bob).allowed      # warm the independent entry
        assert stack.mediate(alice).allowed    # revoked mid-flight
        # The stale ALLOW is gone: the checker's dependency index evicted
        # Alice's decision, so L2 runs the fixpoint again.
        assert not stack.mediate(alice).allowed
        # Bob's decision was NOT collateral damage of Alice's revocation —
        # it serves a hit.
        hits = session.checker.cache_hits
        assert stack.mediate(bob).allowed
        assert session.checker.cache_hits == hits + 1

    def test_threads_mediating_against_revocations_end_consistent(self):
        session, grant, stack = self._stack()
        request = MediationRequest(
            user="alice", user_key="Kuser", object_type="graph",
            operation="run", attributes={"app_domain": "WebCom"})
        errors = []

        def mediator():
            try:
                for _ in range(100):
                    stack.mediate(request)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        def revoker():
            for _ in range(20):
                session.revoke_credential(grant)
                session.add_credential(grant)

        _run_threads([mediator] * 4 + [revoker])
        assert not errors
        # The revoker's final state has the credential present; after the
        # dust settles the stack must agree — and once it is revoked for
        # good, deny without ever consulting a stale cache entry.
        assert stack.mediate(request).allowed
        session.revoke_credential(grant)
        assert not stack.mediate(request).allowed
