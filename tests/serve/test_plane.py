"""The serve policy plane in process: one decision store under the stack.

The plane answers every request from the live layers; the only decision
cache is the trust-management checker's exact, dependency-indexed one.
These tests pin what that buys: no layer's change can hide behind a
cached stack verdict, the daemon's stack keeps no per-request state, and
``status()`` still reports the L2 cache traffic in its four-key shape.
"""

from dataclasses import replace
from functools import reduce

import pytest

from repro.crypto.keys import KeyPair
from repro.errors import KeyNoteSyntaxError
from repro.keynote.ast import (Attribute, Binary, Clause, ConditionsProgram,
                               NumberLit)
from repro.keynote.credential import Credential
from repro.keynote.eval import MAX_NESTING
from repro.rbac.model import Assignment, Grant
from repro.serve.plane import AUDIT_WINDOW, ServePolicyPlane
from repro.util.clock import SimulatedClock

JOB_SUBMIT = {"user": "alice", "user_key": "Kalice", "object_type": "Job",
              "operation": "submit"}


def _licensed_plane(**kwargs):
    plane = ServePolicyPlane(clock=SimulatedClock(), **kwargs)
    plane.keystore.create("Kalice")
    plane.session.add_policy(
        'Authorizer: POLICY\nLicensees: "Kalice"\nConditions: true;')
    return plane


class TestEveryLayerIsAskedEveryTime:
    def test_removed_rbac_role_denies_the_next_mediation(self):
        plane = _licensed_plane(plug_middleware=True)
        orb = plane.middleware
        orb.apply_grant(Grant(orb.domain, "r", "Job", "submit"))
        orb.apply_assignment(Assignment("alice", orb.domain, "r"))
        assert plane.mediate(JOB_SUBMIT)["allowed"]
        assert orb.remove_assignment(Assignment("alice", orb.domain, "r"))
        # L1 changed underneath a warm L2 decision: the next mediation
        # must ask the ORB again, not replay the earlier ALLOW.
        after = plane.mediate(JOB_SUBMIT)
        assert not after["allowed"]
        assert not after["stale"]
        assert after["denied_by"] == "MIDDLEWARE"
        # L2 itself was served from the trust-management cache.
        assert plane.status()["cache"]["hits"] == 1


class TestNoPerRequestState:
    def test_distinct_mediations_leave_no_last_good_entries(self):
        plane = _licensed_plane()
        for n in range(50):
            plane.mediate({**JOB_SUBMIT, "attributes": {"n": str(n)}})
        assert len(plane.stack._last_good) == 0
        assert plane.stack.health_snapshot()["last_good_entries"] == 0
        tm_cache = plane.status()["tm_cache"]
        assert tm_cache is not None and tm_cache["entries"] >= 1


class TestStatusCacheShape:
    def test_cache_keeps_its_four_keys(self):
        plane = _licensed_plane()
        assert set(plane.status()["cache"]) == {"entries", "hits", "misses",
                                                "invalidated"}
        plane.mediate(JOB_SUBMIT)
        plane.mediate(JOB_SUBMIT)
        # The trust-management decision cache, the plane's one: hits are
        # L2 answers it served, misses fixpoint runs.
        assert plane.status()["cache"] == {"entries": 1, "hits": 1,
                                           "misses": 1, "invalidated": 0}

    @pytest.mark.parametrize("warm", [1, 5])
    def test_one_hit_counter_for_the_one_cache(self, warm):
        """The L2 answers the stack reads from the cache are the checker's
        hits: ``cache`` and ``tm_cache`` count the same K warm reads."""
        plane = _licensed_plane()
        for _ in range(1 + warm):
            assert plane.mediate(JOB_SUBMIT)["allowed"]
        status = plane.status()
        assert status["cache"]["hits"] == status["tm_cache"]["hits"] == warm
        assert status["cache"]["misses"] == status["tm_cache"]["misses"] == 1
        assert not [name for name in plane.obs.metrics.names()
                    if name.startswith("stack.cache")]


class TestAuditWindow:
    def test_the_daemon_keeps_a_bounded_audit_window(self):
        plane = _licensed_plane()
        seen = []
        plane.audit.subscribe(seen.append)
        base = plane.audit.recorded
        batch = AUDIT_WINDOW + 100
        for n in range(batch):
            plane.mediate({**JOB_SUBMIT, "user": f"alice{n}"})
        audit = plane.status()["audit"]
        assert audit["retained"] == AUDIT_WINDOW
        # Every record was written and counted, not only the window.
        assert audit["recorded"] == base + len(seen)
        assert sum(r.category == "stack.mediate" for r in seen) == batch
        newest = plane.audit.last()
        assert newest.category == "stack.mediate"
        assert newest.subject == f"alice{batch - 1}"
        for n in range(batch):
            plane.mediate({**JOB_SUBMIT, "user": f"bob{n}"})
        assert len(plane.audit) == AUDIT_WINDOW
        assert plane.status()["audit"]["recorded"] == base + len(seen)
        assert sum(r.category == "stack.mediate" for r in seen) == 2 * batch


class TestRevokeAfterRestart:
    @pytest.mark.parametrize("spelling", ['{b} || {c}',
                                          '2-of({b},{c},{d})'])
    def test_an_installed_credential_is_revoked_by_its_text(self, tmp_path,
                                                            spelling):
        """The WAL journals a credential in ``to_text``'s spelling; a
        revoke after a restart, by the text the operator installed, must
        still find it."""
        a, b, c, d = (KeyPair.generate(f"plane-restart-{n}") for n in "abcd")
        keys = {name: f'"{pair.public.encode()}"'
                for name, pair in zip("bcd", (b, c, d))}
        licensees = spelling.format(**keys)
        signature = Credential.build(
            a.public.encode(), licensees, 'app_domain=="x"').sign(
                a.private).signature
        text = (f'Authorizer: "{a.public.encode()}"\n'
                f"Licensees: {licensees}\n"
                f'Conditions: app_domain=="x";\n'
                f'Signature: "{signature}"\n')
        plane = ServePolicyPlane(root=tmp_path, clock=SimulatedClock())
        plane.add_policy({"text": f'Authorizer: POLICY\n'
                                  f'Licensees: "{a.public.encode()}"\n'
                                  f'Conditions: app_domain=="x";'})
        plane.add_credential({"text": text})
        plane.close()
        again = ServePolicyPlane(root=tmp_path, clock=SimulatedClock())
        requesters = [b.public.encode(), c.public.encode()]
        assert again.session.query({"app_domain": "x"}, requesters)
        assert again.revoke_credential({"text": text})["revoked"]
        assert again.session.credentials == []
        assert not again.session.query({"app_domain": "x"}, requesters)
        again.close()


class TestRecoveredMetrics:
    def test_a_recovered_checker_counts_into_the_plane_metrics(self,
                                                              tmp_path):
        ServePolicyPlane(root=tmp_path, clock=SimulatedClock()).close()
        plane = _licensed_plane(root=tmp_path)
        plane.mediate(JOB_SUBMIT)
        assert plane.obs.metrics.counter("keynote.cache.miss").value == 1
        plane.close()


def _deep_chain_plane(root, conditions: str):
    """A durable plane holding one team -> proxy credential with these
    Conditions, added over the wire (its signature check is deferred);
    returns the plane, the proxy key and the credential's text."""
    team = KeyPair.generate("plane-deep-team")
    proxy = KeyPair.generate("plane-deep-proxy").public.encode()
    text = Credential.build(team.public.encode(), f'"{proxy}"',
                            conditions).sign(team.private).to_text()
    plane = ServePolicyPlane(root=root, clock=SimulatedClock())
    plane.add_policy({"text": f'Authorizer: POLICY\n'
                              f'Licensees: "{team.public.encode()}"\n'
                              f'Conditions: app_domain=="grid";'})
    assert plane.add_credential({"text": text})["added"]
    return plane, proxy, text


def _run(proxy: str, a: str) -> dict:
    return {"user": "u", "user_key": proxy, "object_type": "job",
            "operation": "run", "attributes": {"app_domain": "grid", "a": a}}


#: Conditions deeper than a recursive compiler could lower, each true
#: when the request's ``a`` is "5" (the concatenation ends in a letter:
#: two 1000-digit numbers both read as infinity, and so compare equal)
DEEP = {
    "and-chain": " && ".join(['a=="5"'] * 1000),
    "concatenation": " . ".join(["a"] * 1000) + f' . "z" == "{"5" * 1000}z"',
    "minus-run": "-" * 300 + "a == 5",
}


class TestConditionsTheCompilerLowers:
    @pytest.mark.parametrize("conditions", DEEP.values(), ids=DEEP.keys())
    def test_a_deep_chain_survives_a_crash_restart(self, tmp_path,
                                                   conditions):
        """A chain too deep for a recursive compiler is admitted, decided,
        and recovered after a crash (no clean close) with the same
        verdicts."""
        plane, proxy, _text = _deep_chain_plane(tmp_path, conditions)
        verdicts = [plane.mediate(_run(proxy, a))["allowed"]
                    for a in ("5", "6")]
        assert verdicts == [True, False]
        # crash: the WAL is not closed and no snapshot is written
        again = ServePolicyPlane(root=tmp_path, clock=SimulatedClock())
        assert [again.mediate(_run(proxy, a))["allowed"]
                for a in ("5", "6")] == verdicts
        again.close()

    def test_a_deep_chain_is_revoked_by_its_text(self, tmp_path):
        """Revoking finds the held credential by its text (whose program
        the Conditions table hands back, not a fresh parse); so does a
        second copy's admission."""
        plane, proxy, text = _deep_chain_plane(tmp_path, DEEP["and-chain"])
        assert plane.add_credential({"text": text})["added"]
        assert plane.revoke_credential({"text": text})["revoked"]
        assert plane.mediate(_run(proxy, "5"))["allowed"]  # one copy left
        # crash: the WAL is not closed and no snapshot is written
        again = ServePolicyPlane(root=tmp_path, clock=SimulatedClock())
        assert again.mediate(_run(proxy, "5"))["allowed"]
        assert again.revoke_credential({"text": text})["revoked"]
        assert not again.mediate(_run(proxy, "5"))["allowed"]
        assert not again.revoke_credential({"text": text})["revoked"]
        again.close()

    def test_a_journalled_program_the_compiler_refuses_recovers_discarded(
            self, tmp_path):
        """A trust store journalled before the compiler refused such
        Conditions (here: parentheses nested with several operators at
        each level, past ``MAX_NESTING``) still recovers; the credential
        is held, grants nothing, and is revoked by its text."""
        plane, proxy, _text = _deep_chain_plane(tmp_path, 'a=="5"')
        nested = 'a || a && !(a == a . a * a ^ -(' * 32 + "a" + "))" * 32
        team = KeyPair.generate("plane-deep-team")
        text = Credential.build(team.public.encode(), f'"{proxy}"',
                                f'a=="6" && ({nested})').sign(
                                    team.private).to_text()
        with pytest.raises(KeyNoteSyntaxError):
            plane.add_credential({"text": text})
        plane.session.store.append("keynote.credential", text=text,
                                   expires_at=None)
        # crash: the WAL is not closed and no snapshot is written
        again = ServePolicyPlane(root=tmp_path, clock=SimulatedClock())
        assert again.session.checker.discarded == [Credential.from_text(text)]
        assert again.mediate(_run(proxy, "5"))["allowed"]
        assert not again.mediate(_run(proxy, "6"))["allowed"]
        assert again.revoke_credential({"text": text})["revoked"]
        assert again.session.checker.discarded == []
        again.close()

    @pytest.mark.parametrize("test", [
        Binary("<", Attribute("n"), NumberLit("²")),
        # nested deeper than the compiler builds closures
        reduce(lambda inner, depth: Binary(
            "&&" if depth % 2 else "||", Attribute("a"), inner),
            range(MAX_NESTING + 1), Attribute("a")),
    ], ids=["malformed-number", "too-deep"])
    def test_a_refused_credential_journals_nothing(self, tmp_path, test):
        plane, _proxy, _text = _deep_chain_plane(tmp_path, 'a=="5"')
        wal = tmp_path / "wal.log"
        before = wal.read_bytes()
        credential = replace(
            Credential.build("Kteam", '"Kuser"', 'a=="x"'),
            shape=ConditionsProgram((Clause(test),)), binding=())
        with pytest.raises(KeyNoteSyntaxError):
            plane.session.add_credential(credential)
        assert wal.read_bytes() == before
        assert credential not in plane.session.checker
        plane.close()
