"""The daemon's idle signature-check backfill, and probes over forged
credentials.

A restarted daemon's compliance checker defers every signature check until
a decision first needs it; a background task runs the rest while no request
is in flight.  These tests drive a real server over loopback: an idle
daemon finishes the backfill, requests sent while it runs get the right
answers (checked against the conformance oracle through ``probe``), and a
shutdown in the middle of it drains cleanly.
"""

import asyncio
import gc
import logging
import weakref
from collections import Counter

from repro.crypto.keys import KEY_MEMO_SIZE, KeyPair, PublicKey, key_memo_info
from repro.crypto.keystore import SIGNATURE_CACHE
from repro.keynote.credential import Credential
from repro.serve.client import ServeClient
from repro.serve.plane import ServePolicyPlane
from repro.serve.server import ReproServer

USERS = 150
#: bounded wait for the backfill of one test universe
BACKFILL_TIMEOUT_S = 60.0


class Universe:
    """POLICY -> team (2) -> user -> proxy over encoded keys, plus one
    forged team credential for a ``mallory`` key.  ``tag`` keeps each
    test's keys, and so its signature-cache entries, apart."""

    def __init__(self, tag: str, users: int = USERS) -> None:
        teams = [KeyPair.generate(f"backfill-{tag}-team-{t}")
                 for t in range(2)]
        users_ = [KeyPair.generate(f"backfill-{tag}-user-{u}")
                  for u in range(users)]
        self.proxies = [KeyPair.generate(f"backfill-{tag}-proxy-{u}")
                        .public.encode() for u in range(users)]
        self.mallory = KeyPair.generate(f"backfill-{tag}-mallory")
        self.policy = Credential.build(
            "POLICY", " || ".join(f'"{t.public.encode()}"' for t in teams),
            'app_domain=="grid"')
        self.credentials = []
        for u, user in enumerate(users_):
            team = teams[u % 2]
            self.credentials.append(Credential.build(
                team.public.encode(), f'"{user.public.encode()}"',
                f'subject=="u{u}"').sign(team.private))
            self.credentials.append(Credential.build(
                user.public.encode(), f'"{self.proxies[u]}"',
                'op=="run"').sign(user.private))
        # Claims to come from team 0, signed by mallory's own key.
        self.forged = Credential.build(
            teams[0].public.encode(), f'"{self.mallory.public.encode()}"',
            'subject=="mallory"').sign(self.mallory.private)

    def install(self, plane: ServePolicyPlane) -> None:
        plane.session.add_policy(self.policy)
        for credential in [*self.credentials, self.forged]:
            plane.session.add_credential(credential)

    def request(self, user: int, operation: str = "run") -> dict:
        return {"user": f"u{user}", "user_key": self.proxies[user],
                "object_type": "job", "operation": operation,
                "attributes": {"app_domain": "grid",
                               "subject": f"u{user}"}}

    def forged_request(self) -> dict:
        return {"user": "mallory", "user_key": self.mallory.public.encode(),
                "object_type": "job", "operation": "run",
                "attributes": {"app_domain": "grid",
                               "subject": "mallory"}}


async def backfilled(server: ReproServer) -> dict:
    """Wait (bounded) until the server's backfill task reports that it has
    started and has no deferred check left; the live checker's counts."""
    await asyncio.wait_for(server.backfill_idle.wait(), BACKFILL_TIMEOUT_S)
    return server.plane.session.checker_cache_info()


class TestBackfill:
    def test_idle_durable_daemon_verifies_everything(self, tmp_path):
        universe = Universe("idle")
        installer = ServePolicyPlane(root=tmp_path)
        universe.install(installer)
        installer.close()

        async def scenario():
            plane = ServePolicyPlane(root=tmp_path)
            assert plane.session.checker_cache_info()["entries"] == 0
            server = await ReproServer(plane).start()
            info = await backfilled(server)
            await server.shutdown()
            return info

        info = asyncio.run(scenario())
        assert info["discarded"] == 1
        assert info["entries"] == 0  # no request was served

    def test_requests_during_the_backfill_are_answered_correctly(self):
        universe = Universe("busy")

        async def scenario():
            plane = ServePolicyPlane()
            universe.install(plane)
            server = await ReproServer(plane).start()
            client = await ServeClient("t").connect(server.host, server.port)
            status = await client.call("status")
            calls = [("probe", universe.request(u, op), op == "run")
                     for u in range(0, USERS, 7) for op in ("run", "admin")]
            calls.append(("probe", universe.forged_request(), False))
            calls += [("mediate", universe.request(u), True)
                      for u in range(3, USERS, 11)]
            replies = await asyncio.gather(*(
                client.call(method, params) for method, params, _ in calls))
            info = await backfilled(server)
            final = await client.call("status")
            await client.close()
            await server.shutdown()
            return status, calls, replies, info, final

        status, calls, replies, info, final = asyncio.run(scenario())
        assert status["plane"]["tm_cache"]["unverified"] > 0
        for (method, _params, expected), reply in zip(calls, replies):
            assert reply["allowed"] is expected
            if method == "probe":
                assert reply["agree"] and reply["oracle_allowed"] is expected
        assert info["discarded"] == 1
        assert final["plane"]["oracle_disagreements"] == 0

    def test_shutdown_mid_backfill_drains_cleanly(self, tmp_path, caplog):
        universe = Universe("drain")

        async def scenario():
            plane = ServePolicyPlane(root=tmp_path)
            universe.install(plane)
            server = await ReproServer(plane).start()
            client = await ServeClient("t").connect(server.host, server.port)
            status = await client.call("status")
            ack = await client.call("shutdown", {"reason": "test"})
            report = await server.serve_until_shutdown()
            await client.close()
            return (status, ack, report, server._backfill.done(),
                    plane.session.checker_cache_info())

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            status, ack, report, done, info = asyncio.run(scenario())
        assert status["plane"]["tm_cache"]["unverified"] > 0
        assert ack["draining"] and done
        assert info["unverified"] > 0  # stopped mid-way
        assert report["inflight_after_drain"] == 0
        assert report["wal_flushed"] is True
        assert not [r for r in caplog.records if "pending" in r.getMessage()]


class TestBackfillWakesForNewCredentials:
    def test_wire_adds_are_verified_while_the_daemon_idles(self,
                                                          monkeypatch):
        """Credentials added over the wire after the backfill finished
        are checked by it while no request is in flight, so the next
        probe verifies no signature inline."""
        universe = Universe("rearm", users=4)
        added = []
        for n in range(5):
            signer = KeyPair.generate(f"backfill-rearm-signer-{n}")
            added.append(Credential.build(
                signer.public.encode(), f'"{universe.proxies[n % 4]}"',
                'op=="run"').sign(signer.private).to_text())

        async def scenario():
            plane = ServePolicyPlane()
            universe.install(plane)
            server = await ReproServer(plane).start()
            await backfilled(server)
            client = await ServeClient("t").connect(server.host, server.port)
            for text in added:
                assert (await client.call("add_credential",
                                          {"text": text}))["added"]
            info = await backfilled(server)
            running = not server._backfill.done()
            verified = []
            check = PublicKey.verify
            monkeypatch.setattr(PublicKey, "verify", lambda *args: (
                verified.append(args) or check(*args)))
            probe = await client.call("probe", universe.request(1))
            await client.close()
            await server.shutdown()
            return info, running, verified, probe

        info, running, verified, probe = asyncio.run(scenario())
        assert running  # parked, not finished
        assert info["unverified"] == 0
        assert verified == []
        assert probe["allowed"] and probe["agree"]


class TestProbeOverForgedCredentials:
    def test_probe_agrees_on_a_forged_delegation(self):
        """A credential for ``Ka -> Kb`` signed by another key is accepted
        into the session but discarded by the checker; the oracle must
        screen it too, or every probe through it reports a disagreement."""
        plane = ServePolicyPlane()
        for name in ("Ka", "Kb", "Kc"):
            plane.keystore.create(name)
        plane.add_policy({"text": 'Authorizer: POLICY\nLicensees: "Ka"\n'
                                  'Conditions: app_domain=="x";'})
        forged = Credential.build("Ka", '"Kb"', 'app_domain=="x"').sign(
            plane.keystore.pair("Kc").private)
        assert plane.add_credential({"text": forged.to_text()})["added"]
        result = plane.probe({"user": "bob", "user_key": "Kb",
                              "object_type": "o", "operation": "op",
                              "attributes": {"app_domain": "x"}})
        assert result["allowed"] is False
        assert result["oracle_allowed"] is False
        assert result["agree"] is True
        assert plane.oracle_disagreements == 0

    def test_a_backfilled_probe_verifies_no_signature(self, monkeypatch):
        """Probe screening reads the checker's settled verdicts: once the
        backfill is done, a probe checks no signature again."""
        universe = Universe("screen", users=6)
        plane = ServePolicyPlane()
        universe.install(plane)
        assert plane.session.checker.verify_pending() == 0
        verified = []
        check = PublicKey.verify
        monkeypatch.setattr(PublicKey, "verify", lambda *args: (
            verified.append(args) or check(*args)))
        forged = plane.probe(universe.forged_request())
        honest = plane.probe(universe.request(3))
        assert verified == []
        assert (forged["allowed"], forged["agree"]) == (False, True)
        assert (honest["allowed"], honest["agree"]) == (True, True)
        screened = plane.admitted_assertions()
        assert universe.forged not in screened
        assert len(screened) == 1 + len(universe.credentials)


class TestFrozenHeap:
    """The daemon freezes the heap once its checker is built; revoked
    entries must still be freed by reference counting.  (The suite's
    conftest thaws the heap after every test.)"""

    def test_a_revoked_entry_is_freed_while_the_heap_is_frozen(self):
        universe = Universe("frozen", users=4)
        # Keep only the text: the installed object must have no holder
        # but the checker and the session.
        text = universe.credentials.pop(1).to_text()  # user 0 -> proxy 0

        async def scenario():
            plane = ServePolicyPlane()
            universe.install(plane)
            plane.add_credential({"text": text})
            server = await ReproServer(plane).start()
            try:
                await backfilled(server)
                assert gc.get_freeze_count() > 0
                request = universe.request(0)
                assert plane.mediate(request)["allowed"]
                installed = Credential.from_text(text)
                entry = weakref.ref(
                    plane.session.checker._assertions[installed].credential)
                assert entry() is not installed
                plane.revoke_credential({"text": text})
                del installed
                gc.collect()  # frozen objects are not scanned
                assert entry() is None
                assert not plane.mediate(request)["allowed"]
            finally:
                await server.shutdown()

        asyncio.run(scenario())


class TestOneVerdictPerCredential:
    def test_each_signature_is_checked_once_and_kept_nowhere_else(
            self, monkeypatch):
        """The checker's entry is the only record of a signature check:
        across the backfill, 50 mediations sent while it runs and two
        probes, every signed credential is verified exactly once, the
        process-wide signature cache stays empty, and the key-decode memo
        stays within its bound although more keys sign than it holds."""
        universe = Universe("once", users=KEY_MEMO_SIZE + 44)
        signed = [*universe.credentials, universe.forged]
        verified = Counter()
        check = PublicKey.verify
        monkeypatch.setattr(PublicKey, "verify", lambda key, message, sig: (
            verified.update([message]) or check(key, message, sig)))
        SIGNATURE_CACHE.clear()
        decoded = key_memo_info()["misses"]

        async def scenario():
            plane = ServePolicyPlane()
            universe.install(plane)
            server = await ReproServer(plane).start()
            client = await ServeClient("t").connect(server.host, server.port)
            users = range(0, 5 * 50, 5)
            replies = await asyncio.gather(*(
                client.call("mediate", universe.request(u)) for u in users))
            await backfilled(server)
            probes = [await client.call("probe", request) for request in
                      (universe.request(1), universe.forged_request())]
            status = await client.call("status")
            await client.close()
            await server.shutdown()
            return replies, probes, status

        replies, probes, status = asyncio.run(scenario())
        assert len(replies) == 50 and all(r["allowed"] for r in replies)
        assert [(p["allowed"], p["agree"]) for p in probes] == [
            (True, True), (False, True)]
        assert verified == Counter(c.canonical_bytes() for c in signed)
        assert len(SIGNATURE_CACHE) == 0
        assert status["plane"]["tm_cache"]["unverified"] == 0
        memo = status["plane"]["key_memo"]
        assert memo["entries"] <= KEY_MEMO_SIZE
        signers = {credential.authorizer for credential in signed}
        assert memo["misses"] - decoded >= len(signers) > KEY_MEMO_SIZE
