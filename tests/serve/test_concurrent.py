"""Satellite harness: >=32 concurrent clients hammering the serve plane.

Clients interleave mediations, oracle probes, KeyCom installs and
revocations against one daemon.  The properties pinned here are the
concurrency bugs this PR fixes:

- **no lost updates** — every distinct KeyCom request id the clients
  submitted is recorded in ``applied_ids`` and every assignment landed in
  the ORB's RBAC policy;
- **no stale-fresh cache confusion** — after the final revocation wave,
  every client observes DENY (no stale cached ALLOW survives);
- **oracle-identical decisions** — every probe agrees with the PR-5
  conformance oracle, under full concurrency.
"""

import asyncio

from repro.keynote.credential import Credential
from repro.serve.client import ServeClient
from repro.serve.plane import ServePolicyPlane
from repro.serve.server import ReproServer
from repro.translate.to_keynote import membership_conditions

CLIENTS = 32
ROUNDS = 6

TRUST_ROOT = ('Authorizer: POLICY\nLicensees: "KWebCom"\n'
              'Conditions: app_domain=="WebCom";')


def _build_plane():
    plane = ServePolicyPlane()
    plane.keystore.create("KWebCom")
    for index in range(CLIENTS):
        plane.keystore.create(f"Kuser{index:02d}")
    plane.session.add_policy(TRUST_ROOT)
    licensees = " || ".join(f'"Kuser{index:02d}"' for index in range(CLIENTS))
    plane.session.add_policy(
        f'Authorizer: POLICY\nLicensees: {licensees}\n'
        'Conditions: app_domain=="WebCom" && op=="run";')
    return plane


def _membership(plane, key, role):
    return Credential.build(
        "KWebCom", f'"{key}"',
        membership_conditions(plane.middleware.domain, role),
    ).sign(plane.keystore.pair("KWebCom").private)


def _grant_text(plane, key):
    return Credential.build(
        "KWebCom", f'"{key}"', 'app_domain=="WebCom" && op=="push"',
    ).sign(plane.keystore.pair("KWebCom").private).to_text()


async def _worker(index, host, port, plane, log):
    user = f"user{index:02d}"
    key = f"Kuser{index:02d}"
    base = {"user": user, "user_key": key, "object_type": "graph",
            "attributes": {"app_domain": "WebCom"}}
    grant = _grant_text(plane, key)
    async with await ServeClient(user).connect(host, port) as client:
        await client.hello(role="harness")
        for round_no in range(ROUNDS):
            # A probe every round: production decision vs oracle.
            probe = await client.call("probe", {**base, "operation": "run"})
            log["probes"].append(probe["agree"])
            # A KeyCom install with a client-unique request id.
            request_id = f"{user}-install-{round_no}"
            update = await client.call("update", {
                "user": user, "user_key": key,
                "domain": plane.middleware.domain, "role": "Clerk",
                "credentials": [_membership(plane, key, "Clerk").to_text()],
                "request_id": request_id})
            assert update["applied"]
            log["installed"].append(request_id)
            # Interleave a grant / revoke cycle on the TM plane: other
            # clients' mediations race these mutations.
            await client.call("add_credential", {"text": grant})
            push = await client.call("probe", {**base, "operation": "push"})
            log["probes"].append(push["agree"])
            await client.call("revoke", {"text": grant})
        # Final revocation done: "push" must now deny for this client, and
        # it must not be served from a cache entry that predates the
        # revocation (stale-fresh confusion).
        final = await client.call("mediate", {**base, "operation": "push"})
        log["final_push_allowed"].append(final["allowed"])
        still = await client.call("mediate", {**base, "operation": "run"})
        log["final_run_allowed"].append(still["allowed"])


async def _scenario():
    plane = _build_plane()
    server = await ReproServer(plane).start()
    log = {"probes": [], "installed": [], "final_push_allowed": [],
           "final_run_allowed": []}
    try:
        await asyncio.gather(*[
            _worker(index, server.host, server.port, plane, log)
            for index in range(CLIENTS)])
    finally:
        report = await server.shutdown(reason="harness done")
    return plane, server, log, report


class TestConcurrentClients:
    def test_32_clients_interleaving_mediate_update_revoke(self):
        plane, server, log, report = asyncio.run(_scenario())

        # Oracle-identical decisions under full concurrency.
        assert log["probes"] and all(log["probes"])
        assert plane.oracle_disagreements == 0

        # No lost updates: every distinct KeyCom request id was applied
        # exactly once, and every client's assignment is in the RBAC policy.
        assert len(log["installed"]) == CLIENTS * ROUNDS
        assert set(log["installed"]) <= plane.keycom.applied_ids
        assigned = {a.user
                    for a in plane.middleware.extract_rbac().assignments}
        assert {f"user{i:02d}" for i in range(CLIENTS)} <= assigned

        # No stale-fresh confusion: the revoked grant denies everywhere,
        # while the unrevoked baseline policy still allows.
        assert log["final_push_allowed"] == [False] * CLIENTS
        assert log["final_run_allowed"] == [True] * CLIENTS

        # Clean drain underneath it all.
        assert report["inflight_after_drain"] == 0
        assert server.requests_served >= CLIENTS * ROUNDS * 5
