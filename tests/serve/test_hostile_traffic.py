"""Hostile traffic against the real daemon on the wall clock, with tight
admission limits and fast brownout hysteresis: a flash crowd, cache-busting
requests (a unique attribute each) and a revocation storm (an admin adds
and revokes a credential in a loop).  Sixteen flood clients retry through
``call_with_retry`` beside a control loop and an observer.  Every request
resolves, every refusal seen is a shed the server counted, the control
plane is never shed and accepted probes agree with the oracle.
"""

import asyncio
import random
from collections import Counter

import pytest

from repro.keynote.credential import Credential
from repro.serve.admission import (AdmissionController, BrownoutController,
                                   RetryBudget)
from repro.serve.client import ServeCallError, ServeClient
from repro.serve.plane import ServePolicyPlane
from repro.serve.server import ReproServer

CLIENTS, REQUESTS, PROBE_EVERY = 16, 40, 5
KEYS = [f"Kuser{n:02d}" for n in range(CLIENTS)]
WAVE = 8  # concurrent requests each flood client keeps in the air
OPS = ("stage", "execute", "fetch", "admin")  # "admin" is never granted
TRUST_ROOT = ("Authorizer: POLICY\nLicensees: "
              + " || ".join(f'"{key}"' for key in KEYS)
              + '\nConditions: app_domain=="WebCom" && '
              '(op=="stage" || op=="execute" || op=="fetch");')
REFUSALS = ("OverloadedError", "RateLimitedError")


def _request(scenario, index, n):
    attributes = {"app_domain": "WebCom"}
    if scenario == "cache_busting":
        attributes["nonce"] = f"bust-{index}-{n}"
    return {"user": f"user{index:02d}", "user_key": KEYS[index],
            "object_type": "graph", "operation": OPS[n % len(OPS)],
            "attributes": attributes}


async def _flood(client, scenario, index, tally):
    async def one(n):
        method = "probe" if n % PROBE_EVERY == 0 else "mediate"
        try:
            result = await client.call_with_retry(
                method, _request(scenario, index, n), max_attempts=3)
        except ServeCallError as exc:
            tally["refused" if exc.error_type in REFUSALS else "errors"] += 1
        except Exception:
            tally["lost"] += 1
        else:
            tally["accepted"] += 1
            if method == "probe" and not result["agree"]:
                tally["disagreements"] += 1

    for start in range(0, REQUESTS, WAVE):
        await asyncio.gather(*[one(n) for n in range(start, start + WAVE)])


async def _control(client, stop, tally):
    while not stop.is_set():
        for method in ("ping", "status"):
            try:
                await client.call(method)
            except ServeCallError:
                tally["control_failed"] += 1
        await asyncio.sleep(0.02)


async def _storm(client, grant, stop, tally):
    while not stop.is_set():
        try:
            await client.call_with_retry("add_credential", {"text": grant},
                                         max_attempts=3)
            await client.call("revoke", {"text": grant})
            tally["storm_cycles"] += 1
        except ServeCallError as exc:
            if exc.error_type not in REFUSALS:
                raise
        await asyncio.sleep(0)


async def _run(scenario, root):
    plane = ServePolicyPlane(root=root)  # on a WallClock
    for name in ["KWebCom", "Kstorm", *KEYS]:
        plane.keystore.create(name)
    plane.session.add_policy(TRUST_ROOT)
    admission = AdmissionController(
        clock=plane.clock, max_inflight=4, peer_rate=10.0, peer_burst=5.0,
        brownout=BrownoutController(clock=plane.clock, window=0.5,
                                    sustain=0.1, cool=0.5))
    server = await ReproServer(plane, admission=admission).start()
    rng = random.Random(scenario)

    async def connect(name, role, capacity=10.0):
        client = ServeClient(name, retry_budget=RetryBudget(capacity),
                             rng=random.Random(rng.random()))
        await client.connect(server.host, server.port)
        await client.hello(role=role)
        return client

    flood = [await connect(f"{scenario}-{n}", "flood") for n in range(CLIENTS)]
    control = await connect("control", "control")
    observer = await connect("observer", "observer")
    await observer.subscribe("decision", "server")
    clients = flood + [control, observer]
    tally, stop = Counter(), asyncio.Event()
    side = [asyncio.create_task(_control(control, stop, tally))]
    if scenario == "revocation_storm":
        # A storm-only principal: flood verdicts stay oracle-stable.
        clients.append(await connect("storm-admin", "admin", capacity=50.0))
        grant = Credential.build(
            "KWebCom", '"Kstorm"', 'app_domain=="WebCom" && op=="stage"',
        ).sign(plane.keystore.pair("KWebCom").private).to_text()
        side.append(asyncio.create_task(
            _storm(clients[-1], grant, stop, tally)))
    await asyncio.gather(*[_flood(client, scenario, n, tally)
                           for n, client in enumerate(flood)])
    stop.set()
    await asyncio.gather(*side)
    status = await control.call("status")
    refusals_seen = sum(client.refusals_seen for client in clients)
    for client in clients:
        await client.close()
    await server.shutdown(reason=f"{scenario} done")
    return tally, refusals_seen, status


@pytest.mark.slow
@pytest.mark.parametrize("scenario",
                         ["flash_crowd", "cache_busting", "revocation_storm"])
def test_hostile_traffic_is_refused_explicitly_never_lost(scenario, tmp_path):
    tally, refusals_seen, status = asyncio.run(_run(scenario, tmp_path))
    shed = status["admission"]["shed"]
    assert tally["lost"] == 0 and tally["errors"] == 0
    assert refusals_seen == shed["total"]
    assert tally["control_failed"] == shed["by_priority"]["control"] == 0
    assert tally["disagreements"] == 0
    assert status["plane"]["oracle_disagreements"] == 0
    assert tally["accepted"] > 0
    if scenario == "flash_crowd":
        # The only test of real admission sheds driving the brownout.
        assert shed["total"] > 0
        assert status["brownout"]["max_level"] >= 1
    if scenario == "revocation_storm":
        assert tally["storm_cycles"] > 0
