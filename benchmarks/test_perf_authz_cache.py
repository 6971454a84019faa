"""Perf-3: the authorisation fast path.

Times the three layers of the authorisation hot-path machinery:

- KeyNote decision cache: cold (cache flushed every query) vs warm
  (identical query served from the cache) on the Figure-3 trust state;
- batch query API: ``query_many`` vs one ``query`` call per request;
- batched scheduling: a wide wavefront through one ``execute_batch``
  flight per client vs one round trip per node.

The untimed tests below hold the correctness gates (a warm query skips
the fixpoint and returns the cold value; batching cuts flights); these
benches record the raw numbers alongside the other ``test_perf_*`` suites.
End-to-end speed of the daemon is measured by ``python3 bench/run.py``.
"""

import pytest

from repro.crypto import Keystore
from repro.keynote.api import KeyNoteSession
from repro.keynote.compliance import ComplianceChecker
from repro.keynote.credential import Credential
from repro.middleware.corba import CorbaOrb
from repro.translate.common import ATTR_APP_DOMAIN, WEBCOM_APP_DOMAIN
from repro.translate.to_keynote import membership_conditions
from repro.webcom.keycom import KeyComService, PolicyUpdateRequest
from repro.webcom.scenario import run_observed_scenario
from repro.webcom.secure import ATTR_OPERATION, SecureWebComEnvironment


def figure3_checker() -> tuple[ComplianceChecker, dict, list]:
    """The master-side trust state of the observed Figure-3 scenario."""
    env = SecureWebComEnvironment()
    env.create_key("Kmaster")
    keys = [env.create_key(f"Kc{i}") for i in range(4)]
    env.trust_clients_for_operations(keys, ["stage", "combine"])
    attributes = {ATTR_APP_DOMAIN: WEBCOM_APP_DOMAIN,
                  ATTR_OPERATION: "stage"}
    return env.master_session.checker, attributes, [keys[0]]


def test_perf_decision_cache_cold(benchmark):
    checker, attributes, authorizers = figure3_checker()

    def cold_query():
        checker.clear_decision_cache()
        return checker.query(attributes, authorizers)

    assert benchmark(cold_query) == "true"


def test_perf_decision_cache_warm(benchmark):
    checker, attributes, authorizers = figure3_checker()
    checker.query(attributes, authorizers)  # prime
    assert benchmark(checker.query, attributes, authorizers) == "true"


def test_decision_cache_speedup_is_material():
    """The acceptance bar behind the timing pair above (not timed): a warm
    query must skip the fixpoint entirely."""
    checker, attributes, authorizers = figure3_checker()
    cold = checker.query(attributes, authorizers)
    warm = checker.query(attributes, authorizers)
    assert warm == cold == "true"
    assert checker.cache_hits >= 1
    assert checker.last_query_stats.assertions_visited == 0
    assert checker.last_query_stats.memo_misses == 0


@pytest.mark.parametrize("batched", [False, True],
                         ids=["query-loop", "query_many"])
def test_perf_batch_query_api(benchmark, batched):
    """query_many shares per-assertion condition evaluation across a batch
    of requests with the same attribute projection."""
    keystore = Keystore()
    names = [f"Kw{i}" for i in range(8)]
    for name in names:
        keystore.create(name)
    licensees = " || ".join(f'"{n}"' for n in names)
    assertions = [
        Credential.build("POLICY", licensees, 'task=="render"')]
    checker = ComplianceChecker(assertions, keystore=keystore)
    requests = [({"task": "render"}, [name]) for name in names]

    # Each round starts from an empty decision cache: the comparison is
    # about condition evaluation, which cache hits would skip.
    def run():
        checker.clear_decision_cache()
        if batched:
            return checker.query_many(requests)
        return [checker.query(attrs, auths) for attrs, auths in requests]

    result = benchmark(run)
    assert result == ["true"] * len(names)


@pytest.mark.parametrize("batch", [False, True],
                         ids=["per-node", "batched"])
def test_perf_batched_scheduling(benchmark, batch):
    """A width-8 wavefront: per-node scheduling pays one request/reply
    round trip per node, batching one per destination client."""
    run = benchmark(run_observed_scenario, fan=8, n_clients=2, batch=batch)
    assert run.result == 8


def test_keycom_install_works_on_the_presented_credentials_only(monkeypatch):
    """Request-scoped credentials ride the live checker (not timed): one
    KeyCom install against a session whose live checker already holds
    2000 signed credentials verifies the one presented credential and
    builds no compliance checker.  Counted with spies, not a clock."""
    keystore = Keystore()
    for name in ("KWebCom", "Kissuer", "Kuser"):
        keystore.create(name)
    session = KeyNoteSession(keystore=keystore)
    session.add_policy('Authorizer: POLICY\nLicensees: "KWebCom"\n'
                       'Conditions: app_domain=="WebCom";')
    issuer = keystore.pair("Kissuer").private
    for i in range(2000):
        session.add_credential(Credential.build(
            "Kissuer", f'"u{i}"', f'subject=="u{i}"').sign(issuer))
    assert len(session.checker.assertions) == 2001  # built once, up front
    orb = CorbaOrb("serve", "orb")
    service = KeyComService(orb, session)
    membership = Credential.build(
        "KWebCom", '"Kuser"', membership_conditions(orb.domain, "Clerk"),
    ).sign(keystore.pair("KWebCom").private)

    verified, built = [], []
    real_verify = Credential.verify
    real_init = ComplianceChecker.__init__

    def spy_verify(self, *args, **kwargs):
        verified.append(self)
        return real_verify(self, *args, **kwargs)

    def spy_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Credential, "verify", spy_verify)
    monkeypatch.setattr(ComplianceChecker, "__init__", spy_init)
    assert service.submit(PolicyUpdateRequest(
        user="alice", user_key="Kuser", domain=orb.domain, role="Clerk",
        credentials=(membership,)))
    assert verified == [membership]
    assert built == []


def test_batched_scheduling_reduces_flights():
    """The structural claim behind the timing pair (not timed)."""
    flights = {}
    for batch in (False, True):
        run = run_observed_scenario(fan=8, n_clients=2, batch=batch)
        flights[batch] = sum(
            1 for message in run.master.network.delivered
            if message.kind in ("execute", "execute_batch",
                                "result", "result_batch"))
        assert run.result == 8
    assert flights[True] < flights[False]
