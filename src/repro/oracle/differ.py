"""Differential testing of the authorisation plane against the oracle.

Four check families, one per generator in :mod:`repro.oracle.gen`:

``middleware``
    Each backend's native mediation (``check_invocation``) and the
    production :class:`~repro.rbac.policy.RBACPolicy` decision are diffed
    against :class:`~repro.oracle.rbac_oracle.RBACOracle` on the backend's
    Section-2 interpretation.  EJB ``<unchecked/>`` methods allow any
    principal but have no RBAC reading — those mismatches are *known
    lossy*, not failures.

``compliance``
    The cached :class:`~repro.keynote.compliance.ComplianceChecker`, a
    freshly built checker (the cold production path: empty decision cache)
    and the Kleene-iteration oracle must give the same compliance value for
    every query — cold, warm (decision-cache hits), and across
    add/revoke churn phases that bump the generation stamp.  The
    :class:`~repro.translate.imprecise.ImpreciseChecker` rides along:
    exact results must agree with the oracle; similarity-substituted
    authorisations are reported known-lossy.

``roundtrip``
    Decision preservation through translation: backend → KeyNote
    (``encode_full`` / ``comprehend_credentials``) → backend, and backend →
    backend via :func:`~repro.translate.migrate.migrate_policy`.  A
    migration that remapped vocabulary (COM's closed Launch/Access/RunAs)
    or dropped facts is known-lossy; everything else must preserve every
    probe's decision.

``stack``
    Full :meth:`~repro.webcom.stack.AuthorisationStack.mediate` against
    the conjunction of per-layer oracle verdicts — cold cache, warm cache,
    after TM credential churn, and degraded (fail-closed must never allow;
    fail-static must serve exactly the last-known-good verdict, marked
    stale, and never let the TTL cache re-serve it as fresh).

Any non-lossy disagreement is shrunk greedily — drop one grant /
assignment / credential / probe at a time while the mismatch persists —
and the minimal case dict is serialised into the report for replay via
:func:`replay_case`.
"""

from __future__ import annotations

import json
import random
from typing import Mapping

from repro.crypto.keystore import Keystore
from repro.errors import DeploymentError, UnknownComponentError
from repro.keynote.api import KeyNoteSession
from repro.keynote.compliance import ComplianceChecker
from repro.keynote.credential import Credential
from repro.middleware.base import Middleware
from repro.middleware.complus import COM_PERMISSIONS, ComPlusCatalogue
from repro.middleware.corba import CorbaOrb
from repro.middleware.ejb import EJBServer
from repro.oracle.gen import GENERATORS
from repro.oracle.keynote_oracle import oracle_compliance_value
from repro.oracle.rbac_oracle import RBACOracle
from repro.os_sec.windows import WindowsSecurity
from repro.rbac.policy import RBACPolicy
from repro.translate.from_keynote import comprehend_credentials
from repro.translate.imprecise import ImpreciseChecker
from repro.translate.migrate import DomainMapping, migrate_policy
from repro.translate.to_keynote import encode_full
from repro.util.clock import SimulatedClock
from repro.webcom.faults import (
    LayerFaultInjector,
    LayerFaultPlan,
    LayerFaultRule,
)
from repro.webcom.health import DegradedMode
from repro.webcom.stack import AuthorisationStack, Layer, MediationRequest

CHECK_ORDER = ("middleware", "compliance", "roundtrip", "stack")

#: list-valued case fields the shrinker may drop elements from
SHRINKABLE_FIELDS = ("grants", "assignments", "credentials", "probes",
                     "requests", "queries", "unchecked", "excluded",
                     "churn", "denied_ops")

_KEYSTORE: Keystore | None = None


def _keystore() -> Keystore:
    """One process-wide keystore for the encode/comprehend legs; the user
    vocabulary is tiny, so key generation is paid once per name."""
    global _KEYSTORE
    if _KEYSTORE is None:
        _KEYSTORE = Keystore()
    return _KEYSTORE


# -- subject builders ---------------------------------------------------------

def build_policy(case: Mapping) -> RBACPolicy:
    """The case's relations as a production policy object."""
    return RBACPolicy.from_relations(
        case.get("label") or "case",
        [tuple(g) for g in case["grants"]],
        [tuple(a) for a in case["assignments"]])


def build_backend(case: Mapping, kind: str | None = None,
                  policy: RBACPolicy | None = None) -> Middleware:
    """A fresh backend of the case's (or the given) kind with the case's
    policy applied through the normal ``apply_rbac`` path."""
    kind = kind or case["kind"]
    backend: Middleware
    if kind == "corba":
        backend = CorbaOrb(machine=case.get("machine", "orbhost"),
                           orb_name=case.get("orb", "orb1"))
    elif kind == "ejb":
        backend = EJBServer(host=case.get("host", "ejbhost"),
                            server_name=case.get("server", "ejb1"))
    else:
        backend = ComPlusCatalogue(case.get("machine", "winbox"),
                                   WindowsSecurity())
    backend.apply_rbac(policy if policy is not None else build_policy(case))
    if kind == "ejb":
        server = backend  # type: ignore[assignment]
        for domain, bean, method in case.get("unchecked", ()):
            _apply_descriptor(server, domain, bean, method,
                              EJBServer.add_unchecked)
        for domain, bean, method in case.get("excluded", ()):
            _apply_descriptor(server, domain, bean, method,
                              EJBServer.add_exclude)
    return backend


def _apply_descriptor(server: EJBServer, domain: str, bean: str, method: str,
                      adder) -> None:
    """Apply an unchecked/exclude descriptor, tolerating beans the shrinker
    removed from the grant set."""
    try:
        adder(server, server.container_of_domain(domain), bean, method)
    except (DeploymentError, UnknownComponentError):
        pass


def _native_principals(kind: str, domains: list[str], user: str) -> list[str]:
    """The principals a backend invocation must use for an RBAC user: COM+
    qualifies with the NT domain, the others use the bare name."""
    if kind == "complus":
        return [f"{domain}\\{user}" for domain in domains]
    return [user]


def _invoke(backend: Middleware, kind: str, domains: list[str], user: str,
            object_type: str, operation: str) -> bool:
    return any(backend.invoke(principal, object_type, operation)
               for principal in _native_principals(kind, domains, user))


# -- check: middleware --------------------------------------------------------

def eval_middleware(case: Mapping) -> dict:
    backend = build_backend(case)
    interpreted = backend.extract_rbac()
    oracle = RBACOracle.from_policy(interpreted)
    unchecked = {(bean, method)
                 for _domain, bean, method in case.get("unchecked", ())}
    comparisons = 0
    disagreements = []
    for user, object_type, operation in case["probes"]:
        expected = oracle.check_access(user, object_type, operation)
        production = interpreted.check_access(user, object_type, operation)
        actual = _invoke(backend, case["kind"], case["domains"], user,
                         object_type, operation)
        comparisons += 2
        if production != expected:
            disagreements.append({
                "comparison": "rbacpolicy-vs-oracle",
                "probe": [user, object_type, operation],
                "expected": expected, "actual": production, "lossy": False})
        if actual != expected:
            lossy = actual and (object_type, operation) in unchecked
            disagreements.append({
                "comparison": "backend-vs-oracle",
                "probe": [user, object_type, operation],
                "expected": expected, "actual": actual, "lossy": lossy})
    return {"comparisons": comparisons, "disagreements": disagreements}


# -- check: compliance --------------------------------------------------------

def _apply_compliance_churn(ops, cached: ComplianceChecker,
                            current: list[Credential]) -> None:
    for op in ops:
        if op["op"] == "revoke":
            if not current:
                continue
            credential = current.pop(op["index"] % len(current))
            cached.revoke_assertion(credential)
        else:
            credential = Credential.from_text(op["credential"])
            current.append(credential)
            cached.add_assertion(credential)


def eval_compliance(case: Mapping) -> dict:
    credentials = [Credential.from_text(t) for t in case["credentials"]]
    cached = ComplianceChecker(list(credentials), verify_signatures=False)
    current = list(credentials)
    comparisons = 0
    disagreements = []

    phases = [[]] + list(case.get("churn", ()))
    for phase_no, ops in enumerate(phases):
        _apply_compliance_churn(ops, cached, current)
        oracle_values = []
        for attributes, authorizers in case["queries"]:
            oracle_value = oracle_compliance_value(current, attributes,
                                                   authorizers)
            oracle_values.append(oracle_value)
            cold = ComplianceChecker(list(current), verify_signatures=False)
            comparisons += 2
            for name, checker in (("cached", cached), ("cold", cold)):
                value = checker.query(attributes, authorizers)
                if value != oracle_value:
                    disagreements.append({
                        "comparison": f"{name}-vs-oracle", "phase": phase_no,
                        "query": [attributes, list(authorizers)],
                        "expected": oracle_value, "actual": value,
                        "lossy": False})
        # Second pass within the phase: identical queries must now be
        # served by the decision cache with identical values.
        for (attributes, authorizers), oracle_value in zip(case["queries"],
                                                           oracle_values):
            comparisons += 1
            value = cached.query(attributes, authorizers)
            if value != oracle_value:
                disagreements.append({
                    "comparison": "cached-warm-vs-oracle", "phase": phase_no,
                    "query": [attributes, list(authorizers)],
                    "expected": oracle_value, "actual": value,
                    "lossy": False})

    # Imprecise checking over the initial assertion set: exact answers must
    # match the oracle, similarity-substituted ones are known-lossy.
    imprecise = ImpreciseChecker(list(credentials), verify_signatures=False)
    for attributes, authorizers in case["queries"]:
        comparisons += 1
        result = imprecise.query(attributes, authorizers)
        oracle_value = oracle_compliance_value(credentials, attributes,
                                               authorizers)
        if result.is_exact():
            if result.authorized != (oracle_value == "true"):
                disagreements.append({
                    "comparison": "imprecise-exact-vs-oracle",
                    "query": [attributes, list(authorizers)],
                    "expected": oracle_value,
                    "actual": result.compliance_value, "lossy": False})
        else:
            disagreements.append({
                "comparison": "imprecise-substituted",
                "query": [attributes, list(authorizers)],
                "expected": oracle_value,
                "actual": result.compliance_value,
                "substitutions": dict(result.substitutions), "lossy": True})
    return {"comparisons": comparisons, "disagreements": disagreements}


# -- check: roundtrip ---------------------------------------------------------

def _migration_plan(case: Mapping) -> tuple[DomainMapping,
                                            "tuple[str, ...] | None", dict]:
    """Domain mapping, closed target vocabulary (if any) and the fresh
    target backend's constructor hints for the case's direction."""
    dst = case["dst_kind"]
    if dst == "ejb":
        mapping = DomainMapping(default=lambda d: (
            "mighost:migejb/" + d.replace("/", "_").replace(":", "_")))
        return mapping, None, {"host": "mighost", "server": "migejb"}
    if dst == "corba":
        return (DomainMapping.to_single("migmach/migorb"), None,
                {"machine": "migmach", "orb": "migorb"})
    mapping = DomainMapping(default=lambda d: (
        "MIG_" + d.replace("/", "_").replace(":", "_").upper()))
    return mapping, COM_PERMISSIONS, {"machine": "migwin"}


def eval_roundtrip(case: Mapping) -> dict:
    policy = build_policy(case)
    oracle = RBACOracle.from_policy(policy)
    source = build_backend(case, kind=case["src_kind"], policy=policy)
    comparisons = 0
    disagreements = []

    # Leg A: backend -> KeyNote credentials -> backend.
    keystore = _keystore()
    policy_cred, memberships = encode_full(source.extract_rbac(), "KWebCom",
                                           keystore)
    recovered = comprehend_credentials([policy_cred] + memberships,
                                       keystore=keystore)
    rebuilt = build_backend(case, kind=case["src_kind"], policy=recovered)
    for user, object_type, permission in case["probes"]:
        comparisons += 1
        expected = oracle.check_access(user, object_type, permission)
        actual = _invoke(rebuilt, case["src_kind"], case["domains"], user,
                         object_type, permission)
        if actual != expected:
            disagreements.append({
                "comparison": "keynote-roundtrip",
                "probe": [user, object_type, permission],
                "expected": expected, "actual": actual, "lossy": False})

    # Leg B: backend -> backend via migrate_policy.
    mapping, target_permissions, hints = _migration_plan(case)
    target = build_backend(dict(hints, grants=[], assignments=[]),
                           kind=case["dst_kind"])
    report = migrate_policy(source, target, mapping,
                            target_permissions=target_permissions)
    lossy_case = bool(report.vocabulary_map) or bool(report.dropped)
    mapped_domains = sorted({mapping.map(d) for d in case["domains"]})
    for user, object_type, permission in case["probes"]:
        comparisons += 1
        expected = oracle.check_access(user, object_type, permission)
        effective = report.vocabulary_map.get(permission, permission)
        actual = _invoke(target, case["dst_kind"], mapped_domains, user,
                         object_type, effective)
        if actual != expected:
            disagreements.append({
                "comparison": "migration",
                "direction": [case["src_kind"], case["dst_kind"]],
                "probe": [user, object_type, permission],
                "expected": expected, "actual": actual,
                "lossy": lossy_case})
    return {"comparisons": comparisons, "disagreements": disagreements}


# -- check: stack -------------------------------------------------------------

def _make_session(credentials: list[Credential],
                  clock: SimulatedClock) -> KeyNoteSession:
    session = KeyNoteSession(keystore=None, verify_signatures=False,
                             clock=clock)
    for credential in credentials:
        if credential.is_policy:
            session.add_policy(credential)
        else:
            session.add_credential(credential)
    return session


def _make_stack(case: Mapping, clock: SimulatedClock,
                session: KeyNoteSession, middleware: Middleware,
                **kwargs) -> AuthorisationStack:
    denied = set(case["denied_ops"])
    stack = AuthorisationStack(clock=clock, **kwargs)
    stack.plug_application(lambda req: req.operation not in denied)
    stack.plug_trust_management(session)
    stack.plug_middleware(middleware)
    return stack


def eval_stack(case: Mapping) -> dict:
    credentials = [Credential.from_text(t) for t in case["credentials"]]
    middleware = build_backend(dict(case, kind="corba"), kind="corba")
    mw_oracle = RBACOracle.from_policy(middleware.extract_rbac())
    denied = set(case["denied_ops"])
    requests = [MediationRequest(user=u, user_key=k, object_type=ot,
                                 operation=op)
                for u, k, ot, op in case["requests"]]
    comparisons = 0
    disagreements = []

    def expected_verdict(request: MediationRequest, assertions,
                         clock: SimulatedClock) -> bool:
        """Conjunction of per-layer oracle verdicts (the stack's contract:
        allowed iff every configured layer allows)."""
        app_ok = request.operation not in denied
        attributes = {"op": request.operation,
                      "_cur_time": repr(clock.now())}
        tm_ok = oracle_compliance_value(assertions, attributes,
                                        [request.user_key]) == "true"
        mw_ok = mw_oracle.check_access(request.user, request.object_type,
                                       request.operation)
        return app_ok and tm_ok and mw_ok

    def diff(phase: str, request: MediationRequest, actual: bool,
             expected: bool) -> None:
        nonlocal comparisons
        comparisons += 1
        if actual != expected:
            disagreements.append({
                "comparison": f"stack-{phase}",
                "request": [request.user, request.user_key,
                            request.object_type, request.operation],
                "expected": expected, "actual": actual, "lossy": False})

    # Healthy: cold TM cache, warm TM cache, then TM churn.
    clock = SimulatedClock()
    session = _make_session(credentials, clock)
    stack = _make_stack(case, clock, session, middleware)
    current = list(credentials)
    for request in requests:
        diff("cold", request, stack.mediate(request).allowed,
             expected_verdict(request, current, clock))
    for request in requests:
        diff("warm", request, stack.mediate(request).allowed,
             expected_verdict(request, current, clock))
    for op in case.get("churn", ()):
        live = session.credentials
        if not live:
            continue
        doomed = live[op["index"] % len(live)]
        session.revoke_credential(doomed)
        current.remove(doomed)
    for request in requests:
        diff("churn", request, stack.mediate(request).allowed,
             expected_verdict(request, current, clock))

    # Degraded, fail-closed: with TM timing out, nothing the stack consults
    # may widen authorisation — every mediation must deny.
    clock2 = SimulatedClock()
    session2 = _make_session(credentials, clock2)
    injector = LayerFaultInjector(LayerFaultPlan(seed=0, rules=(
        LayerFaultRule(layer="TRUST_MANAGEMENT", fail=1.0),)))
    stack2 = _make_stack(case, clock2, session2, middleware,
                         layer_faults=injector)
    for request in requests:
        decision = stack2.mediate(request)
        diff("fail-closed", request, decision.allowed, False)

    # Degraded, fail-static: healthy mediations seed the last-known-good
    # store; once the fault window opens the stack must serve exactly those
    # verdicts, marked stale — and never again as fresh.
    clock3 = SimulatedClock()
    session3 = _make_session(credentials, clock3)
    injector3 = LayerFaultInjector(LayerFaultPlan(seed=0, rules=(
        LayerFaultRule(layer="TRUST_MANAGEMENT", fail=1.0, start=100.0),)))
    stack3 = _make_stack(case, clock3, session3, middleware,
                         layer_faults=injector3)
    stack3.set_degraded_mode(Layer.TRUST_MANAGEMENT, DegradedMode.FAIL_STATIC)
    healthy: dict[MediationRequest, bool] = {}
    for request in requests:
        decision = stack3.mediate(request)
        healthy[request] = decision.allowed
        diff("static-healthy", request, decision.allowed,
             expected_verdict(request, credentials, clock3))
    clock3.advance(150.0)
    for request in requests:
        decision = stack3.mediate(request)
        consulted_tm = request.operation not in denied
        diff("static-outage", request, decision.allowed, healthy[request])
        if consulted_tm:
            comparisons += 2
            if not decision.stale:
                disagreements.append({
                    "comparison": "stack-static-unmarked",
                    "request": list(case["requests"][
                        requests.index(request)]),
                    "expected": True, "actual": False, "lossy": False})
            second = stack3.mediate(request)
            if not second.stale:
                disagreements.append({
                    "comparison": "stack-static-cached-as-fresh",
                    "request": list(case["requests"][
                        requests.index(request)]),
                    "expected": True, "actual": False, "lossy": False})
    return {"comparisons": comparisons, "disagreements": disagreements}


# -- harness ------------------------------------------------------------------

EVALUATORS = {
    "middleware": eval_middleware,
    "compliance": eval_compliance,
    "roundtrip": eval_roundtrip,
    "stack": eval_stack,
}


def evaluate_case(case: Mapping) -> dict:
    """Run one case against every subject it describes.

    Returns ``{"comparisons": int, "disagreements": [dict, ...]}`` where
    each disagreement carries ``lossy=True`` when it falls under a
    documented lossy translation rather than a conformance failure.
    """
    return EVALUATORS[case["check"]](case)


def replay_case(case: Mapping) -> dict:
    """Re-run a serialised (possibly shrunk) case — the replay entry point
    for checked-in counterexample fixtures."""
    return evaluate_case(case)


def _still_fails(case: Mapping) -> bool:
    """Does the case still produce a non-lossy disagreement?  Evaluation
    errors count as 'no' so the shrinker never trades a conformance
    failure for a crash."""
    try:
        result = evaluate_case(case)
    except Exception:
        return False
    return any(not d["lossy"] for d in result["disagreements"])


def shrink_case(case: Mapping) -> dict:
    """Greedy delta-debugging: drop one element of one list field at a
    time while a non-lossy disagreement persists, to a local minimum."""
    case = json.loads(json.dumps(case))
    changed = True
    while changed:
        changed = False
        for field in SHRINKABLE_FIELDS:
            items = case.get(field)
            if not isinstance(items, list):
                continue
            index = 0
            while index < len(items):
                candidate = dict(case)
                candidate[field] = items[:index] + items[index + 1:]
                if _still_fails(candidate):
                    case = candidate
                    items = case[field]
                    changed = True
                else:
                    index += 1
    return case


def run_conformance(seed: int, cases: int, shrink: bool = True) -> dict:
    """Run ``cases`` generated cases (cycling through the four check
    families) and build the ``CONFORMANCE_5`` report."""
    per_check = {check: {"cases": 0, "comparisons": 0, "agreements": 0,
                         "known_lossy": 0, "counterexamples": 0}
                 for check in CHECK_ORDER}
    counterexamples = []
    for index in range(cases):
        check = CHECK_ORDER[index % len(CHECK_ORDER)]
        rng = random.Random(f"{seed}:{index}")
        case = GENERATORS[check](rng, label=f"case-{index}")
        result = evaluate_case(case)
        lossy = [d for d in result["disagreements"] if d["lossy"]]
        real = [d for d in result["disagreements"] if not d["lossy"]]
        stats = per_check[check]
        stats["cases"] += 1
        stats["comparisons"] += result["comparisons"]
        stats["agreements"] += (result["comparisons"]
                                - len(result["disagreements"]))
        stats["known_lossy"] += len(lossy)
        if real:
            stats["counterexamples"] += 1
            minimal = shrink_case(case) if shrink else dict(case)
            counterexamples.append({
                "check": check, "seed": seed, "index": index,
                "case": minimal,
                "disagreements": [d for d
                                  in evaluate_case(minimal)["disagreements"]
                                  if not d["lossy"]] or real,
            })
    return {
        "report": "CONFORMANCE_5",
        "description": "differential conformance of backends, caches, "
                       "translators and stack mediation against the "
                       "naive oracle",
        "seed": seed,
        "cases": cases,
        "comparisons": sum(s["comparisons"] for s in per_check.values()),
        "agreements": sum(s["agreements"] for s in per_check.values()),
        "known_lossy": sum(s["known_lossy"] for s in per_check.values()),
        "counterexamples": counterexamples,
        "per_check": per_check,
    }
