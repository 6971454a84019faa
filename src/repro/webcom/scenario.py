"""A fully observed Figure-3 scenario, end to end.

One condensed-graph pipeline scheduled by a Secure WebCom master to
stack-mediated clients over the simulated network, with the whole
observability fabric wired in: the master's ``run_graph`` opens a root span
whose correlation id rides in every execute/result payload, so the schedule
decision, the network flights, the client-side L0-L3 stack mediation (with
its per-layer spans and TM query) and any fault-injected retries land in one
correlated trace.  ``repro trace`` / ``repro metrics`` and the CI perf
artifact are all thin wrappers over :func:`run_observed_scenario`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.middleware.ejb import EJBServer
from repro.obs import Observability
from repro.rbac.diff import PolicyDelta
from repro.rbac.model import Assignment, Grant
from repro.rbac.policy import RBACPolicy
from repro.translate.propagate import (PropagationEngine, ReconcileReport,
                                       VersionedUpdate)
from repro.webcom.faults import (FaultInjector, FaultPlan, FaultRule,
                                 LayerFaultInjector, LayerFaultPlan)
from repro.webcom.graph import CondensedGraph
from repro.webcom.health import DegradedMode
from repro.webcom.network import SimulatedNetwork
from repro.webcom.node import WebComClient, WebComMaster
from repro.webcom.secure import SecureWebComEnvironment
from repro.webcom.stack import Layer

#: the operations every scenario client advertises
SCENARIO_OPS = {"stage": lambda v: v + 1,
                "combine": lambda *values: sum(values)}


@dataclass
class ObservedRun:
    """Everything one observed scenario run produced."""

    obs: Observability
    env: SecureWebComEnvironment
    master: WebComMaster
    result: object
    correlation_id: str | None


def pipeline_graph(depth: int) -> CondensedGraph:
    """A linear ``stage -> stage -> ...`` pipeline of the given depth."""
    graph = CondensedGraph(f"pipeline-{depth}")
    previous = None
    for i in range(depth):
        node = f"n{i:03d}"
        graph.add_node(node, operator="stage", arity=1)
        if previous is not None:
            graph.connect(previous, node, 0)
        previous = node
    graph.entry("x", "n000", 0)
    assert previous is not None
    graph.set_exit(previous)
    return graph


def fan_graph(width: int) -> CondensedGraph:
    """A wide fan: ``width`` parallel ``stage`` nodes feeding one
    ``combine``.

    The whole fan is fireable at once, so it is the shape where batched
    scheduling pays: one wavefront of ``width`` nodes travels in one
    ``execute_batch`` flight per destination client instead of ``width``
    round trips.
    """
    graph = CondensedGraph(f"fan-{width}")
    graph.add_node("combine", operator="combine", arity=width)
    for i in range(width):
        node = f"s{i:03d}"
        graph.add_node(node, operator="stage", arity=1)
        graph.entry("x", node, 0)
        graph.connect(node, "combine", i)
    graph.set_exit("combine")
    return graph


def run_observed_scenario(depth: int = 4, n_clients: int = 2,
                          faults: bool = False, seed: int = 7,
                          drop: float = 0.3, fan: int | None = None,
                          batch: bool = False) -> ObservedRun:
    """Run the observed secure pipeline and return its artefacts.

    :param depth: pipeline length (one master.schedule span per stage).
    :param n_clients: stack-mediated clients in the pool.
    :param faults: install a seeded fault plan that drops ``execute`` and
        ``result`` messages (batched and single) with probability ``drop``,
        forcing same-request retries that stay inside the run's correlation.
    :param seed: fault-plan seed (ignored without ``faults``).
    :param drop: per-message drop probability under ``faults``.
    :param fan: run a width-``fan`` :func:`fan_graph` instead of the linear
        pipeline (``depth`` is ignored).
    :param batch: schedule wavefronts through the master's batched path.
    """
    obs = Observability()
    env = SecureWebComEnvironment(obs=obs)
    env.audit.bind_metrics(obs.metrics)
    network = SimulatedNetwork(clock=env.clock, obs=obs)
    env.create_key("Kmaster")
    master = WebComMaster("master", network, key_name="Kmaster",
                          scheduler_filter=env.master_filter(),
                          audit=env.audit, obs=obs)
    client_keys = []
    for i in range(n_clients):
        client_id = f"c{i}"
        key = env.create_key(f"Kc{i}")
        client_keys.append(key)
        client = WebComClient(
            client_id, network, SCENARIO_OPS, key_name=key,
            user=f"user{i}",
            authoriser=env.stack_authoriser(client_id, user=f"user{i}"),
            audit=env.audit, obs=obs)
        env.client_trusts_master(client_id, "Kmaster")
        client.register_with("master")
    network.run_until_quiet()
    env.trust_clients_for_operations(client_keys, list(SCENARIO_OPS))
    if faults:
        plan = FaultPlan(seed=seed, rules=(
            FaultRule(kind="execute", drop=drop),
            FaultRule(kind="result", drop=drop),
            FaultRule(kind="execute_batch", drop=drop),
            FaultRule(kind="result_batch", drop=drop),
        ))
        FaultInjector(plan).install(network)
    graph = fan_graph(fan) if fan is not None else pipeline_graph(depth)
    result = master.run_graph(graph, {"x": 0}, batch=batch)
    return ObservedRun(obs=obs, env=env, master=master, result=result,
                       correlation_id=master.last_correlation_id)


# ---------------------------------------------------------------------------
# Policy-plane chaos: degraded mediation + partition/reconcile
# ---------------------------------------------------------------------------

#: RBAC domains of the two chaos replicas (EJB domains are container
#: addresses of the form ``host:server/jndi``)
CHAOS_DOMAIN_A = "hostA:ejb/DomA"
CHAOS_DOMAIN_B = "hostB:ejb/DomB"


@dataclass
class PolicyChaosRun:
    """Everything one policy-plane chaos run produced."""

    seed: int
    obs: Observability
    env: SecureWebComEnvironment
    engine: PropagationEngine
    #: per-mediation records: {t, allowed, stale, degraded}
    decisions: list[dict] = field(default_factory=list)
    reconcile_report: ReconcileReport | None = None
    stack_health: dict = field(default_factory=dict)
    propagation_health: dict = field(default_factory=dict)
    digests_match: bool = False
    injected_timeouts: int = 0
    redelivered: int = 0

    @property
    def converged(self) -> bool:
        """Did the run end healthy: replicas byte-identical after heal, and
        no degraded decision allowed silently (an allowed degraded decision
        must be disclosed as stale, or come from an explicit fail-open
        layer)?"""
        disclosed = all(d["stale"] or d["fail_open"]
                        for d in self.decisions
                        if d["degraded"] and d["allowed"])
        return (self.digests_match
                and self.reconcile_report is not None
                and self.reconcile_report.converged
                and disclosed)

    def summary(self) -> dict:
        """JSON-able report for ``repro health`` and the CI artifact."""
        degraded = [d for d in self.decisions if d["degraded"]]
        return {
            "seed": self.seed,
            "mediations": len(self.decisions),
            "degraded_mediations": len(degraded),
            "denied_while_degraded": sum(1 for d in degraded
                                         if not d["allowed"]),
            "stale_served": self.stack_health.get("stale_served", 0),
            "injected_timeouts": self.injected_timeouts,
            "breakers": {
                name: {"state": snap["state"],
                       "transitions": len(snap["transitions"])}
                for name, snap in self.stack_health.get("breakers",
                                                        {}).items()},
            "propagation": self.propagation_health,
            "reconcile": (self.reconcile_report.summary()
                          if self.reconcile_report is not None else None),
            "redelivered": self.redelivered,
            "digests_match": self.digests_match,
            "converged": self.converged,
        }


def run_policy_chaos_scenario(seed: int = 0, rounds: int = 30,
                              updates: int = 6) -> PolicyChaosRun:
    """One seeded policy-plane chaos run: degraded mediation + anti-entropy.

    Two coupled experiments share one clock and observability fabric:

    **Degraded mediation.**  A client authorisation stack (TM fail-closed,
    application-layer fail-static) is attacked by a seeded
    :class:`~repro.webcom.faults.LayerFaultPlan` that times out one layer
    during a bounded window.  The same request is mediated every simulated
    second for ``rounds`` seconds; breakers trip, cool down and half-open
    probe on the shared clock, and every decision's ``stale`` / ``degraded``
    flags are recorded.

    **Partition and reconcile.**  A :class:`PropagationEngine` pushes
    ``updates`` seeded policy deltas to two EJB replicas while one of them
    is partitioned away and deliveries to the other are flaky (seeded
    ``delivery_fault``, retried).  One logged update is also re-delivered
    on purpose — the applied-version vector must swallow the duplicate.
    After the partition heals, :meth:`~PropagationEngine.reconcile` must
    leave both replicas byte-identical with the authoritative slice.
    """
    obs = Observability()
    env = SecureWebComEnvironment(obs=obs)
    env.audit.bind_metrics(obs.metrics)
    env.create_key("Kmaster")
    env.client_trusts_master("c0", "Kmaster")

    layer_faults = LayerFaultInjector(LayerFaultPlan.chaos(
        seed, layers=("TRUST_MANAGEMENT", "APPLICATION"),
        window=float(rounds) / 2))
    stack = env.client_stack("c0", breaker_threshold=2,
                             breaker_cooldown=4.0,
                             layer_faults=layer_faults)
    stack.plug_application(lambda request: True)
    stack.set_degraded_mode(Layer.TRUST_MANAGEMENT,
                            DegradedMode.FAIL_CLOSED)
    stack.set_degraded_mode(Layer.APPLICATION, DegradedMode.FAIL_STATIC)
    authorise = env.stack_authoriser("c0", stack=stack, user="user0")

    run = PolicyChaosRun(seed=seed, obs=obs, env=env,
                         engine=_chaos_engine(seed, env, obs))
    # Warm-up mediation before any fault window opens (plans start at
    # t >= 1): seeds the last-known-good store fail-static serves from.
    assert bool(authorise("Kmaster", "stage", {}))
    for _ in range(rounds):
        env.clock.advance(1.0)
        decision = authorise("Kmaster", "stage", {})
        run.decisions.append({
            "t": env.clock.now(),
            "allowed": bool(decision),
            "stale": bool(getattr(decision, "stale", False)),
            "degraded": [layer.name for layer
                         in getattr(decision, "degraded", ())],
            "fail_open": any(
                stack.degraded_mode(layer) is DegradedMode.FAIL_OPEN
                for layer in getattr(decision, "degraded", ())),
        })
    run.injected_timeouts = sum(layer_faults.counts.values())
    run.stack_health = stack.health_snapshot()

    run.reconcile_report, run.redelivered = _chaos_propagation(
        seed, run.engine, updates)
    run.propagation_health = run.engine.health_snapshot()
    run.digests_match = all(
        run.engine.replica_digest(name) == run.engine.expected_digest(name)
        for name in ("hostA:ejb", "hostB:ejb"))
    return run


def _chaos_engine(seed: int, env: SecureWebComEnvironment,
                  obs: Observability) -> PropagationEngine:
    """Two EJB replicas under an authoritative two-domain policy, with a
    seeded flaky delivery hook."""
    policy = RBACPolicy("global")
    for domain in (CHAOS_DOMAIN_A, CHAOS_DOMAIN_B):
        policy.add_grant(Grant(domain, "Staff", "Report", "read"))
        policy.add_assignment(Assignment("alice", domain, "Staff"))
    rng = random.Random(seed * 7919 + 13)
    engine = PropagationEngine(
        policy, audit=env.audit, clock=env.clock, obs=obs,
        delivery_fault=lambda _name, _version, _attempt:
            rng.random() < 0.25)
    engine.register(EJBServer("hostA", "ejb"), {CHAOS_DOMAIN_A})
    engine.register(EJBServer("hostB", "ejb"), {CHAOS_DOMAIN_B})
    engine.push_all()
    return engine


def _chaos_propagation(seed: int, engine: PropagationEngine,
                       updates: int) -> tuple[ReconcileReport, int]:
    """Partition hostB, stream seeded deltas (one deliberately
    re-delivered), heal, reconcile."""
    rng = random.Random(seed * 104729 + 7)
    engine.set_unreachable("hostB:ejb")
    for i in range(updates):
        domain = rng.choice((CHAOS_DOMAIN_A, CHAOS_DOMAIN_B))
        if rng.random() < 0.5:
            delta = PolicyDelta(added_grants=frozenset({
                Grant(domain, "Staff", f"Obj{i}", "read")}))
        else:
            delta = PolicyDelta(added_assignments=frozenset({
                Assignment(f"user{i}", domain, "Staff")}))
        engine.apply_delta(delta, update_id=f"chaos-{seed}-{i}")
    redelivered = 0
    if engine.update_log:
        # Duplicate delivery (a flaky network re-sending an applied
        # update): the version vector must make it a no-op.
        duplicate: VersionedUpdate = rng.choice(engine.update_log)
        engine.deliver_update("hostA:ejb", duplicate)
        redelivered = 1
    engine.set_reachable("hostB:ejb")
    return engine.reconcile(), redelivered
