"""Command-line interface to the framework's policy services.

Subcommands mirror the paper's Section-4 services over policy files:

- ``tables``      — render a policy's Figure-1 style relation tables;
- ``encode``      — Policy Configuration input: policy JSON -> KeyNote
  credentials (the Figure-5 POLICY plus Figure-6 memberships);
- ``comprehend``  — Policy Comprehension: credentials -> policy JSON;
- ``query``       — run one KeyNote query against a credential file;
- ``check``       — RBAC access decision against a policy file;
- ``demo``        — run the built-in Salaries scenario end to end;
- ``trace``       — run an observed Secure WebCom scenario and dump the
  correlated trace tree (or the full JSON bundle);
- ``metrics``     — the same scenario, reporting the metrics registry;
- ``health``      — seed-swept policy-plane resilience report (circuit
  breakers, degraded modes, partition/reconcile convergence), the CI
  chaos artifact (``HEALTH_4.json``);
- ``conformance`` — differential testing of backends, caches, translators
  and stack mediation against the naive oracle
  (:mod:`repro.oracle`), the CI artifact (``CONFORMANCE_5.json``);
- ``durability``  — seeded kill-at-every-write-site crash-recovery sweep,
  the CI artifact (``DURABILITY_6.json``);
- ``serve``       — run the always-on authorisation daemon
  (:mod:`repro.serve`).

Performance is measured outside the package, end to end against the
``serve`` daemon, by ``python3 bench/run.py``.

Each subcommand imports what it runs: ``serve`` starts a daemon whose
restart time is availability, so it must not load the scenarios,
translators and reports the other subcommands use.

Usage examples::

    python -m repro.cli tables --policy salaries.json
    python -m repro.cli encode --policy salaries.json --admin KWebCom
    python -m repro.cli query --credentials creds.kn \\
        --authorizer Kbob --attr app_domain=SalariesDB --attr oper=read
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence


def _load_policy(path: str):
    from repro.rbac.serialize import policy_from_json

    if path == "-":
        return policy_from_json(sys.stdin.read())
    return policy_from_json(Path(path).read_text())


def _cmd_tables(args: argparse.Namespace) -> int:
    policy = _load_policy(args.policy)
    print("HasPermission:")
    print(policy.has_permission_table())
    print("\nUserAssignment:")
    print(policy.user_assignment_table())
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    from repro.crypto.keystore import Keystore
    from repro.translate.to_keynote import encode_full

    policy = _load_policy(args.policy)
    keystore = Keystore()
    policy_cred, memberships = encode_full(policy, args.admin, keystore)
    print(policy_cred.to_text())
    for credential in memberships:
        print(credential.to_text())
    return 0


def _cmd_comprehend(args: argparse.Namespace) -> int:
    from repro.keynote.parser import parse_credentials
    from repro.rbac.serialize import policy_to_json
    from repro.translate.from_keynote import comprehend_credentials

    text = (sys.stdin.read() if args.credentials == "-"
            else Path(args.credentials).read_text())
    credentials = parse_credentials(text)
    policy = comprehend_credentials(credentials, keystore=None,
                                    verify_signatures=False,
                                    name=args.name)
    print(policy_to_json(policy))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.keynote.api import KeyNoteSession
    from repro.keynote.parser import parse_credentials

    text = (sys.stdin.read() if args.credentials == "-"
            else Path(args.credentials).read_text())
    session = KeyNoteSession(keystore=None, verify_signatures=False)
    for credential in parse_credentials(text):
        if credential.is_policy:
            session.add_policy(credential)
        else:
            session.add_credential(credential)
    attributes = {}
    for pair in args.attr or []:
        key, sep, value = pair.partition("=")
        if not sep:
            print(f"error: --attr needs name=value, got {pair!r}",
                  file=sys.stderr)
            return 2
        attributes[key] = value
    result = session.query(attributes, [args.authorizer])
    print(result.compliance_value)
    return 0 if result.authorized else 1


def _cmd_check(args: argparse.Namespace) -> int:
    policy = _load_policy(args.policy)
    allowed = policy.check_access(args.user, args.object_type,
                                  args.permission)
    print("allow" if allowed else "deny")
    return 0 if allowed else 1


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.scenarios import salaries_policy
    from repro.crypto.keystore import Keystore
    from repro.rbac.serialize import policy_to_json
    from repro.translate.from_keynote import comprehend_credentials
    from repro.translate.to_keynote import encode_full

    policy = salaries_policy()
    if args.emit_policy:
        print(policy_to_json(policy))
        return 0
    keystore = Keystore()
    policy_cred, memberships = encode_full(policy, "KWebCom", keystore)
    recovered = comprehend_credentials([policy_cred] + memberships,
                                       keystore=keystore)
    exact = recovered == policy
    print("Salaries scenario:")
    print(f"  relations: {len(policy.grants)} grants, "
          f"{len(policy.assignments)} assignments")
    print(f"  credentials: 1 POLICY + {len(memberships)} memberships")
    print(f"  round-trip exact: {exact}")
    return 0 if exact else 1


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)


def _cmd_health(args: argparse.Namespace) -> int:
    """Seed-swept policy-plane chaos report (the ``chaos-policy-plane`` CI
    artifact): degraded mediation under layer timeouts plus
    partition/reconcile convergence."""
    from repro.webcom.scenario import run_policy_chaos_scenario

    runs = [run_policy_chaos_scenario(seed, rounds=args.rounds)
            for seed in range(args.seeds)]
    summaries = [run.summary() for run in runs]
    converged = sum(1 for s in summaries if s["converged"])
    report = {
        "report": "HEALTH_4",
        "description": "policy-plane resilience: breakers, degraded modes, "
                       "anti-entropy reconciliation",
        "seeds": args.seeds,
        "rounds": args.rounds,
        "converged": converged,
        "all_converged": converged == args.seeds,
        "stale_served_total": sum(s["stale_served"] for s in summaries),
        "degraded_mediations_total": sum(s["degraded_mediations"]
                                         for s in summaries),
        "injected_timeouts_total": sum(s["injected_timeouts"]
                                       for s in summaries),
        "runs": summaries,
    }
    if args.json:
        _emit(args, json.dumps(report, indent=2))
    else:
        lines = [f"policy-plane health: {converged}/{args.seeds} seeds "
                 f"converged",
                 f"  degraded mediations: "
                 f"{report['degraded_mediations_total']}",
                 f"  stale decisions served (disclosed): "
                 f"{report['stale_served_total']}",
                 f"  injected layer timeouts: "
                 f"{report['injected_timeouts_total']}"]
        for s in summaries:
            if not s["converged"]:
                lines.append(f"  seed {s['seed']}: NOT converged")
        _emit(args, "\n".join(lines))
    if args.check and converged != args.seeds:
        print(f"health check failed: only {converged}/{args.seeds} seeds "
              f"converged", file=sys.stderr)
        return 1
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    """Seeded differential sweep against the conformance oracle (the
    ``CONFORMANCE_5.json`` CI artifact)."""
    from repro.oracle.differ import run_conformance
    from repro.report import conformance_report

    report = run_conformance(args.seed, args.cases,
                             shrink=not args.no_shrink)
    if args.json:
        _emit(args, json.dumps(report, indent=2))
    else:
        _emit(args, conformance_report(report))
    if args.check and report["counterexamples"]:
        print(f"conformance check failed: "
              f"{len(report['counterexamples'])} counterexample(s) found "
              f"(known-lossy cases excluded)", file=sys.stderr)
        return 1
    return 0


def _cmd_durability(args: argparse.Namespace) -> int:
    """Seeded kill-at-every-write-site crash-recovery sweep (the
    ``DURABILITY_6.json`` CI artifact)."""
    from repro.report import durability_report
    from repro.store.harness import run_durability_sweep

    report = run_durability_sweep(args.seeds, args.ops)
    if args.json:
        _emit(args, json.dumps(report, indent=2))
    else:
        _emit(args, durability_report(report))
    if args.check and not report["ok"]:
        print(f"durability check failed: "
              f"{report['acked_loss_total']} acknowledged update(s) lost, "
              f"{report['oracle_disagreements_total']} oracle "
              f"disagreement(s), {len(report['failures'])} failure(s)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on authorisation daemon until interrupted."""
    import asyncio

    from repro.serve.admission import AdmissionController, BrownoutController
    from repro.serve.plane import ServePolicyPlane
    from repro.serve.server import ReproServer

    async def _serve() -> int:
        plane = ServePolicyPlane(root=args.root)
        admission = AdmissionController(
            clock=plane.clock, max_inflight=args.max_inflight,
            peer_rate=args.peer_rate, peer_burst=args.peer_burst,
            brownout=BrownoutController(clock=plane.clock))
        server = ReproServer(plane, host=args.host, port=args.port,
                             pidfile=args.pidfile, admission=admission)
        await server.start()
        print(f"repro serve listening on {server.host}:{server.port}"
              + (f" (durable root {args.root})" if args.root else
                 " (in-memory)"))
        try:
            await server.serve_until_shutdown()
        except asyncio.CancelledError:  # pragma: no cover - signal path
            pass
        finally:
            report = await server.shutdown("operator")
            print(f"drained: {report['requests_served']} requests served, "
                  f"WAL flushed: {report['wal_flushed']}")
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import export_json, render_trace
    from repro.webcom.scenario import run_observed_scenario

    run = run_observed_scenario(depth=args.depth, n_clients=args.clients,
                                faults=args.faults, seed=args.seed)
    if args.json:
        _emit(args, export_json(run.obs))
    else:
        _emit(args, render_trace(run.obs.tracer.spans, run.correlation_id))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.export import metrics_to_dict
    from repro.report import metrics_report, observability_report
    from repro.webcom.scenario import run_observed_scenario

    run = run_observed_scenario(depth=args.depth, n_clients=args.clients,
                                faults=args.faults, seed=args.seed)
    if args.json:
        _emit(args, json.dumps(metrics_to_dict(run.obs.metrics), indent=2))
    elif args.summary:
        _emit(args, observability_report(run.obs))
    else:
        _emit(args, metrics_report(run.obs.metrics))
    return 0


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--depth", type=int, default=4,
                        help="pipeline depth of the observed scenario")
    parser.add_argument("--clients", type=int, default=2,
                        help="number of stack-mediated clients")
    parser.add_argument("--faults", action="store_true",
                        help="inject seeded message drops (forces retries)")
    parser.add_argument("--seed", type=int, default=7,
                        help="fault-plan seed (with --faults)")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON instead of the text rendering")
    parser.add_argument("--out", default=None,
                        help="write the output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Heterogeneous middleware security framework "
                    "(Foley et al., IPPS 2004 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="render relation tables")
    p_tables.add_argument("--policy", required=True,
                          help="policy JSON file ('-' for stdin)")
    p_tables.set_defaults(func=_cmd_tables)

    p_encode = sub.add_parser("encode",
                              help="policy JSON -> KeyNote credentials")
    p_encode.add_argument("--policy", required=True)
    p_encode.add_argument("--admin", default="KWebCom",
                          help="administration key name")
    p_encode.set_defaults(func=_cmd_encode)

    p_compr = sub.add_parser("comprehend",
                             help="KeyNote credentials -> policy JSON")
    p_compr.add_argument("--credentials", required=True,
                         help="credential file ('-' for stdin)")
    p_compr.add_argument("--name", default="comprehended")
    p_compr.set_defaults(func=_cmd_comprehend)

    p_query = sub.add_parser("query", help="one KeyNote query")
    p_query.add_argument("--credentials", required=True)
    p_query.add_argument("--authorizer", required=True)
    p_query.add_argument("--attr", action="append",
                         help="action attribute name=value (repeatable)")
    p_query.set_defaults(func=_cmd_query)

    p_check = sub.add_parser("check", help="RBAC access decision")
    p_check.add_argument("--policy", required=True)
    p_check.add_argument("--user", required=True)
    p_check.add_argument("--object-type", required=True)
    p_check.add_argument("--permission", required=True)
    p_check.set_defaults(func=_cmd_check)

    p_demo = sub.add_parser("demo", help="built-in Salaries scenario")
    p_demo.add_argument("--emit-policy", action="store_true",
                        help="print the Figure-1 policy as JSON and exit")
    p_demo.set_defaults(func=_cmd_demo)

    p_trace = sub.add_parser(
        "trace", help="dump the correlated trace of one observed scenario")
    _add_scenario_arguments(p_trace)
    p_trace.set_defaults(func=_cmd_trace)

    p_metrics = sub.add_parser(
        "metrics", help="dump the metrics of one observed scenario")
    _add_scenario_arguments(p_metrics)
    p_metrics.add_argument("--summary", action="store_true",
                           help="prepend a one-line trace summary")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_health = sub.add_parser(
        "health", help="policy-plane resilience report (breakers, degraded "
                       "modes, partition/reconcile)")
    p_health.add_argument("--seeds", type=int, default=20,
                          help="chaos seeds to sweep")
    p_health.add_argument("--rounds", type=int, default=30,
                          help="mediations per seed (one per simulated "
                               "second)")
    p_health.add_argument("--check", action="store_true",
                          help="exit non-zero unless every seed converges")
    p_health.add_argument("--json", action="store_true",
                          help="emit the full JSON report")
    p_health.add_argument("--out", default=None,
                          help="write the output to a file instead of stdout")
    p_health.set_defaults(func=_cmd_health)

    p_conf = sub.add_parser(
        "conformance", help="differential testing against the naive oracle")
    p_conf.add_argument("--seed", type=int, default=0,
                        help="generator seed for the case sweep")
    p_conf.add_argument("--cases", type=int, default=200,
                        help="number of generated cases (cycled over the "
                             "four check families)")
    p_conf.add_argument("--check", action="store_true",
                        help="exit non-zero on any non-lossy disagreement")
    p_conf.add_argument("--no-shrink", action="store_true",
                        help="report raw counterexamples without shrinking")
    p_conf.add_argument("--json", action="store_true",
                        help="emit the full JSON report")
    p_conf.add_argument("--out", default=None,
                        help="write the output to a file instead of stdout")
    p_conf.set_defaults(func=_cmd_conformance)

    p_dur = sub.add_parser(
        "durability", help="kill-at-every-write-site crash-recovery sweep")
    p_dur.add_argument("--seeds", type=int, default=10,
                       help="workload seeds to sweep (each kills every "
                            "write site once)")
    p_dur.add_argument("--ops", type=int, default=24,
                       help="mutation ops per workload run")
    p_dur.add_argument("--check", action="store_true",
                       help="exit non-zero on any acknowledged-update loss "
                            "or post-recovery oracle disagreement")
    p_dur.add_argument("--json", action="store_true",
                       help="emit the full JSON report")
    p_dur.add_argument("--out", default=None,
                       help="write the output to a file instead of stdout")
    p_dur.set_defaults(func=_cmd_durability)

    p_serve = sub.add_parser(
        "serve", help="run the always-on authorisation daemon")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="interface to bind")
    p_serve.add_argument("--port", type=int, default=4774,
                         help="TCP port (0 picks a free port)")
    p_serve.add_argument("--root", default=None,
                         help="durability root directory (WAL + snapshots); "
                              "omit for an in-memory plane")
    p_serve.add_argument("--pidfile", default=None,
                         help="PID file enforcing one daemon per root")
    p_serve.add_argument("--max-inflight", type=int, default=256,
                         help="global in-flight budget for non-control "
                              "requests (admission control)")
    p_serve.add_argument("--peer-rate", type=float, default=None,
                         help="per-peer admitted requests/second "
                              "(default: no per-peer rate limit)")
    p_serve.add_argument("--peer-burst", type=float, default=None,
                         help="per-peer burst allowance (default 2x rate)")
    p_serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
