"""Administrative reports over policies and credential graphs.

Policy Comprehension (Section 4.2) "promotes ease of understanding of the
current state of the overall system security configuration"; these helpers
render that understanding:

- :func:`effective_permissions` / :func:`effective_permissions_report` —
  the user-by-user expansion of an RBAC policy (who can actually do what,
  through which role);
- :func:`delegation_graph` / :func:`delegation_graph_dot` — the KeyNote
  delegation graph as a :mod:`networkx` digraph and as Graphviz DOT text
  for documentation (networkx is imported on first use, not with this
  module).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.keynote.credential import Credential
from repro.keynote.licensees import licensees_to_text
from repro.obs.export import render_metrics
from repro.rbac.policy import RBACPolicy
from repro.util.text import format_table

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.obs import Observability
    from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class EffectivePermission:
    """One row of the expansion: user -> permission, with provenance."""

    user: str
    domain: str
    role: str
    object_type: str
    permission: str


def effective_permissions(policy: RBACPolicy) -> list[EffectivePermission]:
    """Join UserAssignment with HasPermission (hierarchy-aware)."""
    rows: list[EffectivePermission] = []
    for user in sorted(policy.users()):
        for domain_role in sorted(policy.roles_of(user)):
            for grant in sorted(policy.permissions_of(domain_role.domain,
                                                      domain_role.role)):
                rows.append(EffectivePermission(
                    user=user, domain=domain_role.domain,
                    role=domain_role.role,
                    object_type=grant.object_type,
                    permission=grant.permission))
    return rows


def effective_permissions_report(policy: RBACPolicy) -> str:
    """The expansion rendered as a table."""
    return format_table(
        ["User", "Via role", "ObjectType", "Permission"],
        [(row.user, f"{row.domain}/{row.role}", row.object_type,
          row.permission)
         for row in effective_permissions(policy)])


def delegation_graph(credentials: list[Credential]) -> "nx.DiGraph":
    """The delegation digraph: authorizer -> licensee principals.

    Edges carry the credential's conditions text; POLICY is the root node.
    """
    import networkx as nx

    graph = nx.DiGraph()
    for credential in credentials:
        source = "POLICY" if credential.is_policy else credential.authorizer
        graph.add_node(source)
        for principal in sorted(credential.principals()):
            graph.add_edge(source, principal,
                           conditions=credential.conditions_text,
                           licensees=licensees_to_text(credential.licensees))
    return graph


def delegation_paths(credentials: list[Credential], target: str,
                     ) -> list[list[str]]:
    """All simple delegation paths from POLICY to ``target``."""
    import networkx as nx

    graph = delegation_graph(credentials)
    if "POLICY" not in graph or target not in graph:
        return []
    return [list(path) for path in
            nx.all_simple_paths(graph, "POLICY", target)]


def metrics_report(registry: "MetricsRegistry") -> str:
    """A run's metrics rendered as a table, one row per instrument —
    the quantitative companion to the relation tables above."""
    return render_metrics(registry)


def observability_report(obs: "Observability") -> str:
    """Metrics table plus a one-line trace summary for one observed run."""
    correlations = obs.tracer.correlations()
    header = (f"{len(obs.tracer.spans)} spans across "
              f"{len(correlations)} correlated trace(s); "
              f"simulated clock at {obs.clock.now():.2f}s")
    return header + "\n\n" + metrics_report(obs.metrics)


def conformance_report(report: dict) -> str:
    """Text rendering of a ``CONFORMANCE_5`` differential-testing report."""
    lines = [f"conformance: {report['agreements']}/{report['comparisons']} "
             f"comparisons agree over {report['cases']} cases "
             f"(seed {report['seed']})",
             f"  known-lossy disagreements: {report['known_lossy']}",
             f"  counterexamples: {len(report['counterexamples'])}"]
    rows = [(check, stats["cases"], stats["comparisons"],
             stats["agreements"], stats["known_lossy"],
             stats["counterexamples"])
            for check, stats in sorted(report["per_check"].items())]
    lines.append("")
    lines.append(format_table(["check", "cases", "comparisons", "agreements",
                               "known-lossy", "counterexamples"], rows))
    for example in report["counterexamples"]:
        first = example["disagreements"][0] if example["disagreements"] else {}
        lines.append(f"  FAIL {example['check']} case {example['index']}: "
                     f"{first.get('comparison', '?')} expected "
                     f"{first.get('expected')!r} got {first.get('actual')!r}")
    return "\n".join(lines)


def durability_report(report: dict) -> str:
    """Text rendering of a ``DURABILITY_6`` crash-recovery sweep report."""
    lines = [f"durability: {report['crashes']}/{report['crash_runs']} "
             f"injected crashes recovered over {report['seeds']} seeds "
             f"({len(report['write_sites'])} write sites)",
             f"  acknowledged updates lost: {report['acked_loss_total']}",
             f"  post-recovery oracle disagreements: "
             f"{report['oracle_disagreements_total']}"]
    rows = [(site, stats["visits"], stats["crashes"],
             stats["matched_inflight"], stats["acked_loss"],
             stats["oracle_disagreements"])
            for site, stats in sorted(report["sites"].items())]
    lines.append("")
    lines.append(format_table(
        ["write site", "visits", "crashes", "in-flight survived",
         "acked loss", "oracle diffs"], rows))
    for failure in report["failures"]:
        lines.append(f"  FAIL seed {failure['seed']} at "
                     f"{failure['site']} (hit {failure['hit']}): "
                     f"{failure['kind']}")
    return "\n".join(lines)


def delegation_graph_dot(credentials: list[Credential]) -> str:
    """Graphviz DOT text for the delegation graph."""
    graph = delegation_graph(credentials)
    lines = ["digraph delegation {", '    rankdir=LR;',
             '    "POLICY" [shape=box];']
    for source, dest, data in sorted(graph.edges(data=True)):
        conditions = data.get("conditions", "").replace('"', '\\"')
        lines.append(f'    "{source}" -> "{dest}" '
                     f'[label="{conditions[:60]}"];')
    lines.append("}")
    return "\n".join(lines)
