"""Condensed graphs [21]: the application model WebCom executes.

A condensed graph is a dataflow graph.  Each node has:

- an *operator*: either a named operation (ultimately a middleware
  component invocation) or a whole sub-graph — a **condensed node**, the
  model's namesake, which expands ("evaporates") when fired;
- *operand ports* ``0..arity-1`` that collect input tokens;
- *destinations*: (node, port) addresses its result token flows to.

A graph has named *entry ports* (where initial tokens enter) and a single
*exit node* whose result is the graph's value.  Morrison's model unifies
availability-driven (eager dataflow), coercion-driven (lazy, demand from the
exit) and control-driven (explicit sequencing) computation; the engine in
:mod:`repro.webcom.engine` implements all three over this structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

from repro.errors import GraphError

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

Operator = Union[str, "CondensedGraph"]


@dataclass(frozen=True)
class PortRef:
    """A destination address: operand port ``port`` of node ``node_id``."""

    node_id: str
    port: int


@dataclass
class GraphNode:
    """One node of a condensed graph."""

    node_id: str
    operator: Operator
    arity: int
    destinations: list[PortRef] = field(default_factory=list)
    #: optional placement constraint (see webcom.ide.PlacementSpec)
    placement: "object | None" = None

    @property
    def is_condensed(self) -> bool:
        """True if the operator is itself a graph."""
        return not isinstance(self.operator, str)

    @property
    def operator_name(self) -> str:
        """Display name of the operator."""
        if isinstance(self.operator, str):
            return self.operator
        return f"<{self.operator.name}>"


class CondensedGraph:
    """A condensed graph under construction or execution.

    >>> g = CondensedGraph("double-add")
    >>> _ = g.add_node("a", operator="add", arity=2)
    >>> _ = g.add_node("b", operator="double", arity=1)
    >>> g.connect("a", "b", 0)
    >>> g.entry("x", "a", 0)
    >>> g.entry("y", "a", 1)
    >>> g.set_exit("b")
    >>> g.validate()
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._nodes: dict[str, GraphNode] = {}
        #: entry name -> ports initial tokens flow to
        self._entries: dict[str, list[PortRef]] = {}
        self._exit: str | None = None

    # -- construction ---------------------------------------------------------

    def add_node(self, node_id: str, operator: Operator, arity: int,
                 placement: "object | None" = None) -> GraphNode:
        """Add a node.

        :raises GraphError: for duplicate ids or negative arity.
        """
        if node_id in self._nodes:
            raise GraphError(f"duplicate node id {node_id!r}")
        if arity < 0:
            raise GraphError(f"node {node_id!r} has negative arity")
        node = GraphNode(node_id=node_id, operator=operator, arity=arity,
                         placement=placement)
        self._nodes[node_id] = node
        return node

    def connect(self, source: str, target: str, port: int) -> None:
        """Wire ``source``'s result into operand ``port`` of ``target``.

        :raises GraphError: for unknown nodes or out-of-range ports.
        """
        if source not in self._nodes:
            raise GraphError(f"unknown source node {source!r}")
        target_node = self.node(target)
        if not 0 <= port < target_node.arity:
            raise GraphError(
                f"port {port} out of range for node {target!r} "
                f"(arity {target_node.arity})")
        self._nodes[source].destinations.append(PortRef(target, port))

    def entry(self, name: str, target: str, port: int) -> None:
        """Declare a graph input flowing to ``target``'s operand ``port``."""
        target_node = self.node(target)
        if not 0 <= port < target_node.arity:
            raise GraphError(
                f"port {port} out of range for node {target!r}")
        self._entries.setdefault(name, []).append(PortRef(target, port))

    def set_exit(self, node_id: str) -> None:
        """Declare the exit node (the graph's result)."""
        self.node(node_id)
        self._exit = node_id

    # -- access -------------------------------------------------------------------

    def node(self, node_id: str) -> GraphNode:
        """Look up a node.

        :raises GraphError: if absent.
        """
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id!r}") from None

    @property
    def nodes(self) -> dict[str, GraphNode]:
        """All nodes by id (live view; don't mutate)."""
        return self._nodes

    @property
    def entries(self) -> dict[str, list[PortRef]]:
        """Entry name -> destinations."""
        return self._entries

    @property
    def exit_node(self) -> str:
        """The exit node id.

        :raises GraphError: if none was declared.
        """
        if self._exit is None:
            raise GraphError(f"graph {self.name!r} has no exit node")
        return self._exit

    # -- analysis -----------------------------------------------------------------------

    def to_networkx(self) -> "nx.DiGraph":
        """The node-level dependency digraph (for analysis and display)."""
        import networkx as nx

        digraph = nx.DiGraph()
        digraph.add_nodes_from(self._nodes)
        for node in self._nodes.values():
            for dest in node.destinations:
                digraph.add_edge(node.node_id, dest.node_id)
        return digraph

    def validate(self) -> None:
        """Check structural sanity.

        :raises GraphError: for unfillable ports, dangling destinations,
            cycles, a missing exit, or an exit unreachable from the entries.
        """
        exit_id = self.exit_node
        filled: dict[str, set[int]] = {nid: set() for nid in self._nodes}
        for node in self._nodes.values():
            for dest in node.destinations:
                if dest.node_id not in self._nodes:
                    raise GraphError(
                        f"node {node.node_id!r} targets unknown node "
                        f"{dest.node_id!r}")
                filled[dest.node_id].add(dest.port)
        for refs in self._entries.values():
            for ref in refs:
                filled[ref.node_id].add(ref.port)
        for node in self._nodes.values():
            missing = set(range(node.arity)) - filled[node.node_id]
            if missing:
                raise GraphError(
                    f"node {node.node_id!r} has unfillable ports {sorted(missing)}")
        import networkx as nx

        digraph = self.to_networkx()
        if not nx.is_directed_acyclic_graph(digraph):
            cycle = nx.find_cycle(digraph)
            raise GraphError(f"graph has a cycle: {cycle}")
        entry_nodes = {ref.node_id for refs in self._entries.values()
                       for ref in refs}
        if entry_nodes:
            reachable = set(entry_nodes)
            for start in entry_nodes:
                reachable |= nx.descendants(digraph, start)
            if exit_id not in reachable:
                raise GraphError(
                    f"exit node {exit_id!r} is unreachable from the entries")
        for node in self._nodes.values():
            if node.is_condensed:
                node.operator.validate()

    def needed_for_exit(self) -> set[str]:
        """Node ids the exit transitively depends on (coercion-driven set)."""
        import networkx as nx

        digraph = self.to_networkx().reverse()
        exit_id = self.exit_node
        return {exit_id} | nx.descendants(digraph, exit_id)

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return f"CondensedGraph({self.name!r}, nodes={len(self._nodes)})"


def condense(name: str, subgraph: CondensedGraph, host_graph: CondensedGraph,
             node_id: str, arity: int) -> GraphNode:
    """Add ``subgraph`` to ``host_graph`` as a condensed node.

    The subgraph must have exactly ``arity`` entries; entry order is the
    sorted entry-name order.

    :raises GraphError: on arity mismatch.
    """
    if len(subgraph.entries) != arity:
        raise GraphError(
            f"condensed node {node_id!r} has arity {arity} but the subgraph "
            f"declares {len(subgraph.entries)} entries")
    return host_graph.add_node(node_id, operator=subgraph, arity=arity)
