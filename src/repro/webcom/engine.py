"""The condensed-graph execution engine.

Implements Morrison's three firing disciplines [21]:

- **availability-driven** (eager): every node whose operands are all present
  fires;
- **coercion-driven** (lazy): only nodes the exit transitively demands fire;
- **control-driven**: like eager, but nodes fire one at a time in a
  deterministic sequence (for components with side effects).

Executing an operator is delegated to an *executor* callable — in plain use
a local function table, in Secure WebCom the master's scheduler, which is how
the security mediation gets between "fireable" and "fired".  Condensed nodes
evaporate into a nested engine run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.errors import GraphError, SchedulingError
from repro.webcom.graph import CondensedGraph, GraphNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

#: executor(node, args) -> result
Executor = Callable[[GraphNode, tuple], Any]

#: batch_executor([(node, args), ...]) -> [result, ...] in the same order
BatchExecutor = Callable[[list], list]


class EvaluationMode(enum.Enum):
    """The firing discipline."""

    AVAILABILITY = "availability"  # eager dataflow
    COERCION = "coercion"          # lazy, demand-driven from the exit
    CONTROL = "control"            # sequential, deterministic order


@dataclass
class ExecutionTrace:
    """What an engine run did (for tests, benchmarks and the IDE).

    ``fired`` lists only nodes this run actually executed; nodes whose
    results were restored from a failover checkpoint appear in ``restored``
    instead (their values still land in ``results``).
    """

    fired: list[str] = field(default_factory=list)
    results: dict[str, Any] = field(default_factory=dict)
    restored: list[str] = field(default_factory=list)

    def fired_count(self) -> int:
        return len(self.fired)


class GraphEngine:
    """Executes one condensed graph to completion.

    >>> g = CondensedGraph("inc")
    >>> _ = g.add_node("n", operator="inc", arity=1)
    >>> g.entry("x", "n", 0)
    >>> g.set_exit("n")
    >>> engine = GraphEngine(g, executor=lambda node, args: args[0] + 1)
    >>> engine.run({"x": 41})
    42
    """

    def __init__(self, graph: CondensedGraph, executor: Executor,
                 mode: EvaluationMode = EvaluationMode.AVAILABILITY,
                 obs: "Observability | None" = None,
                 batch_executor: "BatchExecutor | None" = None) -> None:
        graph.validate()
        self.graph = graph
        self.executor = executor
        self.mode = mode
        self.obs = obs
        #: when set, whole wavefronts of plain (non-condensed) nodes are
        #: handed over in one call instead of one executor call per node —
        #: safe because every fireable node already holds all its operands,
        #: so intra-wavefront results cannot change the batch's inputs.
        #: CONTROL mode never batches (it is strictly one node at a time).
        self.batch_executor = batch_executor
        self.trace = ExecutionTrace()

    def run(self, inputs: Mapping[str, Any], *,
            resume_from: Mapping[str, Any] | None = None,
            on_node_fired: "Callable[[str, Any], None] | None" = None) -> Any:
        """Execute the graph on ``inputs`` and return the exit node's result.

        The trace is reset on every call, so repeated runs (e.g.
        re-execution after failover) report the firing counts of that run
        alone.

        :param resume_from: node id -> result of nodes already completed
            (e.g. from a failover checkpoint); they are restored instead of
            re-fired.
        :param on_node_fired: callback ``(node_id, result)`` invoked after
            each live firing — checkpointing hooks in here.
        :raises GraphError: if inputs don't match the declared entries, or
            execution stalls before the exit fires.
        """
        declared = set(self.graph.entries)
        provided = set(inputs)
        if declared != provided:
            raise GraphError(
                f"graph {self.graph.name!r} expects inputs {sorted(declared)}, "
                f"got {sorted(provided)}")

        self.trace = ExecutionTrace()
        operands: dict[str, dict[int, Any]] = {
            node_id: {} for node_id in self.graph.nodes}
        for name, refs in self.graph.entries.items():
            for ref in refs:
                operands[ref.node_id][ref.port] = inputs[name]

        fired: set[str] = set()
        for node_id, result in dict(resume_from or {}).items():
            if node_id not in self.graph.nodes:
                continue
            fired.add(node_id)
            self.trace.restored.append(node_id)
            self.trace.results[node_id] = result
            for dest in self.graph.node(node_id).destinations:
                operands[dest.node_id][dest.port] = result
        needed = (self.graph.needed_for_exit()
                  if self.mode is EvaluationMode.COERCION
                  else set(self.graph.nodes))
        exit_id = self.graph.exit_node

        while exit_id not in fired:
            fireable = sorted(
                node_id for node_id, node in self.graph.nodes.items()
                if node_id not in fired
                and node_id in needed
                and len(operands[node_id]) == node.arity)
            if not fireable:
                stalled = sorted(set(needed) - fired)
                raise GraphError(
                    f"execution stalled; unfired needed nodes: {stalled}")
            if self.mode is EvaluationMode.CONTROL:
                fireable = fireable[:1]  # strictly one at a time
            batch_results = self._fire_wavefront(fireable, operands)
            for node_id in fireable:
                node = self.graph.node(node_id)
                args = tuple(operands[node_id][port]
                             for port in range(node.arity))
                if node_id in batch_results:
                    result = batch_results[node_id]
                else:
                    result = self._fire(node, args)
                fired.add(node_id)
                self.trace.fired.append(node_id)
                self.trace.results[node_id] = result
                if on_node_fired is not None:
                    on_node_fired(node_id, result)
                for dest in node.destinations:
                    operands[dest.node_id][dest.port] = result
        return self.trace.results[exit_id]

    def _fire_wavefront(self, fireable: list[str],
                        operands: dict[str, dict[int, Any]]) -> dict[str, Any]:
        """Fire a wavefront's plain nodes through the batch executor.

        Returns {node_id: result} for the nodes it handled; condensed nodes
        (which evaporate into nested runs) and singleton wavefronts stay on
        the per-node path.
        """
        if (self.batch_executor is None
                or self.mode is EvaluationMode.CONTROL):
            return {}
        plain = [node_id for node_id in fireable
                 if not self.graph.node(node_id).is_condensed]
        if len(plain) < 2:
            return {}
        items = []
        for node_id in plain:
            node = self.graph.node(node_id)
            items.append((node, tuple(operands[node_id][port]
                                      for port in range(node.arity))))
        if self.obs is None:
            results = self.batch_executor(items)
        else:
            clock = self.obs.clock
            with self.obs.tracer.span("engine.fire_batch", size=len(items),
                                      nodes=",".join(plain)):
                started = clock.now()
                results = self.batch_executor(items)
                elapsed = clock.now() - started
            # Every node of the batch waited for the whole flight: one
            # sample each, the batch's duration.
            latency = self.obs.metrics.histogram("engine.node_latency")
            for _ in items:
                latency.observe(elapsed)
            self.obs.metrics.counter("engine.fired").inc(len(items))
        if len(results) != len(items):
            raise SchedulingError(
                f"batch executor returned {len(results)} results "
                f"for {len(items)} nodes")
        return {node_id: result for node_id, result in zip(plain, results)}

    def _fire(self, node: GraphNode, args: tuple) -> Any:
        if self.obs is None:
            return self._fire_inner(node, args)
        with self.obs.tracer.span("engine.fire", node=node.node_id,
                                  operator=node.operator_name):
            with self.obs.metrics.time("engine.node_latency"):
                result = self._fire_inner(node, args)
        self.obs.metrics.counter("engine.fired").inc()
        return result

    def _fire_inner(self, node: GraphNode, args: tuple) -> Any:
        if node.is_condensed:
            # Condensation: the node evaporates into a nested run.  The
            # subgraph's entries bind positionally in sorted-name order.
            subgraph: CondensedGraph = node.operator  # type: ignore[assignment]
            names = sorted(subgraph.entries)
            if len(names) != len(args):
                raise GraphError(
                    f"condensed node {node.node_id!r}: {len(args)} operands "
                    f"for {len(names)} subgraph entries")
            nested = GraphEngine(subgraph, self.executor, self.mode,
                                 obs=self.obs,
                                 batch_executor=self.batch_executor)
            result = nested.run(dict(zip(names, args)))
            self.trace.fired.extend(
                f"{node.node_id}/{inner}" for inner in nested.trace.fired)
            return result
        return self.executor(node, args)


def function_table_executor(table: Mapping[str, Callable[..., Any]],
                            ) -> Executor:
    """An executor backed by a local function table (no middleware).

    :raises SchedulingError: at fire time for unknown operators.
    """

    def execute(node: GraphNode, args: tuple) -> Any:
        operator = node.operator
        assert isinstance(operator, str)
        fn = table.get(operator)
        if fn is None:
            raise SchedulingError(f"no implementation for operator "
                                  f"{operator!r} (node {node.node_id!r})")
        return fn(*args)

    return execute
