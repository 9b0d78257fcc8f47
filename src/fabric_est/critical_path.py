"""Critical-path analyses and the batch throughput model.

Three methods ship side by side:

* ``approximate_cp`` - the operators in topological order, less the
  sinks (operators with no consumed results).  Cheap: it covers every
  op of a longest path except its final sink.
* ``paper_exact_cp`` - the longest unweighted shortest path over all
  (source argument, sink operator) pairs, ranked by the key (depth,
  -argument index).  A source's BFS reaches no sink deeper than the
  greatest height among its consumers, so sources are searched in
  decreasing bound while one can still beat the best key; then one
  parent-chain walk.  A lower bound: shortest paths can bypass long
  chains through sibling edges.
* ``longest_path_cp`` - exact DAG longest path by operator count, from
  one height per op and a single walk; the reference circuit depth.

All three read the graph's one ``Topology``; paper-exact and longest
share its heights, so a run of both computes them once.  On a cycle,
or op ids that are not a permutation, each lets the Topology's
ValueError through.

All methods use fixed id-ordered tie-breaking, so results are
deterministic across runs.  Reported depth counts compute operators
only; the source argument never counts toward depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import NamedTuple

from .ir import CircuitGraph
from .cost import FabricConfig, reportable


@unique
class Method(Enum):
    APPROXIMATE = "approx"
    PAPER_EXACT = "paper-exact"
    LONGEST_PATH = "longest"


@dataclass(frozen=True)
class CriticalPathResult:
    """Outcome of one method: the compute ops it counts, their number,
    and the resulting latency in gate unit times."""

    method: Method
    ops: tuple[int, ...]
    depth: int
    latency_unit_time: float


class ThroughputResult(NamedTuple):
    latency_unit_time: float
    outputs_per_batch_window: int


def _heights(graph: CircuitGraph) -> tuple[int, ...]:
    """The Topology's heights, or its ValueError when there is no order."""
    return graph.topology.heights


def _result(method: Method, ops: list[int], unit_time: float) -> CriticalPathResult:
    latency = reportable(len(ops) * unit_time, "latency_unit_time")
    return CriticalPathResult(method, tuple(ops), len(ops), latency)


def approximate_cp(graph: CircuitGraph, unit_time: float = 1.0) -> CriticalPathResult:
    """The non-sink operators in topological order: every op of a
    longest path except its final sink, hence longest depth <=
    approximate depth + 1."""
    sinks = graph.topology.sinks
    ops = [oid for oid in graph.topology.order if oid not in sinks]
    return _result(Method.APPROXIMATE, ops, unit_time)


def _bfs(
    first: tuple[int, ...], succs: tuple[tuple[int, ...], ...]
) -> tuple[int, int, list[int | None]]:
    """BFS from the ops `first` (depth 1, in order; neighbors ascending).

    Returns the greatest depth at which it reaches a sink, the smallest
    sink at that depth, and the parent list by op id (-1 for `first`)."""
    parent: list[int | None] = [None] * len(succs)
    for oid in first:
        parent[oid] = -1
    queue = list(first)
    depth, level_end = 1, len(queue)
    best_depth, best_sink = 0, -1
    for i, oid in enumerate(queue):  # the FIFO, iterated while it grows
        if i == level_end:
            depth, level_end = depth + 1, len(queue)
        below = succs[oid]
        if below:
            for succ in below:
                if parent[succ] is None:
                    parent[succ] = oid
                    queue.append(succ)
        elif depth > best_depth or oid < best_sink:
            best_depth, best_sink = depth, oid
    return best_depth, best_sink, parent


def paper_exact_cp(graph: CircuitGraph, unit_time: float = 1.0) -> CriticalPathResult:
    """Longest of the pairwise shortest source-to-sink paths.

    Each source ranks by the key (d, -argument index), d being the depth
    of the deepest sink its BFS reaches, so the deepest wins and a tie
    goes to the earlier argument.  No d exceeds the source's bound, the
    greatest height among its consumers (0 with none).  Sources are
    searched in decreasing bound, ties in argument order, until a
    (bound, -index) cannot beat the best key, which starts at (0, 1);
    then the parent chain of the winner's smallest sink at its depth is
    walked once.  That is the result of one BFS per source in argument
    order, sinks in ascending id, where only a strictly deeper sink
    replaces the best.  The reported ops exclude the source argument.
    """
    height = _heights(graph)
    topology = graph.topology
    succs = topology.successors
    first = [topology.consumers.get(a, ()) for a in graph.argument_ids]
    bound = [max([height[c] for c in ops], default=0) for ops in first]
    key, node, parent = (0, 1), -1, []  # the winner's key, sink and parents
    for i in sorted(range(len(first)), key=bound.__getitem__, reverse=True):
        if (bound[i], -i) <= key:
            break
        d, sink, parents = _bfs(first[i], succs)
        if (d, -i) > key:
            key, node, parent = (d, -i), sink, parents
    ops: list[int] = []
    for _ in range(key[0]):
        ops.append(node)
        node = parent[node]
    ops.reverse()
    return _result(Method.PAPER_EXACT, ops, unit_time)


def longest_path_cp(graph: CircuitGraph, unit_time: float = 1.0) -> CriticalPathResult:
    """Exact maximum-op-count source-to-sink path; ties pick the
    lexicographically smallest op-id sequence.  The walk starts at the
    smallest op of greatest height (Topology.heights) and steps to the
    smallest successor one height lower."""
    height = _heights(graph)
    succs = graph.topology.successors
    ops: list[int] = []
    node = height.index(max(height)) if height else None
    while node is not None:
        ops.append(node)
        node = next((s for s in succs[node] if height[s] == height[node] - 1), None)
    return _result(Method.LONGEST_PATH, ops, unit_time)


def compute(graph: CircuitGraph, method: Method, unit_time: float = 1.0) -> CriticalPathResult:
    if method is Method.APPROXIMATE:
        return approximate_cp(graph, unit_time)
    if method is Method.PAPER_EXACT:
        return paper_exact_cp(graph, unit_time)
    return longest_path_cp(graph, unit_time)


def throughput(depth: int, batch: int, config: FabricConfig) -> ThroughputResult:
    """Pipeline figures for a circuit of the given depth on a batch.

    Latency is depth gate-times; a batch window drains floor(batch /
    depth) outputs per window.  A depth of zero has no pipeline to fill
    and is an error, and a latency too large for a float a ConfigError.
    """
    if depth == 0:
        raise ValueError("no compute ops on critical path (depth is zero)")
    if depth < 0:
        raise ValueError(f"depth must be positive, got {depth}")
    if batch < 1:
        raise ValueError(f"batch must be positive, got {batch}")
    latency = reportable(depth * config.unit_time_per_gate, "latency_unit_time")
    return ThroughputResult(latency, batch // depth)
