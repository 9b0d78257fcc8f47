"""Critical-path analyses and the batch throughput model.

Three methods ship side by side:

* ``approximate_cp`` - the operators in topological order, less the
  sinks (operators with no consumed results).  Cheap: it covers every
  op of a longest path except its final sink.
* ``paper_exact_cp`` - the longest unweighted shortest path over all
  (source argument, sink operator) pairs.  A source's BFS reaches no
  sink deeper than the greatest height among its consumers, so sources
  are searched in decreasing bound and only while one can still beat
  the deepest sink found, or tie it from an earlier argument; then one
  parent-chain walk.  A lower bound: shortest paths can bypass long
  chains through sibling edges.
* ``longest_path_cp`` - exact DAG longest path by operator count, from
  one height per op and a single walk; the reference circuit depth.

paper-exact and longest both read the height table cached on the graph
(``CircuitGraph.op_heights``), so a run of both computes it once.

All methods use fixed id-ordered tie-breaking, so results are
deterministic across runs.  Reported depth counts compute operators
only; the source argument never counts toward depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import NamedTuple

from .ir import CircuitGraph, duplicate_id_message
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


def _order_error(graph: CircuitGraph) -> ValueError:
    return ValueError(duplicate_id_message(graph) or "graph contains a dependency cycle")


def topological_sort(graph: CircuitGraph) -> list[int]:
    """Operator ids in dependency order (Kahn's algorithm; the ready set
    is popped in ascending operator id order).  Raises ValueError on a
    cyclic graph or repeated operator ids, which validate() reports
    beforehand."""
    if graph.topo_order is None:
        raise _order_error(graph)
    return list(graph.topo_order)


def _heights(graph: CircuitGraph) -> dict[int, int]:
    """graph.op_heights; the ValueError of topological_sort when the
    graph has no topological order."""
    if graph.op_heights is None:
        raise _order_error(graph)
    return graph.op_heights


def _result(method: Method, ops: list[int], unit_time: float) -> CriticalPathResult:
    latency = reportable(len(ops) * unit_time, "latency_unit_time")
    return CriticalPathResult(method, tuple(ops), len(ops), latency)


def approximate_cp(graph: CircuitGraph, unit_time: float = 1.0) -> CriticalPathResult:
    """The non-sink operators in topological order: every op of a
    longest path except its final sink, hence longest depth <=
    approximate depth + 1."""
    sinks = graph.sink_op_ids
    ops = [oid for oid in topological_sort(graph) if oid not in sinks]
    return _result(Method.APPROXIMATE, ops, unit_time)


def _bfs(
    first: tuple[int, ...], op_succs: dict[int, tuple[int, ...]]
) -> tuple[int, int, dict[int, int]]:
    """BFS from the ops `first` (depth 1, in order; neighbors ascending).

    Returns the greatest depth at which it reaches a sink, the smallest
    sink at that depth, and each reached op's parent (-1 for `first`).
    """
    parent = dict.fromkeys(first, -1)
    queue = list(parent)
    depth, level_end = 1, len(queue)
    best_depth, best_sink = 0, -1
    for i, oid in enumerate(queue):  # the FIFO, iterated while it grows
        if i == level_end:
            depth, level_end = depth + 1, len(queue)
        succs = op_succs[oid]
        if succs:
            for succ in succs:
                if succ not in parent:
                    parent[succ] = oid
                    queue.append(succ)
        elif depth > best_depth or oid < best_sink:
            best_depth, best_sink = depth, oid
    return best_depth, best_sink, parent


def paper_exact_cp(graph: CircuitGraph, unit_time: float = 1.0) -> CriticalPathResult:
    """Longest of the pairwise shortest source-to-sink paths.

    A source's BFS reaches no sink deeper than its bound, the greatest
    height among its consumers (0 with none).  Sources are searched in
    decreasing bound, ties in argument order, until the next bound is
    below D, the deepest sink depth seen, or equals D with no winner yet
    or with its argument after the winner's; D is then exact.  The first
    argument whose BFS reaches a sink at depth D wins (arguments with a
    bound below D are skipped), and the parent chain of its smallest
    sink at D is walked once.  That is the result of one BFS per source
    in argument order, sinks in ascending id, where only a strictly
    deeper sink replaces the best.  The reported ops exclude the source
    argument.
    """
    height = _heights(graph)
    op_succs = graph.op_succs
    first = [graph.consumers.get(a, ()) for a in graph.argument_ids]
    bound = [max([height[c] for c in ops], default=0) for ops in first]
    depth = 0
    best: tuple[int, int, dict[int, int]] | None = None  # argument index, sink, parents
    for i in sorted(range(len(first)), key=bound.__getitem__, reverse=True):
        # A bound of D can only tie, and a tie goes to the earlier argument.
        if bound[i] < depth or bound[i] == depth and (best is None or i > best[0]):
            break
        d, sink, parent = _bfs(first[i], op_succs)
        if d > depth or (d == depth and i < best[0]):
            depth, best = d, (i, sink, parent)
    ops: list[int] = []
    if best is not None:
        _, node, parent = best
        for _ in range(depth):
            ops.append(node)
            node = parent[node]
        ops.reverse()
    return _result(Method.PAPER_EXACT, ops, unit_time)


def longest_path_cp(graph: CircuitGraph, unit_time: float = 1.0) -> CriticalPathResult:
    """Exact maximum-op-count source-to-sink path; ties pick the
    lexicographically smallest op-id sequence.  The walk starts at the
    smallest op of greatest height (CircuitGraph.op_heights) and steps
    to the smallest successor one height lower."""
    op_succs = graph.op_succs
    height = _heights(graph)
    ops: list[int] = []
    node = min(height, key=lambda oid: (-height[oid], oid), default=None)
    while node is not None:
        ops.append(node)
        node = next((s for s in op_succs[node] if height[s] == height[node] - 1), None)
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
