"""Critical-path analyses and the batch throughput model.

Three methods ship side by side:

* ``approximate_cp`` - the operators in topological order, less the
  sinks (operators with no consumed results).  Cheap: it covers every
  op of a longest path except its final sink.
* ``paper_exact_cp`` - the longest unweighted shortest path over all
  (source argument, sink operator) pairs: one BFS per source, then one
  parent-chain walk.  A lower bound: shortest paths can bypass long
  chains through sibling edges.
* ``longest_path_cp`` - exact DAG longest path by operator count, from
  one height per op and a single walk; the reference circuit depth.

All methods use fixed id-ordered tie-breaking, so results are
deterministic across runs.  Reported depth counts compute operators
only; the source argument never counts toward depth.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum, unique
from typing import NamedTuple

from .ir import CircuitGraph, duplicate_id_message
from .cost import FabricConfig


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


def topological_sort(graph: CircuitGraph) -> list[int]:
    """Operator ids in dependency order (Kahn's algorithm; the ready set
    is popped in ascending operator id order).  Raises ValueError on a
    cyclic graph or repeated operator ids, which validate() reports
    beforehand."""
    if graph.topo_order is None:
        raise ValueError(duplicate_id_message(graph) or "graph contains a dependency cycle")
    return list(graph.topo_order)


def _result(method: Method, ops: list[int], unit_time: float) -> CriticalPathResult:
    return CriticalPathResult(method, tuple(ops), len(ops), len(ops) * unit_time)


def approximate_cp(graph: CircuitGraph, unit_time: float = 1.0) -> CriticalPathResult:
    """The non-sink operators in topological order: every op of a
    longest path except its final sink, hence longest depth <=
    approximate depth + 1."""
    sinks = graph.sink_op_ids
    ops = [oid for oid in topological_sort(graph) if oid not in sinks]
    return _result(Method.APPROXIMATE, ops, unit_time)


def paper_exact_cp(graph: CircuitGraph, unit_time: float = 1.0) -> CriticalPathResult:
    """Longest of the pairwise shortest source-to-sink paths.

    One BFS per source (argument order, neighbors in ascending id) gives
    each op a parent and a depth; sinks scan in ascending id and only a
    strictly deeper one replaces the best, whose parent chain is walked
    once.  The reported ops exclude the source argument.
    """
    op_succs = graph.op_succs
    sinks = sorted(graph.sink_op_ids)
    best_depth = 0
    best_parent: dict[int, tuple[int, int]] = {}
    best_sink = -1
    for src in graph.argument_ids:
        parent = {oid: (src, 1) for oid in graph.consumers.get(src, ())}
        queue = deque(parent)
        while queue:
            oid = queue.popleft()
            depth = parent[oid][1] + 1
            for succ in op_succs[oid]:
                if succ not in parent:
                    parent[succ] = (oid, depth)
                    queue.append(succ)
        for sink in sinks:
            if sink in parent and parent[sink][1] > best_depth:
                best_depth, best_parent, best_sink = parent[sink][1], parent, sink
    ops: list[int] = []
    node = best_sink
    for _ in range(best_depth):
        ops.append(node)
        node = best_parent[node][0]
    ops.reverse()
    return _result(Method.PAPER_EXACT, ops, unit_time)


def longest_path_cp(graph: CircuitGraph, unit_time: float = 1.0) -> CriticalPathResult:
    """Exact maximum-op-count source-to-sink path; ties pick the
    lexicographically smallest op-id sequence.  An op's height is the op
    count of its longest path down to a sink; the walk starts at the
    smallest op of greatest height and steps to the smallest successor
    one height lower."""
    op_succs = graph.op_succs
    height: dict[int, int] = {}
    for oid in reversed(topological_sort(graph)):
        height[oid] = 1 + max((height[s] for s in op_succs[oid]), default=0)
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
    and is an error.
    """
    if depth == 0:
        raise ValueError("no compute ops on critical path (depth is zero)")
    if depth < 0:
        raise ValueError(f"depth must be positive, got {depth}")
    if batch < 1:
        raise ValueError(f"batch must be positive, got {batch}")
    return ThroughputResult(depth * config.unit_time_per_gate, batch // depth)
