"""Critical-path analyses and the batch throughput model.

Three methods ship side by side:

* ``approximate_cp`` - the operators in topological order, less the
  sinks (operators with no consumed results).  Cheap: it covers every
  op of a longest path except its final sink.
* ``paper_exact_cp`` - for every (source argument, sink operator) pair,
  take the unweighted shortest path through the dependency graph and
  keep the longest such path.  This is a lower bound: shortest paths
  can bypass long chains through sibling edges.
* ``longest_path_cp`` - exact DAG longest path by operator count; the
  reference answer for circuit depth.

All methods use fixed id-ordered tie-breaking, so results are
deterministic across runs.  Reported depth counts compute operators
only; the source argument never counts toward depth.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum, unique
from typing import NamedTuple

from .ir import CircuitGraph
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
    cyclic graph, which validate() reports beforehand."""
    if graph.topo_order is None:
        raise ValueError("graph contains a dependency cycle")
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

    BFS explores neighbors in ascending id order; sources iterate in
    argument declaration order and sinks in ascending operator id, and
    only a strictly longer path replaces the current best.  Unreachable
    pairs are skipped.  The reported ops exclude the source argument.
    """
    op_succs = graph.op_succs
    sinks = sorted(graph.sink_op_ids)
    best_ops: list[int] = []
    best_nodes = 0
    for src in graph.argument_ids:
        parent: dict[int, int | None] = dict.fromkeys(graph.consumers.get(src, ()))
        queue = deque(parent)
        while queue:
            oid = queue.popleft()
            for succ in op_succs[oid]:
                if succ not in parent:
                    parent[succ] = oid
                    queue.append(succ)
        for sink in sinks:
            if sink not in parent:
                continue
            path: list[int] = []
            node: int | None = sink
            while node is not None:
                path.append(node)
                node = parent[node]
            path.reverse()
            if len(path) + 1 > best_nodes:  # +1 for the source argument
                best_nodes = len(path) + 1
                best_ops = path
    return _result(Method.PAPER_EXACT, best_ops, unit_time)


def longest_path_cp(graph: CircuitGraph, unit_time: float = 1.0) -> CriticalPathResult:
    """Exact maximum-op-count source-to-sink path via DAG dynamic
    programming; ties pick the lexicographically smallest op-id
    sequence."""
    best: dict[int, tuple[int, tuple[int, ...]]] = {}
    for oid in topological_sort(graph):
        preds = graph.op_preds[oid]
        if not preds:
            best[oid] = (1, (oid,))
            continue
        length = max(best[p][0] for p in preds) + 1
        seq = min(best[p][1] for p in preds if best[p][0] == length - 1) + (oid,)
        best[oid] = (length, seq)
    best_len = 0
    best_seq: tuple[int, ...] = ()
    for sink in sorted(graph.sink_op_ids):
        length, seq = best[sink]
        if length > best_len or (length == best_len and length > 0 and seq < best_seq):
            best_len, best_seq = length, seq
    return _result(Method.LONGEST_PATH, list(best_seq), unit_time)


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
