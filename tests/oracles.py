"""Test-only oracles: the critical-path methods and the topological
order as they were before the graph index moved onto CircuitGraph.

Each function below is a verbatim copy of the library code it replaced
(each builds its own adjacency), kept so that differential tests can
compare the library against it.  Change nothing here when the library
changes; the point is that these stay fixed.
"""

from __future__ import annotations

import heapq
from collections import deque

from fabric_est.critical_path import CriticalPathResult, Method
from fabric_est.ir import CircuitGraph, ValueId


def _result(method: Method, ops: list[int], unit_time: float) -> CriticalPathResult:
    return CriticalPathResult(method, tuple(ops), len(ops), len(ops) * unit_time)


def operator_topo_order(graph: CircuitGraph) -> list[int] | None:
    """Kahn's algorithm over operators, ready set popped in id order.

    Returns the operator ids in dependency order, or None when the
    operand edges contain a cycle.
    """
    producer_id: dict[ValueId, int] = {}
    for op in graph.operators:
        for r in op.results:
            producer_id.setdefault(r, op.id)
    succs: dict[int, list[int]] = {op.id: [] for op in graph.operators}
    indeg: dict[int, int] = {op.id: 0 for op in graph.operators}
    for op in graph.operators:
        for v in op.operands:
            p = producer_id.get(v)
            if p is not None and p != op.id:
                succs[p].append(op.id)
                indeg[op.id] += 1
    ready = [oid for oid, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        oid = heapq.heappop(ready)
        order.append(oid)
        for succ in succs[oid]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                heapq.heappush(ready, succ)
    if len(order) != len(graph.operators):
        return None
    return order


def topological_sort(graph: CircuitGraph) -> list[int]:
    """Operator ids in dependency order (Kahn's algorithm; the ready set
    is popped in ascending operator id order).  Raises ValueError on a
    cyclic graph, which validate() reports beforehand."""
    order = operator_topo_order(graph)
    if order is None:
        raise ValueError("graph contains a dependency cycle")
    return order


def approximate_cp(graph: CircuitGraph, unit_time: float = 1.0) -> CriticalPathResult:
    """Topological walk over {argument values} + {operators}: drop the
    final element, drop sources and sinks, count what remains.

    The final element is always a sink, so this counts exactly the
    non-sink operators: every op of a longest path except its final
    sink, hence longest depth <= approximate depth + 1.

    Arguments have no predecessors, so the combined deterministic order
    is the argument values (declaration order) followed by the Kahn
    operator order.
    """
    order = topological_sort(graph)
    combined: list[tuple[bool, int]] = [(False, v) for v in graph.argument_ids]
    combined += [(True, oid) for oid in order]
    sinks = graph.sink_op_ids
    ops = [
        node
        for is_op, node in combined[:-1]
        if is_op and node not in sinks
    ]
    return _result(Method.APPROXIMATE, ops, unit_time)


def _dependency_succs(graph: CircuitGraph) -> tuple[dict[ValueId, list[int]], dict[int, list[int]]]:
    """Successor lists (sorted by id) for argument and operator nodes."""
    arg_succs = {
        vid: sorted(set(graph.consumers.get(vid, ()))) for vid in graph.argument_ids
    }
    op_succs: dict[int, list[int]] = {}
    for op in graph.operators:
        succ: set[int] = set()
        for r in op.results:
            succ.update(graph.consumers.get(r, ()))
        succ.discard(op.id)
        op_succs[op.id] = sorted(succ)
    return arg_succs, op_succs


def paper_exact_cp(graph: CircuitGraph, unit_time: float = 1.0) -> CriticalPathResult:
    """Longest of the pairwise shortest source-to-sink paths.

    BFS explores neighbors in ascending id order; sources iterate in
    argument declaration order and sinks in ascending operator id, and
    only a strictly longer path replaces the current best.  Unreachable
    pairs are skipped.  The reported ops exclude the source argument.
    """
    arg_succs, op_succs = _dependency_succs(graph)
    sinks = sorted(graph.sink_op_ids)
    best_ops: list[int] = []
    best_nodes = 0
    for src in graph.argument_ids:
        parent: dict[int, int | None] = {}
        queue: deque[int] = deque()
        for oid in arg_succs[src]:
            if oid not in parent:
                parent[oid] = None
                queue.append(oid)
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
    producers = graph.producers
    best: dict[int, tuple[int, tuple[int, ...]]] = {}
    for oid in topological_sort(graph):
        op = graph.operator(oid)
        preds = sorted(
            {producers[v].id for v in op.operands if v in producers} - {oid}
        )
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
