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


# ---------------------------------------------------------------------------
# canonicalize and its rules as they were when fusion removed its own inner
# gates and renumbered through _rebuild, and paper-exact's pruned search as
# it was with a second loop for earlier tied arguments (renamed
# pruned_paper_exact_cp; it reads _heights, _bfs and _result through the
# critical_path module, so a test can count its BFS runs).  Verbatim
# otherwise; change nothing here when the library changes.

from collections import Counter
from dataclasses import replace

from fabric_est import critical_path
from fabric_est.ir import (
    OpKind,
    Operator,
    OpTag,
    TWO_INPUT_GATES,
    gate_output,
)


def _rebuild(graph: CircuitGraph, operators: list[Operator]) -> CircuitGraph:
    """Renumber ids to ordinals and drop names of vanished values."""
    renumbered = [replace(op, id=i) for i, op in enumerate(operators)]
    live: set[ValueId] = set(graph.argument_ids)
    for op in renumbered:
        live.update(op.operands)
        live.update(op.results)
    live.update(graph.returns)
    names = {v: n for v, n in graph.value_names.items() if v in live}
    return replace(graph, operators=tuple(renumbered), value_names=names)


def _eliminate_dead_ops(graph: CircuitGraph) -> tuple[CircuitGraph, bool]:
    """Drop operators none of whose results transitively reach a return."""
    producers = graph.producers
    live_ops: set[int] = set()
    stack = [producers[v].id for v in graph.returns if v in producers]
    while stack:
        oid = stack.pop()
        if oid not in live_ops:
            live_ops.add(oid)
            stack.extend(producers[v].id for v in graph.operator(oid).operands if v in producers)
    kept = [op for op in graph.operators if op.id in live_ops]
    if len(kept) == len(graph.operators):
        return graph, False
    return _rebuild(graph, kept), True


def _eliminate_double_negation(graph: CircuitGraph) -> tuple[CircuitGraph, bool]:
    """Rewire consumers of Not(Not(x)) to x; the Nots die separately."""
    producers = graph.producers
    repl: dict[ValueId, ValueId] = {}
    for op in graph.operators:
        if op.kind.tag is not OpTag.NOT:
            continue
        inner = producers.get(op.operands[0])
        if inner is not None and inner.kind.tag is OpTag.NOT:
            repl[op.results[0]] = inner.operands[0]
    if not repl:
        return graph, False

    def resolve(v: ValueId) -> ValueId:
        while v in repl:
            v = repl[v]
        return v

    new_ops = [
        replace(op, operands=tuple(resolve(v) for v in op.operands))
        for op in graph.operators
    ]
    new_returns = tuple(resolve(v) for v in graph.returns)
    return replace(graph, operators=tuple(new_ops), returns=new_returns), True


def _ordered_distinct(values: tuple[ValueId, ...]) -> list[ValueId]:
    seen: list[ValueId] = []
    for v in values:
        if v not in seen:
            seen.append(v)
    return seen


def _fused_kind(
    inner: Operator, outer: Operator, r_slot: int, inputs: list[ValueId]
) -> OpKind:
    """Brute-force the composite truth table over the distinct inputs.

    Mask bit i is the composite output for input combination i with
    operand 0 as the least-significant bit.  With a single distinct
    input the op is a Lut2 over a duplicated operand; only the diagonal
    index bits are reachable and the rest follow operand 0.
    """
    def composite(env: dict[ValueId, int]) -> int:
        inner_out = gate_output(inner.kind.tag, env[inner.operands[0]], env[inner.operands[1]])
        outer_args = [0, 0]
        outer_args[r_slot] = inner_out
        outer_args[1 - r_slot] = env[outer.operands[1 - r_slot]]
        return gate_output(outer.kind.tag, outer_args[0], outer_args[1])

    width = max(len(inputs), 2)
    mask = 0
    for i in range(1 << width):
        env = {v: (i >> slot) & 1 for slot, v in enumerate(inputs)}
        mask |= composite(env) << i
    return OpKind(OpTag.LUT2 if width == 2 else OpTag.LUT3, lut=mask)


def _fuse_single_use_gates(graph: CircuitGraph) -> tuple[CircuitGraph, bool]:
    """Fuse producer/consumer pairs of 2-input named gates into one LUT.

    Applies when the producer's result has exactly one use, is not
    returned, and the pair spans at most three distinct inputs (always
    true for such pairs).  LUT and lincomb ops never participate.
    """
    use_count = Counter(v for op in graph.operators for v in op.operands)
    returned = set(graph.returns)
    producers = graph.producers
    consumed: set[int] = set()
    fused: dict[int, Operator] = {}
    for outer in graph.operators:
        if outer.id in consumed or outer.kind.tag not in TWO_INPUT_GATES:
            continue
        for slot, r in enumerate(outer.operands):
            inner = producers.get(r)
            if (
                inner is None
                or inner.id in consumed
                or inner.id in fused
                or inner.kind.tag not in TWO_INPUT_GATES
                or use_count[r] != 1
                or r in returned
            ):
                continue
            inputs = _ordered_distinct(
                inner.operands + (outer.operands[1 - slot],)
            )
            kind = _fused_kind(inner, outer, slot, inputs)
            operands = tuple(inputs) if len(inputs) > 1 else (inputs[0], inputs[0])
            fused[outer.id] = Operator(
                outer.id, kind, operands, outer.results, outer.section
            )
            consumed.add(inner.id)
            break
    if not fused:
        return graph, False
    new_ops = [fused.get(op.id, op) for op in graph.operators if op.id not in consumed]
    return _rebuild(graph, new_ops), True


def canonicalize(graph: CircuitGraph) -> CircuitGraph:
    """Run dead-op elimination, double-negation elimination, and
    single-use gate fusion to a fixed point (in that order per round).

    Never increases the operator count and preserves evaluate()
    semantics on the returned values.
    """
    g = graph
    while True:
        g, changed_dce = _eliminate_dead_ops(g)
        g, changed_neg = _eliminate_double_negation(g)
        g, changed_fuse = _fuse_single_use_gates(g)
        if not (changed_dce or changed_neg or changed_fuse):
            return g


def pruned_paper_exact_cp(graph: CircuitGraph, unit_time: float = 1.0) -> CriticalPathResult:
    """Longest of the pairwise shortest source-to-sink paths.

    A source's BFS reaches no sink deeper than its bound, the greatest
    height among its consumers (0 with none).  Sources are searched in
    decreasing bound, ties in argument order, until the next bound is
    at most D, the deepest sink depth seen; D is then exact.  The first
    argument whose BFS reaches a sink at depth D wins (arguments with a
    bound below D are skipped), and the parent chain of its smallest
    sink at D is walked once.  That is the result of one BFS per source
    in argument order, sinks in ascending id, where only a strictly
    deeper sink replaces the best.  The reported ops exclude the source
    argument.
    """
    height = critical_path._heights(graph)
    op_succs = graph.op_succs
    first = [graph.consumers.get(a, ()) for a in graph.argument_ids]
    bound = [max([height[c] for c in ops], default=0) for ops in first]
    searched: set[int] = set()
    depth = 0
    best: tuple[int, int, dict[int, int]] | None = None  # argument index, sink, parents
    for i in sorted(range(len(first)), key=bound.__getitem__, reverse=True):
        if bound[i] <= depth:
            break
        searched.add(i)
        d, sink, parent = critical_path._bfs(first[i], op_succs)
        if d > depth or (d == depth and i < best[0]):
            depth, best = d, (i, sink, parent)
    # An earlier argument not yet searched can still tie the winner.
    for i in range(best[0] if best else 0):
        if bound[i] >= depth and i not in searched:
            d, sink, parent = critical_path._bfs(first[i], op_succs)
            if d == depth:
                best = (i, sink, parent)
                break
    ops: list[int] = []
    if best is not None:
        _, node, parent = best
        for _ in range(depth):
            ops.append(node)
            node = parent[node]
        ops.reverse()
    return critical_path._result(Method.PAPER_EXACT, ops, unit_time)
