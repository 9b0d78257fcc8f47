"""Graph rewrites: gate lowering, canonicalization, and sectioning.

``lower_gates`` rewrites named Boolean gates and Not to the LUT linear-
combination form the fabric executes: the weights of ``ir.lut_form``
become the coefficients and the truth table the LUT mask, so the
combination reproduces the truth-table index.  ``canonicalize`` runs dead-op
elimination, double-negation elimination, and single-use gate fusion to
a fixed point; only dead-op elimination deletes operators, the other two
rules rewire.  ``sectionize`` packs operators into capacity-bounded
sections greedily in topological order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .ir import (
    CircuitGraph,
    OpKind,
    Operator,
    OpTag,
    TWO_INPUT_GATES,
    ValueId,
    gate_output,
    lut_form,
)
from .cost import CostTable
from .critical_path import topological_sort


class TransformError(Exception):
    """Raised when a transform precondition fails."""


# The lut_lincomb kind each named gate and Not lowers to, one per tag.
_LOWERED = {
    tag: OpKind(OpTag.LUT_LINCOMB, coeffs=weights, lut=mask)
    for tag in OpTag
    if tag in TWO_INPUT_GATES or tag is OpTag.NOT
    for weights, (mask,) in [lut_form(OpKind(tag))]
}


def lower_gates(graph: CircuitGraph) -> CircuitGraph:
    """Rewrite 2-input named gates and Not to lut_lincomb form.

    Each becomes its lut_form as a lincomb: gates get coeffs [1, 2] and
    Not coeffs [1], with the tag's truth table as mask.  Lut2/Lut3/Packed
    and everything already in lincomb form pass through, so the transform
    is idempotent.  Ids, operands, results, and sections are preserved.
    """
    new_ops = []
    for op in graph.operators:
        kind = _LOWERED.get(op.kind.tag)
        new_ops.append(op if kind is None else replace(op, kind=kind))
    return replace(graph, operators=tuple(new_ops))


def _eliminate_dead_ops(graph: CircuitGraph) -> CircuitGraph:
    """Drop operators none of whose results transitively reach a return,
    renumber ids to ordinals and drop names of vanished values.  The
    only rule that deletes operators."""
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
        return graph
    renumbered = [replace(op, id=i) for i, op in enumerate(kept)]
    live: set[ValueId] = set(graph.argument_ids)
    for op in renumbered:
        live.update(op.operands)
        live.update(op.results)
    live.update(graph.returns)
    names = {v: n for v, n in graph.value_names.items() if v in live}
    return replace(graph, operators=tuple(renumbered), value_names=names)


def _eliminate_double_negation(graph: CircuitGraph) -> CircuitGraph:
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
        return graph

    def resolve(v: ValueId) -> ValueId:
        while v in repl:
            v = repl[v]
        return v

    new_ops = [
        replace(op, operands=tuple(resolve(v) for v in op.operands))
        for op in graph.operators
    ]
    new_returns = tuple(resolve(v) for v in graph.returns)
    return replace(graph, operators=tuple(new_ops), returns=new_returns)


def _fused_kind(inner: Operator, outer: Operator, inputs: list[ValueId]) -> OpKind:
    """Brute-force the composite truth table over the distinct inputs.

    Mask bit i is the composite output for input combination i with
    operand 0 as the least-significant bit.  With a single distinct
    input the op is a Lut2 over a duplicated operand; only the diagonal
    index bits are reachable and the rest follow operand 0.
    """
    width = max(len(inputs), 2)
    mask = 0
    for i in range(1 << width):
        bit = {v: (i >> slot) & 1 for slot, v in enumerate(inputs)}
        bit[inner.results[0]] = gate_output(inner.kind.tag, *[bit[v] for v in inner.operands])
        mask |= gate_output(outer.kind.tag, *[bit[v] for v in outer.operands]) << i
    return OpKind(OpTag.LUT2 if width == 2 else OpTag.LUT3, lut=mask)


def _fuse_single_use_gates(graph: CircuitGraph) -> CircuitGraph:
    """Fuse producer/consumer pairs of 2-input named gates into one LUT.

    Applies when the producer's result has exactly one use, is not
    returned, and the pair spans at most three distinct inputs (always
    true for such pairs).  LUT and lincomb ops never participate.  The
    outer gate becomes the fused op; the inner one is left unused for
    dead-op elimination to drop.
    """
    consumers = graph.consumers
    returned = set(graph.returns)
    producers = graph.producers
    consumed: set[int] = set()
    fused: dict[int, Operator] = {}
    for outer in graph.operators:
        if outer.id in consumed or outer.kind.tag not in TWO_INPUT_GATES:
            continue
        for slot, r in enumerate(outer.operands):
            inner = producers.get(r)
            other = outer.operands[1 - slot]
            if (
                inner is None
                or inner.id in fused
                or inner.kind.tag not in TWO_INPUT_GATES
                or consumers[r] != (outer.id,)
                or other == r
                or r in returned
            ):
                continue
            inputs = list(dict.fromkeys(inner.operands + (other,)))
            kind = _fused_kind(inner, outer, inputs)
            operands = tuple(inputs) if len(inputs) > 1 else (inputs[0], inputs[0])
            fused[outer.id] = Operator(
                outer.id, kind, operands, outer.results, outer.section
            )
            consumed.add(inner.id)
            break
    if not fused:
        return graph
    new_ops = [fused.get(op.id, op) for op in graph.operators]
    return replace(graph, operators=tuple(new_ops))


def canonicalize(graph: CircuitGraph) -> CircuitGraph:
    """Run dead-op elimination, double-negation elimination, and
    single-use gate fusion to a fixed point (in that order per round).

    Each rule returns its input when it finds nothing to do, and only
    dead-op elimination deletes operators: the other two rewire, and
    what they leave unused goes at the start of the next round.  Never
    increases the operator count and preserves evaluate() semantics on
    the returned values.
    """
    while True:
        g = _eliminate_dead_ops(graph)
        graph = _fuse_single_use_gates(_eliminate_double_negation(g))
        if graph is g:
            return g


@dataclass(frozen=True)
class SectionPlan:
    """Outcome of sectioning: contiguous pipeline stages whose per-stage
    FC demand fits the capacity."""

    section_count: int
    assignment: dict[int, int]
    capacity_fcs: int


def sectionize(
    graph: CircuitGraph, capacity_fcs: int, costs: CostTable
) -> tuple[CircuitGraph, SectionPlan]:
    """Greedy first-fit packing of operators into sections.

    Walks operators in deterministic topological order, opening a new
    section whenever the running FC sum would exceed the capacity.
    Guarantees every cross-section edge points forward.  An operator
    whose own cost exceeds the capacity cannot be placed at all.
    """
    if capacity_fcs < 1:
        raise TransformError(f"capacity must be positive, got {capacity_fcs}")
    assignment: dict[int, int] = {}
    current = 0
    current_sum = 0
    for oid in topological_sort(graph):
        op = graph.operator(oid)
        fcs = costs[op.kind.tag].fcs
        if fcs > capacity_fcs:
            raise TransformError(
                f"operator exceeds section capacity: op {oid} "
                f"({op.kind.tag.opname}, {fcs} FCs > {capacity_fcs})"
            )
        if current_sum + fcs > capacity_fcs and current_sum > 0:
            current += 1
            current_sum = 0
        assignment[oid] = current
        current_sum += fcs
    new_ops = tuple(replace(op, section=assignment[op.id]) for op in graph.operators)
    annotated = replace(graph, operators=new_ops)
    count = current + 1 if assignment else 1
    return annotated, SectionPlan(count, assignment, capacity_fcs)
