"""Graph rewrites: gate lowering, canonicalization, and sectioning.

``lower_gates`` rewrites named Boolean gates and Not to the LUT linear-
combination form the fabric executes: the weights of ``ir.lut_form``
become the coefficients and the truth table the LUT mask, so the
combination reproduces the truth-table index.  ``canonicalize`` runs dead-op
elimination, double-negation elimination, and single-use gate fusion to
a fixed point.  ``sectionize`` packs operators into capacity-bounded
sections greedily in topological order.
"""

from __future__ import annotations

from collections import Counter
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
