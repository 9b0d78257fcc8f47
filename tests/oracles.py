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


# ---------------------------------------------------------------------------
# The lexer as it was before it became one `finditer` pass: a verbatim
# copy of syntax._TOKEN_RE and syntax._Lexer, which matched once per
# position and built the line table one character at a time.

import re
from bisect import bisect_right
from typing import Iterator

from fabric_est.ir import FUNC_NAME, VALUE_NAME
from fabric_est.syntax import SourceSpan, _Diagnostics, _Token

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>//[^\n]*)
    | (?P<arrow>->)
    | (?P<punct>[(){}\[\],=:])
    | (?P<value>%"""
    + VALUE_NAME
    + r""")
    | (?P<at>@"""
    + FUNC_NAME
    + r""")
    | (?P<type>![A-Za-z_]+)
    | (?P<int>-?[0-9]+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
    """,
    re.VERBOSE,
)


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.line_starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                self.line_starts.append(i + 1)

    def span_at(self, offset: int, length: int) -> SourceSpan:
        line = bisect_right(self.line_starts, offset)
        column = offset - self.line_starts[line - 1] + 1
        return SourceSpan(line, column, max(length, 1))

    def tokens(self, diagnostics: _Diagnostics) -> Iterator[_Token]:
        """The tokens, lexed as they are read, then one eof token."""
        pos = 0
        n = len(self.text)
        while pos < n:
            m = _TOKEN_RE.match(self.text, pos)
            if m is None:
                diagnostics.add_lexed(
                    f"unexpected character {self.text[pos]!r}", self.span_at(pos, 1)
                )
                pos += 1
                continue
            kind = m.lastgroup
            if kind not in ("ws", "comment"):
                yield _Token(kind, m.group(), self.span_at(pos, len(m.group())))
            pos = m.end()
        yield _Token("eof", "", self.span_at(n, 1))


# ---------------------------------------------------------------------------
# The graph index as it was when every per-op index was a dict keyed by op
# id: CircuitGraph.consumers, op_succs, _released and op_heights, and
# critical_path._bfs with its parent map, each as a function of a graph
# (or of a BFS's first ops and the op_succs dict).  Verbatim otherwise;
# change nothing here when the library changes.


def consumers(self: CircuitGraph) -> dict[ValueId, tuple[int, ...]]:
    """Consuming operator ids per value, ascending and deduplicated:
    the one edge index, filled in a single pass in id order."""
    cons: dict[ValueId, list[int]] = {}
    for op in sorted(self.operators, key=lambda op: op.id):
        oid = op.id
        for v in op.operands:
            ids = cons.get(v)
            if ids is None:
                cons[v] = [oid]
            elif ids[-1] != oid:
                ids.append(oid)
    return {v: tuple(ids) for v, ids in cons.items()}


def op_succs(self: CircuitGraph) -> dict[int, tuple[int, ...]]:
    """Consumer operator ids per operator, ascending: the consumers of
    the results it produces.  An operator that consumes its own result
    lists itself, so the self-use is a cycle like any other."""
    consumers_ = consumers(self)
    producers = self.producers
    succs: dict[int, tuple[int, ...]] = {}
    for op in self.operators:
        rows = [consumers_.get(r, ()) for r in op.results if producers[r] is op]
        succs[op.id] = rows[0] if len(rows) == 1 else tuple(sorted(set().union(*rows)))
    return succs


def _released(self: CircuitGraph) -> tuple[int, ...]:
    """Kahn's algorithm with the ready set popped in ascending id order,
    so the order does not depend on how the operators are stored.  The
    ops on and below a cycle are never released."""
    succs = op_succs(self)
    indeg = dict.fromkeys(succs, 0)
    for below in succs.values():
        for succ in below:
            indeg[succ] += 1
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
    return tuple(order)


def op_heights(self: CircuitGraph) -> dict[int, int] | None:
    """Per operator, the op count of its longest path down to a sink
    (1 for a sink), from one pass over the reversed topological
    order; None on a cycle, as topo_order."""
    order = _released(self)
    if len(order) != len(self.operators):
        return None
    succs = op_succs(self)
    height: dict[int, int] = {}
    get = height.__getitem__
    for oid in reversed(order):
        below = succs[oid]
        height[oid] = 1 + max(map(get, below)) if below else 1
    return height


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


# ---------------------------------------------------------------------------
# The parser as it was before it resolved names as it read: a verbatim copy
# of syntax._RawOp, _RawFunc, _Parser and _Builder, which kept one raw
# record of tokens per statement and built the graph from them in two more
# passes.  Change nothing here when the library changes.

import sys
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from fabric_est.ir import KIND_ATTRS, ValueType, attr_shape_problem, validate
from fabric_est.syntax import _TAG_BY_OPNAME, _TYPE_BY_SPELLING, _Abort

_T = TypeVar("_T")


@dataclass
class _RawOp:
    results: list[_Token]
    opname: _Token
    operands: list[_Token]
    attrs: dict[str, tuple[object, SourceSpan]]
    type: _Token


@dataclass
class _RawFunc:
    name: _Token
    args: list[tuple[_Token, _Token]]  # value, type
    arrow_types: list[_Token]
    ops: list[_RawOp] = field(default_factory=list)
    ret_operands: list[_Token] = field(default_factory=list)
    ret_types: list[_Token] = field(default_factory=list)


class _Parser:
    """Recursive descent with one token of lookahead, `cur`."""

    def __init__(self, tokens: Iterator[_Token], diagnostics: _Diagnostics):
        self.tokens = tokens
        self.cur = next(tokens)
        self.diags = diagnostics

    # -- token helpers

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.cur
        return t.kind == kind and (text is None or t.text == text)

    def advance(self) -> _Token:
        t = self.cur
        if t.kind != "eof":
            self.cur = next(self.tokens)
        return t

    def error(self, message: str, span: SourceSpan | None = None) -> None:
        self.diags.add(message, span or self.cur.span)

    def expect(self, kind: str, text: str | None, what: str) -> _Token:
        if self.at(kind, text):
            return self.advance()
        got = self.cur.text or "end of input"
        self.error(f"expected {what}, found {got!r}")
        raise _Abort()

    def comma_list(self, item: Callable[..., _T], *args: object) -> list[_T]:
        """`item { "," item }`, each parsed by `item(*args)`."""
        items = [item(*args)]
        while self.at("punct", ","):
            self.advance()
            items.append(item(*args))
        return items

    # -- grammar

    def parse_function(self) -> _RawFunc | None:
        try:
            self.expect("ident", "func", "'func'")
            func = _RawFunc(self.expect("at", None, "function name ('@name')"), [], [])
            self.expect("punct", "(", "'('")
            if self.at("value"):
                func.args = self.comma_list(self.parse_arg)
            self.expect("punct", ")", "')'")
            self.expect("arrow", None, "'->'")
            func.arrow_types = self.parse_typelist(stop="{")
            self.expect("punct", "{", "'{'")
        except _Abort:
            return None

        while not self.at("ident", "return") and not self.at("punct", "}"):
            if self.cur.kind == "eof" or self.diags.full():
                self.error("expected 'return' before end of function")
                return func
            try:
                func.ops.append(self.parse_stmt())
            except _Abort:
                self.resync()
        try:
            self.expect("ident", "return", "'return'")
            if self.at("value"):
                func.ret_operands = self.comma_list(self.expect, "value", None, "a value after ','")
            self.expect("punct", ":", "':' after return operands")
            func.ret_types = self.parse_typelist(stop="}")
            self.expect("punct", "}", "'}'")
            if self.cur.kind != "eof":
                self.error("trailing input after function body")
        except _Abort:
            pass
        return func

    def parse_arg(self) -> tuple[_Token, _Token]:
        value = self.expect("value", None, "a value after ','")
        self.expect("punct", ":", "':' after argument name")
        return value, self.expect("type", None, "argument type")

    def parse_typelist(self, stop: str) -> list[_Token]:
        if self.at("punct", stop):
            return []
        return self.comma_list(self.expect, "type", None, "a type")

    def parse_stmt(self) -> _RawOp:
        results = self.comma_list(self.expect, "value", None, "a result value")
        self.expect("punct", "=", "'='")
        opname = self.expect("ident", None, "an operation name")
        operands = []
        if self.at("value"):
            operands = self.comma_list(self.expect, "value", None, "a value after ','")
        attrs: dict[str, tuple[object, SourceSpan]] = {}
        if self.at("punct", "{"):
            self.advance()
            self.comma_list(self.parse_attr, attrs)
            self.expect("punct", "}", "'}' after attributes")
        self.expect("punct", ":", "':' before the result type")
        ty = self.expect("type", None, "a result type")
        return _RawOp(results, opname, operands, attrs, ty)

    def parse_attr(self, attrs: dict[str, tuple[object, SourceSpan]]) -> None:
        name_tok = self.expect("ident", None, "an attribute name")
        self.expect("punct", "=", "'=' in attribute")
        value, vspan = self.parse_attrval()
        if name_tok.text in attrs:
            self.error(f"duplicate attribute '{name_tok.text}'", name_tok.span)
        else:
            attrs[name_tok.text] = (value, vspan)

    def integer(self, what: str) -> tuple[int, SourceSpan]:
        """An integer literal; one longer than int() reads is an error at
        its span."""
        tok = self.expect("int", None, what)
        try:
            return int(tok.text), tok.span
        except ValueError:  # past sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            self.error(f"integer literal has more than {limit} digits", tok.span)
            raise _Abort() from None

    def parse_attrval(self) -> tuple[object, SourceSpan]:
        if self.at("int"):
            return self.integer("an integer")
        if self.at("punct", "["):
            open_tok = self.advance()
            items = self.comma_list(self.integer, "an integer in the list")
            close = self.expect("punct", "]", "']'")
            length = close.span.column - open_tok.span.column + close.span.length
            span = SourceSpan(open_tok.span.line, open_tok.span.column, max(length, 1))
            return tuple(value for value, _ in items), span
        self.error("expected an integer or integer list")
        raise _Abort()

    def resync(self) -> None:
        """After a bad statement, skip to the next plausible boundary."""
        self.advance()
        while self.cur.kind != "eof":
            if self.at("value") or self.at("ident", "return") or self.at("punct", "}"):
                return
            self.advance()


class _Builder:
    def __init__(self, func: _RawFunc, diagnostics: _Diagnostics):
        self.func = func
        self.diags = diagnostics

    def build(self) -> CircuitGraph | None:
        func = self.func
        ids: dict[str, int] = {}  # by value token text, '%' included
        names: dict[int, str] = {}

        def define(tok: _Token) -> int:
            if tok.text in ids:
                self.diags.add(f"value {tok.text} defined more than once", tok.span)
                return ids[tok.text]
            vid = ids[tok.text] = len(names)
            names[vid] = tok.text[1:]
            return vid

        arguments: list[tuple[int, ValueType]] = []
        for value, ty in func.args:
            vt = _TYPE_BY_SPELLING.get(ty.text)
            if vt is None:
                self.diags.add(f"unknown type {ty.text}", ty.span)
                vt = ValueType.LWE_CIPHERTEXT
            arguments.append((define(value), vt))

        # Pass one: define every result so forward references resolve.
        for raw in func.ops:
            for tok in raw.results:
                define(tok)

        operators: list[Operator] = []
        op_raws: list[_RawOp] = []  # op_raws[i] parsed to the op with id i
        for raw in func.ops:
            op = self.build_op(raw, ids, len(operators))
            if op is not None:
                operators.append(op)
                op_raws.append(raw)

        returns: list[int] = []
        for tok in func.ret_operands:
            vid = ids.get(tok.text)
            if vid is None:
                self.diags.add(f"use-before-def {tok.text}", tok.span)
            else:
                returns.append(vid)

        if self.diags:
            return None
        graph = CircuitGraph(
            func.name.text[1:], tuple(arguments), tuple(operators), tuple(returns), names
        )
        self.check_return_types(graph)
        if self.diags:
            return None
        for violation in validate(graph):
            # At the attribute's value, else the op name, else the function name.
            span = func.name.span
            if violation.op_id is not None:
                raw = op_raws[violation.op_id]
                attr = raw.attrs.get(violation.attr)
                span = attr[1] if attr is not None else raw.opname.span
            self.diags.add(violation.message, span)
        if self.diags:
            return None
        return graph

    def build_op(self, raw: _RawOp, ids: dict[str, int], op_id: int) -> Operator | None:
        """Resolve one statement; attribute presence and ranges, operand
        and result counts are left to validate()."""
        opname = raw.opname.text
        tag = _TAG_BY_OPNAME.get(opname)
        if tag is None:
            self.diags.add(f"unknown operation '{opname}'", raw.opname.span)
            return None

        fields: dict[str, object] = {}
        section = None
        ok = True
        for name, (value, vspan) in raw.attrs.items():
            if name not in KIND_ATTRS and name != "section":
                self.diags.add(f"{opname} does not take attribute '{name}'", vspan)
                ok = False
                continue
            problem = attr_shape_problem(name, value)
            if problem is not None:
                self.diags.add(problem, vspan)
                ok = False
            elif name == "section":
                section = value
            else:
                fields[name] = value
        if not ok:
            return None

        want_type = tag.result_type.value
        if raw.type.text != want_type:
            self.diags.add(
                f"type mismatch: {opname} produces {want_type}, not {raw.type.text}",
                raw.type.span,
            )
            ok = False

        operands: list[int] = []
        for tok in raw.operands:
            vid = ids.get(tok.text)
            if vid is None:
                self.diags.add(f"use-before-def {tok.text}", tok.span)
                ok = False
            else:
                operands.append(vid)
        if not ok:
            return None
        results = tuple(ids[tok.text] for tok in raw.results)
        return Operator(op_id, OpKind(tag, **fields), tuple(operands), results, section)

    def check_return_types(self, graph: CircuitGraph) -> None:
        func = self.func
        types = graph.value_types
        actual = [types[v].value for v in graph.returns]
        if len(func.ret_types) != len(actual):
            span = func.ret_types[0].span if func.ret_types else func.name.span
            self.diags.add(
                f"return lists {len(func.ret_types)} types for {len(actual)} values", span
            )
            return
        for want, got in zip(actual, func.ret_types):
            if got.text != want:
                self.diags.add(
                    f"return type mismatch: value has type {want}, not {got.text}", got.span
                )
        if len(func.arrow_types) != len(actual):
            self.diags.add(
                f"function signature declares {len(func.arrow_types)} results, returns {len(actual)}",
                func.name.span,
            )
            return
        for want, got in zip(actual, func.arrow_types):
            if got.text != want:
                self.diags.add(
                    f"declared result type {got.text} does not match returned {want}", got.span
                )


# ---------------------------------------------------------------------------
# The CLI driver as it was when each stage caught and printed its own
# errors: cli.main, _fail and _check_dialect.  Verbatim but for the
# imports; change nothing here when the library changes.  `canonicalize`
# in this module is the oracle above, so a test that compares this main
# with the library's points it at fabric_est.canonicalize.

from pathlib import Path

from fabric_est.cli import _build_parser
from fabric_est.cost import (
    ConfigError,
    PAPER_DEFAULT_PROFILE,
    estimate,
    load_config,
    load_profile,
)
from fabric_est.critical_path import compute, throughput
from fabric_est.fixtures import FixtureError, generate_fixture, parse_fixture_spec
from fabric_est.report import RunManifest, emit_report
from fabric_est.syntax import ParseError, parse, print_circuit
from fabric_est.transforms import TransformError, lower_gates, sectionize


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _check_dialect(graph: CircuitGraph, flag: str, dialect: str, label: str) -> str | None:
    for op in graph.operators:
        if op.kind.tag.dialect != dialect:
            return (
                f"{flag}: graph uses non-{label} op"
                f" '{op.kind.tag.opname}' (op {op.id})"
            )
    return None


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)

        if args.input and args.fixture:
            parser.error("give either an input file or --fixture, not both")
        if not args.input and not args.fixture:
            parser.error("an input file or --fixture is required")
        if args.output and not args.fixture:
            parser.error("-o/--output requires --fixture")
        if args.capacity is not None and "sectionize" not in args.passes:
            parser.error("--capacity requires --sectionize")
        if args.method is not None and not args.critical_path:
            parser.error("--method requires --critical-path")
        if args.throughput and args.batch is None:
            parser.error("--throughput requires --batch")
        if args.batch is not None and not args.throughput:
            parser.error("--batch requires --throughput")
        if args.cggi_estimate and args.ckks_estimate:
            parser.error("--cggi-estimate and --ckks-estimate are exclusive")
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.config is not None:
            config, costs = load_config(Path(args.config))
            config_label = args.config
        else:
            config_label = args.profile or PAPER_DEFAULT_PROFILE
            config, costs = load_profile(config_label)
    except ConfigError as exc:
        return _fail(str(exc))

    if args.fixture:
        try:
            name, param = parse_fixture_spec(args.fixture)
            graph = generate_fixture(name, param)
        except FixtureError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.output:
            try:
                Path(args.output).write_text(print_circuit(graph))
            except OSError as exc:
                return _fail(f"cannot write '{args.output}': {exc}")
        input_label = f"fixture:{args.fixture}"
    else:
        try:
            text = Path(args.input).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            return _fail(f"cannot read '{args.input}': {exc}")
        try:
            graph = parse(text)
        except ParseError as exc:
            for d in exc.diagnostics:
                print(
                    f"{args.input}:{d.span.line}:{d.span.column}:"
                    f" error: {d.message}",
                    file=sys.stderr,
                )
            return 1
        input_label = args.input

    try:
        for name in args.passes:
            if name == "lower-gates":
                graph = lower_gates(graph)
            elif name == "canonicalize":
                graph = canonicalize(graph)
            else:
                capacity = (
                    args.capacity
                    if args.capacity is not None
                    else config.usable_fcs_per_chip
                )
                graph, _plan = sectionize(graph, capacity, costs)
    except TransformError as exc:
        return _fail(str(exc))

    resources = None
    # --method requires --critical-path, so a chosen method is also the
    # one throughput reads.
    method = None if args.method in (None, "all") else Method(args.method)
    cp_results: tuple = ()
    tp = None
    try:
        if args.cggi_estimate or args.ckks_estimate:
            if args.cggi_estimate:
                problem = _check_dialect(graph, "--cggi-estimate", "bool", "Boolean")
            else:
                problem = _check_dialect(graph, "--ckks-estimate", "ckks", "CKKS")
            if problem is not None:
                return _fail(problem)
            resources = estimate(graph, config, costs)
        if args.critical_path:
            selected = list(Method) if method is None else [method]
            cp_results = tuple(
                compute(graph, m, config.unit_time_per_gate) for m in selected
            )
        if args.throughput:
            tp_method = method or Method.LONGEST_PATH
            cached = next((c for c in cp_results if c.method is tp_method), None)
            depth = (
                cached.depth
                if cached is not None
                else compute(graph, tp_method, config.unit_time_per_gate).depth
            )
            try:
                tp = (args.batch, throughput(depth, args.batch, config), tp_method)
            except ValueError as exc:
                return _fail(str(exc))
    except ConfigError as exc:  # a number too large to report
        return _fail(str(exc))

    if args.print_ir:
        sys.stdout.write(print_circuit(graph))

    manifest = RunManifest(
        input=input_label,
        passes=tuple(args.passes),
        config=config_label,
        format=args.emit,
        exit_status=0,
    )
    sys.stdout.write(emit_report(manifest, resources, cp_results, tp))
    return 0


# ---------------------------------------------------------------------------
# paper-exact as it was when its tie-break was written twice, once in the
# stop test and once in the update test, with a branch for no winner
# (renamed two_test_paper_exact_cp; it reads _heights, _bfs and _result
# through the critical_path module, so a test can count its BFS runs).
# Verbatim otherwise; change nothing here when the library changes.


def two_test_paper_exact_cp(graph: CircuitGraph, unit_time: float = 1.0) -> CriticalPathResult:
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
    height = critical_path._heights(graph)
    topology = graph.topology
    succs = topology.successors
    first = [topology.consumers.get(a, ()) for a in graph.argument_ids]
    bound = [max([height[c] for c in ops], default=0) for ops in first]
    depth = 0
    best: tuple[int, int, list[int | None]] | None = None  # argument index, sink, parents
    for i in sorted(range(len(first)), key=bound.__getitem__, reverse=True):
        # A bound of D can only tie, and a tie goes to the earlier argument.
        if bound[i] < depth or bound[i] == depth and (best is None or i > best[0]):
            break
        d, sink, parent = critical_path._bfs(first[i], succs)
        if d > depth or (d == depth and i < best[0]):
            depth, best = d, (i, sink, parent)
    ops: list[int] = []
    if best is not None:
        _, node, parent = best
        for _ in range(depth):
            ops.append(node)
            node = parent[node]
        ops.reverse()
    return critical_path._result(Method.PAPER_EXACT, ops, unit_time)
