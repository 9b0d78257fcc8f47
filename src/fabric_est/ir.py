"""Core circuit IR: typed SSA operator graphs and a plaintext evaluator.

A CircuitGraph models a single function: typed arguments, a list of
operators in SSA form, and the values it returns.  Two operator families
share the representation: Boolean gate circuits over encrypted-bit
stand-ins (scifr_bool) and CKKS-style circuits over fixed-length slot
vectors (scifr_ckks).  Evaluation runs on plaintext values -- bits for
the Boolean dialect, float vectors for CKKS -- and serves as the
semantics oracle for transforms and fixture generators.  No cryptography
is involved anywhere.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field, replace
from enum import Enum, unique
from functools import cached_property
from typing import Mapping, Sequence

ValueId = int


@unique
class ValueType(Enum):
    """Types a graph value can carry; values are the IR spellings."""

    LWE_CIPHERTEXT = "!lwe"
    CKKS_CIPHERTEXT = "!ct"
    CKKS_PLAINTEXT = "!pt"


@unique
class OpTag(Enum):
    """Operator mnemonics of both dialects, one row of facts per tag.

    The value is the IR spelling (and the cost-config key).  Each tag
    also carries its dialect, its operand count (None for the lincomb
    ops, which take one operand per coefficient), the attributes it
    requires (every listed one is mandatory), its report label and, for
    a fixed-function Boolean op, its truth table (see lut_form).
    """

    dialect: str
    arity: int | None
    required: tuple[str, ...]
    label: str
    table: int | None
    opname: str
    result_type: ValueType

    AND = "and", "bool", 2, (), "AndOp", 0b1000
    NAND = "nand", "bool", 2, (), "NandOp", 0b0111
    NOR = "nor", "bool", 2, (), "NorOp", 0b0001
    OR = "or", "bool", 2, (), "OrOp", 0b1110
    XOR = "xor", "bool", 2, (), "XorOp", 0b0110
    XNOR = "xnor", "bool", 2, (), "XNorOp", 0b1001
    NOT = "not", "bool", 1, (), "NotOp", 0b01
    PACKED = "packed", "bool", 1, (), "PackedOp", 0b10
    LUT2 = "lut2", "bool", 2, ("lut",), "Lut2Op"
    LUT3 = "lut3", "bool", 3, ("lut",), "Lut3Op"
    LUT_LINCOMB = "lut_lincomb", "bool", None, ("coeffs", "lut"), "LutLinCombOp"
    MULTI_LUT_LINCOMB = "multi_lut_lincomb", "bool", None, ("coeffs", "luts"), "MultiLutLinCombOp"
    ADD = "add", "ckks", 2, (), "AddOp"
    ADD_PLAIN = "add_plain", "ckks", 2, (), "AddPlainOp"
    SUB = "sub", "ckks", 2, (), "SubOp"
    SUB_PLAIN = "sub_plain", "ckks", 2, (), "SubPlainOp"
    MUL = "mul", "ckks", 2, (), "MulOp"
    MUL_PLAIN = "mul_plain", "ckks", 2, (), "MulPlainOp"
    ROTATE = "rotate", "ckks", 1, ("offset",), "RotateOp"
    EXTRACT = "extract", "ckks", 1, ("index",), "ExtractOp"
    NEGATE = "negate", "ckks", 1, (), "NegateOp"
    RELINEARIZE = "relinearize", "ckks", 1, (), "RelinearizeOp"
    RESCALE = "rescale", "ckks", 1, (), "RescaleOp"

    def __new__(cls, value, dialect, arity, required, label, table=None):
        tag = object.__new__(cls)
        tag._value_ = value
        tag.dialect = dialect
        tag.arity = arity
        tag.required = required
        tag.label = label
        tag.table = table
        tag.opname = f"scifr_{dialect}.{value}"
        tag.result_type = ValueType.LWE_CIPHERTEXT if dialect == "bool" else ValueType.CKKS_CIPHERTEXT
        return tag


BOOL_TAGS = frozenset(tag for tag in OpTag if tag.dialect == "bool")
CKKS_TAGS = frozenset(OpTag) - BOOL_TAGS

TWO_INPUT_GATES = frozenset(tag for tag in OpTag if tag.table is not None and tag.arity == 2)
# Binary CKKS ops whose second operand is a plaintext vector.
PLAIN_OPERAND_TAGS = frozenset({OpTag.ADD_PLAIN, OpTag.SUB_PLAIN, OpTag.MUL_PLAIN})

# OpKind's attributes, in the order validate() reports them, each with its
# shape: an integer list (tuple) or one integer (int).
KIND_ATTRS: dict[str, type] = {
    "coeffs": tuple,
    "lut": int,
    "luts": tuple,
    "offset": int,
    "index": int,
}


# The name spellings of the textual IR, after their sigils: `%` value names
# and `@` function names.  The lexer is built from these, and validate()
# holds every graph to them, so that its printed text parses.
VALUE_NAME = r"[A-Za-z0-9_]+"
FUNC_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_VALUE_NAME_RE = re.compile(VALUE_NAME)
_FUNC_NAME_RE = re.compile(FUNC_NAME)


def attr_shape_problem(name: str, value: object) -> str | None:
    """The message for an attribute value of the wrong shape, else None.
    Names outside KIND_ATTRS, such as `section`, hold one integer."""
    if KIND_ATTRS.get(name) is tuple:
        if not isinstance(value, tuple):
            return f"attribute '{name}' must be an integer list"
    elif not isinstance(value, int):
        return f"attribute '{name}' must be an integer"
    return None


def _pow2_text(exp: int) -> str:
    """2**exp in a message: decimal up to 2**64, else written `2**exp`,
    so that no message builds or prints a huge integer."""
    return str(1 << exp) if exp <= 64 else f"2**{exp}"


def _mask_bound_text(arity: int) -> str:
    """The LUT mask bound 2**(2**arity) in a message, as by _pow2_text."""
    return _pow2_text(1 << arity) if arity <= 64 else f"2**(2**{arity})"


@dataclass(frozen=True)
class OpKind:
    """An operator kind: a tag plus the attributes that tag requires
    (OpTag.required).  `luts` holds one mask per result, `offset` is
    signed and `index` non-negative."""

    tag: OpTag
    lut: int | None = None
    coeffs: tuple[int, ...] | None = None
    luts: tuple[int, ...] | None = None
    offset: int | None = None
    index: int | None = None

    def __post_init__(self) -> None:
        # Lists become tuples; any other shape is left to validate().
        if isinstance(self.coeffs, list):
            object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if isinstance(self.luts, list):
            object.__setattr__(self, "luts", tuple(self.luts))

    @property
    def arity(self) -> int | None:
        """Operand count, or None when it cannot be derived (bad attrs):
        the tag's own count, else one operand per coefficient."""
        if self.tag.arity is not None:
            return self.tag.arity
        return len(self.coeffs) if isinstance(self.coeffs, tuple) and self.coeffs else None

    @property
    def num_results(self) -> int | None:
        if self.tag is OpTag.MULTI_LUT_LINCOMB:
            return len(self.luts) if isinstance(self.luts, tuple) and self.luts else None
        return 1

    def attrs(self) -> dict[str, int | tuple[int, ...]]:
        """The attributes actually set, keyed by IR attribute name."""
        out: dict[str, int | tuple[int, ...]] = {}
        for name in KIND_ATTRS:
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        return out


@dataclass(frozen=True)
class Operator:
    """One SSA operator: ordinal id, kind, operand/result values, and an
    optional section index assigned by the sectioning transform."""

    id: int
    kind: OpKind
    operands: tuple[ValueId, ...]
    results: tuple[ValueId, ...]
    section: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.operands, tuple):
            object.__setattr__(self, "operands", tuple(self.operands))
        if not isinstance(self.results, tuple):
            object.__setattr__(self, "results", tuple(self.results))


@dataclass(frozen=True, eq=False)
class Topology:
    """The edges of one graph as op ids, ints only: the ascending,
    deduplicated consuming op ids per value, and at index i the ascending
    ids of the ops that consume op i's results (an op that consumes its
    own result lists itself, a cycle).  Kahn's order, the heights and the
    sinks derive from them on first read.  CircuitGraph.topology builds
    one per edge set, and with_same_edges hands it on."""

    consumers: dict[ValueId, tuple[int, ...]]
    successors: tuple[tuple[int, ...], ...]

    @cached_property
    def released(self) -> tuple[int, ...]:
        """Kahn's algorithm with the ready set popped in ascending id order,
        so the order does not depend on how the operators are stored.  The
        ops on and below a cycle are never released."""
        succs = self.successors
        indeg = [0] * len(succs)
        for below in succs:
            for succ in below:
                indeg[succ] += 1
        ready = [oid for oid, d in enumerate(indeg) if d == 0]  # ascending: a heap
        order: list[int] = []
        while ready:
            oid = heapq.heappop(ready)
            order.append(oid)
            for succ in succs[oid]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    heapq.heappush(ready, succ)
        return tuple(order)

    @cached_property
    def order(self) -> tuple[int, ...]:
        """Operator ids in dependency order; ValueError on a cycle."""
        order = self.released
        if len(order) != len(self.successors):
            raise ValueError("graph contains a dependency cycle")
        return order

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """At index i, the op count of op i's longest path down to a sink
        (1 for a sink), from one pass over the reversed order; the
        order's ValueError on a cycle."""
        succs = self.successors
        height = [0] * len(succs)
        for oid in reversed(self.order):
            below = succs[oid]
            height[oid] = 1 + max(map(height.__getitem__, below)) if below else 1
        return tuple(height)

    @cached_property
    def sinks(self) -> frozenset[int]:
        """Operators none of whose results another operator consumes."""
        return frozenset(oid for oid, below in enumerate(self.successors) if not below)


@dataclass(frozen=True, eq=False)
class CircuitGraph:
    """A single function: arguments, operators, returned values.

    Operator ids are a permutation of 0..n-1 and storage order is free;
    the edges are a Topology read by op id.  validate() checks the ids,
    SSA single definition and acyclicity; on other ids the Topology
    raises ValueError with its first id message.  `value_names` holds
    the printed names; a missing one reads the id.
    """

    name: str
    arguments: tuple[tuple[ValueId, ValueType], ...]
    operators: tuple[Operator, ...]
    returns: tuple[ValueId, ...]
    value_names: Mapping[ValueId, str] = field(default_factory=dict)
    # The Topology once built, in a list that with_same_edges shares with
    # the graphs it derives, so one edge set builds one Topology.
    _topology: list[Topology] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "arguments", tuple(tuple(a) for a in self.arguments))
        object.__setattr__(self, "operators", tuple(self.operators))
        object.__setattr__(self, "returns", tuple(self.returns))
        object.__setattr__(self, "value_names", dict(self.value_names))

    @cached_property
    def argument_ids(self) -> tuple[ValueId, ...]:
        return tuple(vid for vid, _ in self.arguments)

    @cached_property
    def producers(self) -> dict[ValueId, Operator]:
        """Producing operator per result value (first definition wins)."""
        prod: dict[ValueId, Operator] = {}
        for op in self.operators:
            for r in op.results:
                prod.setdefault(r, op)
        return prod

    @cached_property
    def _by_id(self) -> tuple[Operator, ...]:
        """Op i at index i; ValueError with validate()'s first id message
        unless the ids are a permutation."""
        ops: list[Operator | None] = [None] * len(self.operators)
        for op in self.operators:
            if not (isinstance(op.id, int) and 0 <= op.id < len(ops)) or ops[op.id] is not None:
                raise ValueError(duplicate_id_message(self))
            ops[op.id] = op
        return tuple(ops)

    @property
    def topology(self) -> Topology:
        """The edges of the ops, built on first read; ValueError with
        validate()'s first id message unless the ids are a permutation."""
        if not self._topology:
            self._topology.append(build_topology(self))
        return self._topology[0]

    @property
    def consumers(self) -> dict[ValueId, tuple[int, ...]]:
        """The Topology's consumers."""
        return self.topology.consumers

    @cached_property
    def op_succs(self) -> dict[int, tuple[int, ...]]:
        """The Topology's successors as a dict keyed by op id."""
        return dict(enumerate(self.topology.successors))

    @property
    def sink_op_ids(self) -> frozenset[int]:
        """The Topology's sinks."""
        return self.topology.sinks

    @cached_property
    def value_types(self) -> dict[ValueId, ValueType]:
        types = {vid: vt for vid, vt in self.arguments}
        for op in self.operators:
            for r in op.results:
                types.setdefault(r, op.kind.tag.result_type)
        return types

    def operator(self, op_id: int) -> Operator:
        """Op `op_id`; KeyError for an id outside 0..n-1, and ValueError
        with validate()'s message unless the ids are a permutation."""
        by_id = self._by_id
        if isinstance(op_id, int) and 0 <= op_id < len(by_id):
            return by_id[op_id]
        raise KeyError(op_id)

    def display_name(self, vid: ValueId) -> str:
        return self.value_names.get(vid, str(vid))


def build_topology(graph: CircuitGraph) -> Topology:
    """A fresh Topology of the graph's ops, filled in one pass in id
    order; ValueError with validate()'s first id message unless the ids
    are a permutation."""
    ops = graph._by_id
    cons: dict[ValueId, list[int] | tuple[int, ...]] = {}
    for op in ops:
        oid = op.id
        for v in op.operands:
            ids = cons.get(v)
            if ids is None:
                cons[v] = [oid]
            elif ids[-1] != oid:
                ids.append(oid)
    for v, ids in cons.items():
        cons[v] = tuple(ids)
    producers = graph.producers
    succs: list[tuple[int, ...]] = []
    for op in ops:
        rows = [cons.get(r, ()) for r in op.results if producers[r] is op]
        succs.append(rows[0] if len(rows) == 1 else tuple(sorted(set().union(*rows))))
    return Topology(cons, tuple(succs))


def with_same_edges(graph: CircuitGraph, operators: Sequence[Operator]) -> CircuitGraph:
    """`graph` with `operators` in its place, for a pass that keeps every
    op's id, operands and results where they were stored: the new graph
    shares the graph's Topology, built or not.  ValueError if an op
    changed any of the three."""
    ops = tuple(operators)
    if len(ops) != len(graph.operators) or any(
        op.id != old.id or op.operands != old.operands or op.results != old.results
        for old, op in zip(graph.operators, ops)
    ):
        raise ValueError("the operators do not keep the graph's edges")
    new = replace(graph, operators=ops)
    object.__setattr__(new, "_topology", graph._topology)
    return new


class GraphBuilder:
    """Incremental CircuitGraph constructor; assigns value ids and
    default textual names (arguments a0, a1, ...; results 0, 1, ...)."""

    def __init__(self, name: str):
        self.name = name
        self._arguments: list[tuple[ValueId, ValueType]] = []
        self._operators: list[Operator] = []
        self._returns: list[ValueId] = []
        self._names: dict[ValueId, str] = {}
        self._used_names: set[str] = set()
        self._next_id = 0
        self._arg_counter = 0
        self._result_counter = 0

    def _fresh_value(self, name: str | None, default: str) -> ValueId:
        vid = self._next_id
        self._next_id += 1
        chosen = name if name is not None else default
        if chosen in self._used_names:
            if name is not None:
                raise ValueError(f"duplicate value name %{chosen}")
            while chosen in self._used_names:
                self._result_counter += 1
                chosen = str(self._result_counter)
        self._used_names.add(chosen)
        self._names[vid] = chosen
        return vid

    def argument(self, vtype: ValueType, name: str | None = None) -> ValueId:
        default = f"a{self._arg_counter}"
        self._arg_counter += 1
        vid = self._fresh_value(name, default)
        self._arguments.append((vid, vtype))
        return vid

    def op(self, kind: OpKind, *operands: ValueId, name: str | None = None) -> ValueId:
        """Append a single-result operator and return its result value."""
        if kind.num_results != 1:
            raise ValueError(f"{kind.tag.opname} is not single-result")
        return self.multi_op(kind, *operands, names=(name,))[0]

    def multi_op(
        self,
        kind: OpKind,
        *operands: ValueId,
        names: Sequence[str | None] | None = None,
    ) -> tuple[ValueId, ...]:
        n = kind.num_results
        if n is None:
            raise ValueError(f"{kind.tag.opname} has underspecified attributes")
        if names is None:
            names = (None,) * n
        results = []
        for nm in names:
            default = str(self._result_counter)
            self._result_counter += 1
            results.append(self._fresh_value(nm, default))
        self._operators.append(
            Operator(len(self._operators), kind, tuple(operands), tuple(results))
        )
        return tuple(results)

    def ret(self, *values: ValueId) -> None:
        self._returns = list(values)

    def build(self) -> CircuitGraph:
        return CircuitGraph(
            self.name,
            tuple(self._arguments),
            tuple(self._operators),
            tuple(self._returns),
            dict(self._names),
        )


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    """One structural problem found by validate(); `attr` names the
    attribute at fault, when there is one."""

    code: str
    message: str
    op_id: int | None = None
    attr: str | None = None


def kind_attr_problems(kind: OpKind, op_id: int | None = None) -> list[Violation]:
    """Attribute problems on one kind, each naming its attribute."""
    problems: list[Violation] = []
    tag = kind.tag
    allowed = tag.required

    def problem(code: str, message: str, attr: str) -> None:
        problems.append(Violation(code, message, op_id, attr))

    shaped = True
    for attr in KIND_ATTRS:
        val = getattr(kind, attr)
        if val is None:
            if attr in allowed:
                problem("attr", f"{tag.opname} requires attribute '{attr}'", attr)
            continue
        if attr not in allowed:
            problem("attr", f"{tag.opname} does not take attribute '{attr}'", attr)
        shape = attr_shape_problem(attr, val)
        if shape is not None:
            problem("attr", shape, attr)
            shaped = False
    if not shaped:
        return problems
    if kind.coeffs is not None and len(kind.coeffs) == 0:
        problem("attr", f"{tag.opname} requires a non-empty 'coeffs'", "coeffs")
    if kind.luts is not None and len(kind.luts) == 0:
        problem("attr", f"{tag.opname} requires a non-empty 'luts'", "luts")
    arity = kind.arity
    if arity is not None:
        size = 1 << arity  # index values, so mask bits
        if "lut" in allowed and kind.lut is not None:
            if kind.lut < 0 or kind.lut >> size:
                problem(
                    "lut-range",
                    f"LUT mask out of range: {kind.lut} not in [0, {_mask_bound_text(arity)})",
                    "lut",
                )
        if "luts" in allowed and kind.luts:
            for i, mask in enumerate(kind.luts):
                if mask < 0 or mask >> size:
                    problem(
                        "lut-range",
                        f"LUT mask out of range: luts[{i}] = {mask} "
                        f"not in [0, {_mask_bound_text(arity)})",
                        "luts",
                    )
        if "coeffs" in allowed:
            # The index reaches from the sum of the negative coeffs to
            # the sum of the positive ones.
            if min(kind.coeffs) < 0 or sum(kind.coeffs) >= size:
                problem(
                    "lut-range",
                    "lincomb index out of range: coeffs give indices outside "
                    f"[0, {_pow2_text(arity)})",
                    "coeffs",
                )
    if kind.index is not None and kind.index < 0:
        problem("attr", f"{tag.opname} index must be non-negative", "index")
    return problems


def validate(graph: CircuitGraph) -> list[Violation]:
    """Return every structural violation; an empty list means valid.

    Checked: operator ids in 0..n-1 (op-id) and unique (duplicate-id),
    single definition per value (double-def), function and value names
    that the printer can write back, one value per name (name), defined
    operands and returns (use-before-def), operand/result arity, attribute
    presence, shapes, LUT mask and lincomb index ranges, non-negative
    sections, operand types per dialect, and acyclicity (only when the ids
    are a permutation; it names the smallest op on or below a cycle).
    """
    violations: list[Violation] = []
    if not _FUNC_NAME_RE.fullmatch(graph.name):
        violations.append(Violation("name", f"function name @{graph.name} is not an identifier"))
    violations += _definition_problems(graph)
    types = graph.value_types  # every defined value

    for op in graph.operators:
        opname = op.kind.tag.opname
        violations += kind_attr_problems(op.kind, op.id)
        if op.section is not None:
            message = attr_shape_problem("section", op.section)
            if message is None and op.section < 0:
                message = "section must be non-negative"
            if message is not None:
                violations.append(Violation("attr", message, op.id, "section"))
        arity = op.kind.arity
        if arity is not None and len(op.operands) != arity:
            violations.append(
                Violation(
                    "arity-mismatch",
                    f"{opname} expects {arity} operands, got {len(op.operands)}",
                    op.id,
                )
            )
        nres = op.kind.num_results
        if nres is not None and len(op.results) != nres:
            violations.append(
                Violation(
                    "arity-mismatch",
                    f"{opname} produces {nres} results, got {len(op.results)}",
                    op.id,
                )
            )
        for v in op.operands:
            if v not in types:
                violations.append(
                    Violation(
                        "use-before-def", f"use-before-def %{graph.display_name(v)}", op.id
                    )
                )
    for v in graph.returns:
        if v not in types:
            violations.append(
                Violation("use-before-def", f"use-before-def %{graph.display_name(v)}")
            )

    for op in graph.operators:
        tag = op.kind.tag
        opname = tag.opname
        for slot, v in enumerate(op.operands):
            vt = types.get(v)
            if vt is None:
                continue  # undefined operand already reported
            # An op's operands are its dialect's ciphertext, like its
            # results, but for the plaintext second operand.
            want = tag.result_type
            if tag in PLAIN_OPERAND_TAGS and slot == 1:
                want = ValueType.CKKS_PLAINTEXT
            if vt is not want:
                violations.append(
                    Violation(
                        "type-mismatch",
                        f"operand {slot} of {opname} has type {vt.value}, expected {want.value}",
                        op.id,
                    )
                )

    ids_ok = all(v.code not in ("op-id", "duplicate-id") for v in violations)
    if ids_ok and len(graph.topology.released) < len(graph.operators):
        stuck = min(set(range(len(graph.operators))).difference(graph.topology.released))
        violations.append(Violation("cycle", "dependency cycle among operators", stuck))
    return violations


def _definition_problems(graph: CircuitGraph) -> list[Violation]:
    """validate()'s id, double-def and name checks, in definition order;
    their sets are freed before validate() builds the graph's indexes."""
    violations: list[Violation] = []
    defined: set[ValueId] = set()
    names: set[str] = set()

    def define(vid: ValueId, op_id: int | None) -> None:
        name = graph.display_name(vid)
        if vid in defined:
            violations.append(Violation("double-def", f"value %{name} defined more than once", op_id))
            return
        defined.add(vid)
        if not _VALUE_NAME_RE.fullmatch(name):
            violations.append(Violation("name", f"value name %{name} is not a valid name", op_id))
        elif name in names:
            violations.append(Violation("name", f"value name %{name} is used more than once", op_id))
        names.add(name)

    for vid, _ in graph.arguments:
        define(vid, None)
    n = len(graph.operators)
    seen = bytearray(n)
    for op in graph.operators:
        if not (isinstance(op.id, int) and 0 <= op.id < n):
            violations.append(Violation("op-id", f"operator id {_shown(op.id)} not in [0, {n})", op.id))
        elif seen[op.id]:
            violations.append(Violation("duplicate-id", f"duplicate operator id {op.id}", op.id))
        else:
            seen[op.id] = 1
        for r in op.results:
            define(r, op.id)
    return violations


def duplicate_id_message(graph: CircuitGraph) -> str | None:
    """validate()'s first op-id or duplicate-id message, or None when the
    ids are a permutation of 0..n-1, without which there is no topo order."""
    problems = _definition_problems(graph)
    return next((v.message for v in problems if v.code in ("op-id", "duplicate-id")), None)


def topological_sort(graph: CircuitGraph) -> list[int]:
    """The Topology's order as a list.  Raises ValueError on a cycle or
    ids that are not a permutation of 0..n-1, which validate() reports."""
    return list(graph.topology.order)


# ---------------------------------------------------------------------------
# Evaluation


class EvaluationError(Exception):
    """Raised for bad evaluator inputs or out-of-range LUT indices."""


def _shown(x: object) -> str:
    """`repr(x)` for a message, or x's type when repr raises (as it does
    on an int past sys.get_int_max_str_digits())."""
    try:
        return repr(x)
    except Exception:
        return f"a value of type {type(x).__name__}"


def _as_bit(x: object, what: str) -> int:
    if isinstance(x, bool):
        return int(x)
    if isinstance(x, int) and x in (0, 1):
        return x
    raise EvaluationError(f"{what} must be a bit (0 or 1), got {_shown(x)}")


def _as_vector(x: object, what: str) -> tuple[float, ...]:
    if isinstance(x, (list, tuple)) and len(x) > 0:
        try:
            return tuple(float(s) for s in x)
        except (TypeError, ValueError, OverflowError):
            pass
    raise EvaluationError(f"{what} must be a non-empty number vector, got {_shown(x)}")


def lut_form(kind: OpKind) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The one statement of Boolean semantics: `(weights, masks)`, where
    result j of the op is bit `sum(w * x)` of masks[j] for operand bits x.
    The weights are the lincomb coeffs, else 1, 2, 4 (operand 0 is the
    low index bit); the masks are the tag's truth table, else the op's
    `lut` or `luts`."""
    tag = kind.tag
    weights = kind.coeffs if tag.arity is None else (1, 2, 4)[: tag.arity]
    if tag.table is not None:
        return weights, (tag.table,)
    return weights, kind.luts if tag is OpTag.MULTI_LUT_LINCOMB else (kind.lut,)


def gate_output(tag: OpTag, a: int, b: int) -> int:
    """Truth-table output of a two-input named gate."""
    return (tag.table >> (a + 2 * b)) & 1


def _apply_op(op: Operator, args: list) -> tuple:
    """Evaluate one operator; returns one plain value per result."""
    kind = op.kind
    tag = kind.tag
    if tag in BOOL_TAGS:
        weights, masks = lut_form(kind)
        idx = sum(w * x for w, x in zip(weights, args))
        limit = 1 << len(weights)
        if not 0 <= idx < limit:
            raise EvaluationError(f"{tag.opname} index {idx} out of range [0, {limit})")
        return tuple((mask >> idx) & 1 for mask in masks)
    if tag in (OpTag.ADD, OpTag.ADD_PLAIN):
        return (tuple(x + y for x, y in zip(args[0], args[1])),)
    if tag in (OpTag.SUB, OpTag.SUB_PLAIN):
        return (tuple(x - y for x, y in zip(args[0], args[1])),)
    if tag in (OpTag.MUL, OpTag.MUL_PLAIN):
        return (tuple(x * y for x, y in zip(args[0], args[1])),)
    if tag is OpTag.ROTATE:
        v = args[0]
        k = kind.offset % len(v)
        return (v[k:] + v[:k],)
    if tag is OpTag.EXTRACT:
        v = args[0]
        if kind.index >= len(v):
            raise EvaluationError(
                f"extract index {kind.index} out of range for {len(v)} slots"
            )
        return ((v[kind.index],) * len(v),)
    if tag is OpTag.NEGATE:
        return (tuple(-x for x in args[0]),)
    if tag in (OpTag.RELINEARIZE, OpTag.RESCALE):
        return (args[0],)
    raise EvaluationError(f"no semantics for {tag.opname}")


def evaluate(graph: CircuitGraph, inputs: Mapping[ValueId, object]) -> dict[ValueId, object]:
    """Evaluate a valid graph on plaintext inputs.

    `inputs` must cover exactly the graph arguments: bits for !lwe
    arguments, equal-length number vectors for !ct/!pt arguments.
    Returns the computed plain value for every value id in the graph.
    """
    arg_ids = set(graph.argument_ids)
    missing = arg_ids - set(inputs)
    extra = set(inputs) - arg_ids
    if missing:
        names = ", ".join(f"%{graph.display_name(v)}" for v in sorted(missing))
        raise EvaluationError(f"missing inputs for arguments: {names}")
    if extra:
        raise EvaluationError(f"inputs given for non-argument values: {sorted(extra)}")

    values: dict[ValueId, object] = {}
    vec_len: int | None = None
    for vid, vt in graph.arguments:
        label = f"argument %{graph.display_name(vid)}"
        if vt is ValueType.LWE_CIPHERTEXT:
            values[vid] = _as_bit(inputs[vid], label)
        else:
            vec = _as_vector(inputs[vid], label)
            if vec_len is None:
                vec_len = len(vec)
            elif len(vec) != vec_len:
                raise EvaluationError(
                    f"{label} has {len(vec)} slots, expected {vec_len}"
                )
            values[vid] = vec

    try:
        order = graph.topology.order
    except ValueError:
        raise EvaluationError(duplicate_id_message(graph) or "cannot evaluate a cyclic graph") from None
    for op in map(graph.operator, order):
        values.update(zip(op.results, _apply_op(op, [values[v] for v in op.operands])))
    return values
