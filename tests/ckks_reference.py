"""A reference evaluator of CKKS circuits that shares no code with fabric_est.

It reads printed IR with its own regexes and runs slot vectors of Python
numbers through the eleven CKKS ops: elementwise add, sub and mul (each
`_plain` form takes the plaintext as its second operand), negate, rotate
(result slot i reads slot i + offset, mod the slot count), extract (every
slot reads slot `index`), and relinearize and rescale, which are the
identity.  An op runs once its operands are known, so statement order is
free.  Stdlib only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_HEADER_RE = re.compile(r"^func @\w+\((?P<args>[^)]*)\)")
_ARG_RE = re.compile(r"%(\w+)\s*:\s*(!ct|!pt)")
_OP_RE = re.compile(
    r"^\s*%(?P<result>\w+)\s*=\s*scifr_ckks\.(?P<tag>\w+)"
    r"(?P<operands>[^{:]*)(?:\{(?P<attrs>[^}]*)\})?\s*:"
)
_RETURN_RE = re.compile(r"^\s*return\b(?P<values>[^:]*):")
_NAME_RE = re.compile(r"%(\w+)")
_ATTR_RE = re.compile(r"(\w+)\s*=\s*(-?\d+)")

BINARY = {"add", "sub", "mul"}
PLAIN = {"add_plain", "sub_plain", "mul_plain"}
UNARY = {"rotate", "extract", "negate", "relinearize", "rescale"}


class Refused(Exception):
    """The circuit or its inputs have no value under the reference."""


@dataclass
class Op:
    tag: str
    operands: list[str]
    result: str
    attrs: dict[str, int]


@dataclass
class Circuit:
    arguments: dict[str, str]  # name -> "!ct" or "!pt", in order
    ops: list[Op]
    returns: list[str]


def read_circuit(text: str) -> Circuit:
    """The arguments, op statements and returned names of printed IR."""
    arguments: dict[str, str] = {}
    ops: list[Op] = []
    returns: list[str] = []
    for line in text.splitlines():
        if m := _HEADER_RE.match(line):
            arguments = dict(_ARG_RE.findall(m["args"]))
        elif m := _OP_RE.match(line):
            attrs = {k: int(v) for k, v in _ATTR_RE.findall(m["attrs"] or "")}
            ops.append(Op(m["tag"], _NAME_RE.findall(m["operands"]), m["result"], attrs))
        elif m := _RETURN_RE.match(line):
            returns = _NAME_RE.findall(m["values"])
    return Circuit(arguments, ops, returns)


def _apply(op: Op, args: list[tuple], types: list[str]) -> tuple:
    if op.tag in BINARY | PLAIN:
        want = ["!ct", "!pt" if op.tag in PLAIN else "!ct"]
    elif op.tag in UNARY:
        want = ["!ct"]
    else:
        raise Refused(f"no CKKS op {op.tag}")
    if types != want:
        raise Refused(f"{op.tag} %{op.result} takes {want}, got {types}")
    v = args[0]
    n = len(v)
    if op.tag in ("add", "add_plain"):
        return tuple(a + b for a, b in zip(v, args[1]))
    if op.tag in ("sub", "sub_plain"):
        return tuple(a - b for a, b in zip(v, args[1]))
    if op.tag in ("mul", "mul_plain"):
        return tuple(a * b for a, b in zip(v, args[1]))
    if op.tag == "negate":
        return tuple(-a for a in v)
    if op.tag == "rotate":
        k = op.attrs["offset"]
        return tuple(v[(i + k) % n] for i in range(n))
    if op.tag == "extract":
        i = op.attrs["index"]
        if not 0 <= i < n:
            raise Refused(f"extract %{op.result} reads slot {i} of {n}")
        return (v[i],) * n
    return v  # relinearize, rescale


def evaluate(circuit: Circuit, inputs: dict[str, list]) -> dict[str, tuple]:
    """Every value of the circuit by printed name, from one slot vector per
    argument name; all vectors have the same, non-zero length."""
    if set(inputs) != set(circuit.arguments):
        raise Refused(f"inputs for {sorted(inputs)}, arguments {sorted(circuit.arguments)}")
    values = {name: tuple(vec) for name, vec in inputs.items()}
    lengths = {len(vec) for vec in values.values()}
    if len(lengths) > 1 or 0 in lengths:
        raise Refused(f"slot vectors of lengths {sorted(lengths)}")
    types = dict(circuit.arguments)
    pending = circuit.ops
    while pending:
        later = []
        for op in pending:
            if all(v in values for v in op.operands):
                args = [values[v] for v in op.operands]
                values[op.result] = _apply(op, args, [types[v] for v in op.operands])
                types[op.result] = "!ct"
            else:
                later.append(op)
        if len(later) == len(pending):
            raise Refused(f"%{later[0].result} reads a value that is never defined")
        pending = later
    if any(v not in values for v in circuit.returns):
        raise Refused("a returned value is never defined")
    return values
