"""A reference for `--sectionize` plans that shares no code with fabric_est.

It reads printed IR with its own regexes, numbers ops by statement
position, orders them with its own Kahn's algorithm (ready ops in
ascending position) and packs them greedily, first fit, into sections
under its own FC costs, which `config_json` writes for `--config`.
"""

from __future__ import annotations

import heapq
import json
import re
from dataclasses import dataclass

# FC cost per op mnemonic; no two neighbours alike, so the packing is not
# a count of ops.
FCS = {
    "and": 3, "nand": 5, "nor": 7, "or": 2, "xor": 4, "xnor": 6, "not": 2, "packed": 3,
    "lut2": 5, "lut3": 9, "lut_lincomb": 8, "multi_lut_lincomb": 11,
    "add": 3, "add_plain": 2, "sub": 3, "sub_plain": 2, "mul": 13, "mul_plain": 7,
    "rotate": 5, "extract": 4, "negate": 2, "relinearize": 6, "rescale": 4,
}

_OP_RE = re.compile(
    r"^\s*(?P<results>%\w+(?:\s*,\s*%\w+)*)\s*=\s*(?P<opname>scifr_\w+\.(?P<tag>\w+))"
    r"(?P<operands>[^{:]*)(?:\{(?P<attrs>[^}]*)\})?\s*:"
)
_NAME_RE = re.compile(r"%(\w+)")
_SECTION_RE = re.compile(r"\bsection\s*=\s*(\d+)")


class Mismatch(Exception):
    """A plan breaks a rule, or differs from the reference's packing."""


@dataclass
class Op:
    opname: str
    fcs: int
    operands: list[str]
    results: list[str]
    sections: list[int]


def config_json() -> str:
    return json.dumps({"costs": {tag: {"fcs": fcs} for tag, fcs in FCS.items()}})


def read_ops(text: str) -> list[Op]:
    """The op statements of printed IR, in order."""
    ops = []
    for line in text.splitlines():
        m = _OP_RE.match(line)
        if m:
            ops.append(Op(
                m["opname"],
                FCS[m["tag"]],
                _NAME_RE.findall(m["operands"]),
                _NAME_RE.findall(m["results"]),
                [int(s) for s in _SECTION_RE.findall(m["attrs"] or "")],
            ))
    return ops


def kahn_order(ops: list[Op]) -> list[int]:
    """Op positions in dependency order, the smallest ready one first."""
    producer = {r: i for i, op in enumerate(ops) for r in op.results}
    succs: list[set[int]] = [set() for _ in ops]
    for i, op in enumerate(ops):
        for v in op.operands:
            if v in producer:
                succs[producer[v]].add(i)
    indeg = [0] * len(ops)
    for below in succs:
        for j in below:
            indeg[j] += 1
    ready = [i for i, d in enumerate(indeg) if d == 0]
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in sorted(succs[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(order) != len(ops):
        raise Mismatch("the printed circuit has a cycle")
    return order


def too_big(ops: list[Op], capacity: int) -> int | None:
    """The first op in Kahn order that no section of `capacity` holds."""
    return next((i for i in kahn_order(ops) if ops[i].fcs > capacity), None)


def greedy_count(ops: list[Op], capacity: int) -> int:
    """Sections of a first-fit packing in Kahn order (1 with no ops)."""
    count, used = 1, 0
    for i in kahn_order(ops):
        if used + ops[i].fcs > capacity and used > 0:
            count, used = count + 1, 0
        used += ops[i].fcs
    return count


def check_plan(ops: list[Op], capacity: int) -> None:
    """Raise Mismatch unless the printed sections form a plan that the
    reference's packing would give."""
    for i, op in enumerate(ops):
        if len(op.sections) != 1:
            raise Mismatch(f"op {i} has {len(op.sections)} sections")
    section = {r: op.sections[0] for op in ops for r in op.results}
    for i, op in enumerate(ops):
        for v in op.operands:
            if v in section and section[v] > op.sections[0]:
                raise Mismatch(f"op {i} in section {op.sections[0]} reads %{v} of section {section[v]}")
    sums: dict[int, int] = {}
    for op in ops:
        sums[op.sections[0]] = sums.get(op.sections[0], 0) + op.fcs
    over = {s: total for s, total in sums.items() if total > capacity}
    if over:
        raise Mismatch(f"sections over capacity {capacity}: {over}")
    count = max(sums, default=0) + 1
    want = greedy_count(ops, capacity)
    if count != want:
        raise Mismatch(f"{count} sections, first fit gives {want}")
