"""A reference for the three critical-path methods that shares no code
with fabric_est.

It reads printed IR with its own regexes and numbers ops by statement
position.  Op j follows op i when j reads a result of i.  A sink is an
op that no op follows.  Each method is computed from its documented
definition, with no height bound and no shared index:

* approx: the non-sinks in Kahn's order, the smallest ready op first;
* paper-exact: one BFS per argument, in argument order, neighbours
  ascending.  Each BFS offers its deepest reached sink, the smallest one
  at that depth, with the BFS-tree path to it.  The first offer is kept
  unless a later one is strictly deeper;
* longest: of the op sequences along edges, the lexicographically
  smallest of the greatest length.

Reported ops exclude the source argument.
"""

from __future__ import annotations

import heapq
import re
from collections import deque
from dataclasses import dataclass

_HEADER_RE = re.compile(r"^func\s+@\w+\((?P<args>[^)]*)\)")
_ARG_RE = re.compile(r"%(\w+)\s*:")
_OP_RE = re.compile(
    r"^\s*(?P<results>%\w+(?:\s*,\s*%\w+)*)\s*=\s*scifr_\w+\.\w+(?P<operands>[^{:]*)"
)
_NAME_RE = re.compile(r"%(\w+)")


@dataclass
class Circuit:
    arguments: list[str]
    operands: list[list[str]]  # per op position
    succs: list[list[int]]  # per op position, ascending and distinct


def read_circuit(text: str) -> Circuit:
    lines = text.splitlines()
    arguments = _ARG_RE.findall(_HEADER_RE.match(lines[0])["args"])
    operands, results = [], []
    for line in lines[1:]:
        m = _OP_RE.match(line)
        if m:
            operands.append(_NAME_RE.findall(m["operands"]))
            results.append(_NAME_RE.findall(m["results"]))
    producer = {r: i for i, names in enumerate(results) for r in names}
    succs: list[set[int]] = [set() for _ in operands]
    for j, names in enumerate(operands):
        for v in names:
            if v in producer:
                succs[producer[v]].add(j)
    return Circuit(arguments, operands, [sorted(s) for s in succs])


def kahn_order(c: Circuit) -> list[int]:
    indeg = [0] * len(c.succs)
    for below in c.succs:
        for j in below:
            indeg[j] += 1
    ready = [i for i, d in enumerate(indeg) if d == 0]
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in c.succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    assert len(order) == len(c.succs), "the printed circuit has a cycle"
    return order


def approx(c: Circuit) -> tuple[int, ...]:
    return tuple(i for i in kahn_order(c) if c.succs[i])


def deepest_sink_path(c: Circuit, argument: str) -> tuple[int, ...]:
    """The BFS-tree path from `argument` to its deepest reached sink,
    the smallest such sink; () when no op reads the argument."""
    readers = [j for j, names in enumerate(c.operands) if argument in names]
    depth = dict.fromkeys(readers, 1)
    parent = dict.fromkeys(readers)
    queue = deque(readers)
    while queue:
        i = queue.popleft()
        for j in c.succs[i]:
            if j not in depth:
                depth[j], parent[j] = depth[i] + 1, i
                queue.append(j)
    sinks = [i for i in depth if not c.succs[i]]
    if not sinks:
        return ()
    node = min(sinks, key=lambda i: (-depth[i], i))
    path = []
    while node is not None:
        path.append(node)
        node = parent[node]
    return tuple(reversed(path))


def paper_exact(c: Circuit) -> tuple[int, ...]:
    best: tuple[int, ...] = ()
    for argument in c.arguments:
        path = deepest_sink_path(c, argument)
        if len(path) > len(best):
            best = path
    return best


def _longest_first(seq: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return -len(seq), seq


def longest(c: Circuit) -> tuple[int, ...]:
    best: dict[int, tuple[int, ...]] = {}  # per op, the path it starts
    for i in reversed(kahn_order(c)):
        best[i] = min(((i,) + best[j] for j in c.succs[i]), key=_longest_first, default=(i,))
    return min(best.values(), key=_longest_first, default=())


def critical_paths(text: str) -> dict[str, tuple[int, ...]]:
    """Op positions of each method's path, keyed by its CLI name."""
    c = read_circuit(text)
    return {"approx": approx(c), "paper-exact": paper_exact(c), "longest": longest(c)}
