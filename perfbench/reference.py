"""Independent correctness reference for the benchmark.

Nothing here imports ``fabric_est``.  The module reads circuit text with
its own line parser, evaluates Boolean circuits bit-sliced (one Python
int carries one bit of every test vector), computes the three depth
figures with its own DP/BFS, and renders the report numbers the CLI must
print for the benchmark's own hardware config.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter, deque
from dataclasses import dataclass, field

# Every op tag in declaration order (the JSON report keeps this order).
BOOL_TAGS = ("and", "nand", "nor", "or", "xor", "xnor", "not", "packed",
             "lut2", "lut3", "lut_lincomb", "multi_lut_lincomb")
CKKS_TAGS = ("add", "add_plain", "sub", "sub_plain", "mul", "mul_plain",
             "rotate", "extract", "negate", "relinearize", "rescale")
ALL_TAGS = BOOL_TAGS + CKKS_TAGS

# The benchmark's own hardware model: distinct, non-default numbers so a
# report computed from the built-in profile cannot pass by accident.
FABRIC = {"fcs_per_chip": 8192, "occupancy": 0.75, "chips_per_board": 3,
          "unit_time_per_gate": 1.25}
COSTS = {
    "and": {"fcs": 256}, "nand": {"fcs": 252}, "nor": {"fcs": 240},
    "or": {"fcs": 248}, "xor": {"fcs": 264}, "xnor": {"fcs": 272},
    "not": {"fcs": 16}, "packed": {"fcs": 64}, "lut2": {"fcs": 200},
    "lut3": {"fcs": 320, "tiles": 1}, "lut_lincomb": {"fcs": 192},
    "multi_lut_lincomb": {"fcs": 384},
    "add": {"fcs": 512, "hbm_bytes": 64}, "add_plain": {"fcs": 480},
    "sub": {"fcs": 512}, "sub_plain": {"fcs": 480},
    "mul": {"fcs": 1024, "ddr_bytes": 4096},
    "mul_plain": {"fcs": 640, "ddr_bytes": 2048},
    "rotate": {"fcs": 768, "hbm_bytes": 4096}, "extract": {"fcs": 256},
    "negate": {"fcs": 128}, "relinearize": {"fcs": 896},
    "rescale": {"fcs": 384, "tiles": 2},
}
USABLE_FCS = math.floor(FABRIC["fcs_per_chip"] * FABRIC["occupancy"])
UNIT_TIME = FABRIC["unit_time_per_gate"]

# Text-report row labels of the tags the text-mode invocations produce.
TEXT_LABELS = {"and": "AndOp", "add": "AddOp", "mul_plain": "MulPlainOp",
               "rotate": "RotateOp"}


def config_json() -> str:
    return json.dumps({"fabric": FABRIC, "costs": COSTS}, indent=2) + "\n"


class Mismatch(Exception):
    """A report or circuit disagrees with the reference."""


@dataclass
class Op:
    tag: str
    operands: list[str]
    results: list[str]
    attrs: dict[str, object] = field(default_factory=dict)


@dataclass
class Circuit:
    name: str
    args: list[str]
    ops: list[Op]
    returns: list[str]


_HEADER = re.compile(r"func @(\w+)\((.*)\) ->")
_STMT = re.compile(r"(%[^=]+?) = scifr_(?:bool|ckks)\.(\w+)\s*([^{:]*)(\{[^}]*\})? : ")
_ATTR = re.compile(r"(\w+) = (\[[^\]]*\]|-?\d+)")


def _names(text: str) -> list[str]:
    return [t.strip()[1:] for t in text.split(",") if t.strip()]


def read_circuit(text: str) -> Circuit:
    """Read one function in the canonical one-statement-per-line form."""
    lines = text.splitlines()
    m = _HEADER.match(lines[0]) if lines else None
    if m is None:
        raise Mismatch("circuit text has no function header")
    args = [a.split(":")[0].strip()[1:] for a in m.group(2).split(",") if a.strip()]
    ops: list[Op] = []
    returns: list[str] | None = None
    for line in lines[1:]:
        line = line.strip()
        if line.startswith("return"):
            returns = _names(line[len("return"):].split(":")[0])
            continue
        if line in ("", "}"):
            continue
        s = _STMT.match(line)
        if s is None:
            raise Mismatch(f"unreadable statement: {line!r}")
        attrs = {k: json.loads(v) for k, v in _ATTR.findall(s.group(4) or "")}
        ops.append(Op(s.group(2), _names(s.group(3)), _names(s.group(1)), attrs))
    if returns is None:
        raise Mismatch("circuit text has no return")
    return Circuit(m.group(1), args, ops, returns)


# ---------------------------------------------------------------------------
# Bit-sliced Boolean evaluation


def _lut(mask: int, index_of, ins: list[int], full: int) -> int:
    """Output of a LUT over `ins`; index_of maps an input combination
    (operand 0 least significant) to the truth-table row."""
    out = 0
    for combo in range(1 << len(ins)):
        if not (mask >> index_of(combo)) & 1:
            continue
        term = full
        for slot, v in enumerate(ins):
            term &= v if (combo >> slot) & 1 else ~v & full
        out |= term
    return out


_GATES = {
    "and": lambda a, b, f: a & b, "nand": lambda a, b, f: ~(a & b) & f,
    "or": lambda a, b, f: a | b, "nor": lambda a, b, f: ~(a | b) & f,
    "xor": lambda a, b, f: a ^ b, "xnor": lambda a, b, f: ~(a ^ b) & f,
}


def evaluate(circuit: Circuit, inputs: dict[str, int], width: int) -> list[int]:
    """Returned values of a Boolean circuit; each input is a `width`-bit
    int holding that argument's bit in every test vector."""
    full = (1 << width) - 1
    env = dict(inputs)
    for op in (circuit.ops[i] for i in graph_of(circuit).order):
        ins = [env[v] for v in op.operands]
        if op.tag in _GATES:
            out = _GATES[op.tag](ins[0], ins[1], full)
        elif op.tag == "not":
            out = ~ins[0] & full
        elif op.tag in ("lut2", "lut3"):
            out = _lut(op.attrs["lut"], lambda c: c, ins, full)
        elif op.tag == "lut_lincomb":
            coeffs = op.attrs["coeffs"]
            out = _lut(op.attrs["lut"],
                       lambda c: sum(k for i, k in enumerate(coeffs) if (c >> i) & 1),
                       ins, full)
        else:
            raise Mismatch(f"no reference semantics for '{op.tag}'")
        env[op.results[0]] = out
    return [env[v] for v in circuit.returns]


def bits_to_words(slices: list[int], width: int) -> list[int]:
    """Transpose bit slices (bit i of every vector) into one int per vector."""
    return [sum(((s >> j) & 1) << i for i, s in enumerate(slices)) for j in range(width)]


# ---------------------------------------------------------------------------
# Graph structure and depth figures (op index = statement position)


@dataclass
class Graph:
    preds: list[list[int]]   # producing ops of each op's operands, sorted
    succs: list[list[int]]
    arg_succs: dict[str, list[int]]
    sinks: list[int]
    order: list[int]         # a topological order of op indices


def graph_of(circuit: Circuit) -> Graph:
    producer = {r: i for i, op in enumerate(circuit.ops) for r in op.results}
    preds = [sorted({producer[v] for v in op.operands if v in producer})
             for op in circuit.ops]
    succs: list[list[int]] = [[] for _ in circuit.ops]
    arg_succs: dict[str, list[int]] = {a: [] for a in circuit.args}
    for i, op in enumerate(circuit.ops):
        for p in preds[i]:
            succs[p].append(i)
        for a in dict.fromkeys(v for v in op.operands if v in arg_succs):
            arg_succs[a].append(i)
    indeg = [len(p) for p in preds]
    ready = deque(i for i, d in enumerate(indeg) if d == 0)
    order: list[int] = []
    while ready:
        i = ready.popleft()
        order.append(i)
        for s in succs[i]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if len(order) != len(circuit.ops):
        raise Mismatch("circuit has a dependency cycle")
    sinks = [i for i, s in enumerate(succs) if not s]
    return Graph(preds, succs, arg_succs, sinks, order)


def depths(g: Graph) -> dict[str, int]:
    """Depth by each method's documented definition: ops that are not
    sinks (approx); the longest of the shortest argument-to-sink paths
    (paper-exact); the longest op path (longest)."""
    longest = [0] * len(g.preds)
    for i in g.order:
        longest[i] = 1 + max((longest[p] for p in g.preds[i]), default=0)
    sinks = set(g.sinks)
    paper = 0
    for starts in g.arg_succs.values():
        dist = dict.fromkeys(starts, 1)
        queue = deque(starts)
        while queue:
            i = queue.popleft()
            if i in sinks:
                paper = max(paper, dist[i])
            for s in g.succs[i]:
                if s not in dist:
                    dist[s] = dist[i] + 1
                    queue.append(s)
    n = len(g.preds)
    return {"approx": n - len(sinks) if n else 0, "paper-exact": paper,
            "longest": max(longest, default=0)}


def check_path(g: Graph, method: str, ops: list[int], depth: int) -> None:
    """A reported op list must have the reference depth and be a path of
    the kind its method describes."""
    if len(ops) != depth:
        raise Mismatch(f"{method}: {len(ops)} ops listed for depth {depth}")
    if method == "approx":
        if sorted(ops) != sorted(set(range(len(g.preds))) - set(g.sinks)):
            raise Mismatch("approx: ops are not the non-sink operators")
        return
    if not ops:
        return
    if any(a not in g.preds[b] for a, b in zip(ops, ops[1:])):
        raise Mismatch(f"{method}: listed ops do not form a path")
    if g.succs[ops[-1]]:
        raise Mismatch(f"{method}: path does not end at a sink")
    if method == "paper-exact" and not any(ops[0] in s for s in g.arg_succs.values()):
        raise Mismatch("paper-exact: path does not start at an argument")


# ---------------------------------------------------------------------------
# Expected reports


def resources(tag_counts: Counter) -> dict:
    """The `resources` numbers for these op-tag counts under COSTS."""
    def total(key: str) -> int:
        return sum(n * COSTS[t].get(key, 0) for t, n in tag_counts.items())

    fcs = total("fcs")
    chips = max(1, math.ceil(fcs / USABLE_FCS))
    return {
        "op_count": sum(tag_counts.values()),
        "per_kind_fcs": {t: tag_counts.get(t, 0) * COSTS[t]["fcs"] for t in ALL_TAGS},
        "total_fcs": fcs, "total_hbm_bytes": total("hbm_bytes"),
        "total_ddr_bytes": total("ddr_bytes"), "total_tiles": total("tiles"),
        "chips": chips, "boards": math.ceil(chips / FABRIC["chips_per_board"]),
    }


def text_report(tag_counts: Counter | None, cp: dict[str, int] | None,
                throughput_batch: int | None = None) -> str:
    """The text report for an estimate (tag counts), the three depths and
    a throughput batch; each part is optional as in the CLI."""
    lines = []
    if tag_counts is not None:
        r = resources(tag_counts)
        rows = sorted((TEXT_LABELS[t], f) for t, f in r["per_kind_fcs"].items() if f)
        lines += [f"{label} (FCs)  {f}" for label, f in rows]
        lines.append(f"Total FCs  {r['total_fcs']}")
        for key, label in (("total_hbm_bytes", "HBM Bytes"),
                           ("total_ddr_bytes", "DDR Bytes"), ("total_tiles", "Tiles")):
            if r[key]:
                lines.append(f"Total {label}  {r[key]}")
        lines += [f"Total Mx2 Chips  {r['chips']}", f"Total Mx8 Boards  {r['boards']}"]
    if cp is not None:
        lines += [f"Critical Path ({m}): depth {d}, latency {d * UNIT_TIME:g}"
                  for m, d in cp.items()]
    if throughput_batch is not None:
        lines.append(f"Throughput @ batch {throughput_batch}: "
                     f"{throughput_batch // cp['longest']}")
    return "".join(line + "\n" for line in lines)


def check_json_report(text: str, manifest: dict, function: str,
                      tag_counts: Counter, g: Graph, cp: dict[str, int]) -> None:
    """Compare a JSON report with the reference numbers; each critical
    path's op list must be a valid path on `g`."""
    doc = json.loads(text)
    want_res = {"function": function, **resources(tag_counts)}
    got_manifest = dict(doc.get("manifest") or {})
    # exit_status is always 0 and may be dropped from the manifest.
    if got_manifest.pop("exit_status", 0) != 0 or got_manifest != {**manifest, "format": "json"}:
        raise Mismatch(f"manifest {doc.get('manifest')}")
    if doc.get("resources") != want_res:
        raise Mismatch(f"resources {doc.get('resources')} != {want_res}")
    got = doc.get("critical_path") or []
    if [c.get("method") for c in got] != list(cp):
        raise Mismatch(f"critical-path methods {[c.get('method') for c in got]}")
    for c in got:
        method, depth = c["method"], cp[c["method"]]
        if c["depth"] != depth or c["latency_unit_time"] != depth * UNIT_TIME:
            raise Mismatch(f"{method}: depth {c['depth']} latency "
                           f"{c['latency_unit_time']}, want {depth}")
        check_path(g, method, c["ops"], depth)
    if doc.get("throughput") is not None:
        raise Mismatch("unexpected throughput section")
