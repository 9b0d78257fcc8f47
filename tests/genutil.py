"""Shared helpers for the test suite: random graph generators, a
structural-isomorphism key, bit/int conversions, and a brute-force
longest-path oracle kept deliberately independent of the library's
own traversal code."""

from __future__ import annotations

import random
import re
from dataclasses import replace

from fabric_est import (
    CircuitGraph,
    GraphBuilder,
    OpKind,
    OpTag,
    ValueType,
    evaluate,
    print_circuit,
)
from fabric_est.ir import TWO_INPUT_GATES

GATES = sorted(TWO_INPUT_GATES, key=lambda t: t.value)


def int_to_bits(x: int, n: int) -> list[int]:
    """Least-significant bit first."""
    return [(x >> i) & 1 for i in range(n)]


def bits_to_int(bits) -> int:
    return sum(b << i for i, b in enumerate(bits))


def structural_key(g: CircuitGraph):
    """Canonical shape of a graph, independent of concrete value ids,
    operator ids, and textual names."""
    relabel = {}
    for vid, _ in g.arguments:
        relabel[vid] = len(relabel)
    for op in g.operators:
        for r in op.results:
            relabel[r] = len(relabel)
    ops = tuple(
        (
            op.kind.tag.value,
            tuple(sorted(op.kind.attrs().items())),
            tuple(relabel[v] for v in op.operands),
            tuple(relabel[r] for r in op.results),
            op.section,
        )
        for op in g.operators
    )
    return (
        g.name,
        tuple(t for _, t in g.arguments),
        ops,
        tuple(relabel[v] for v in g.returns),
    )


def isomorphic(g1: CircuitGraph, g2: CircuitGraph) -> bool:
    return structural_key(g1) == structural_key(g2)


def permute_operators(g: CircuitGraph, rng: random.Random) -> CircuitGraph:
    """Same graph with a shuffled stored operator order (still acyclic;
    printing it produces forward textual references)."""
    ops = list(g.operators)
    rng.shuffle(ops)
    return replace(g, operators=tuple(ops))


def not_chain(n: int, tap: int | None = None) -> CircuitGraph:
    """n Nots in a chain from one argument, the last one returned; with
    `tap`, the result of Not `tap` also feeds an xor with the last."""
    b = GraphBuilder("chain")
    v = b.argument(ValueType.LWE_CIPHERTEXT)
    results = []
    for _ in range(n):
        v = b.op(OpKind(OpTag.NOT), v)
        results.append(v)
    if tap is not None:
        v = b.op(OpKind(OpTag.XOR), results[tap], v)
    b.ret(v)
    return b.build()


def _pick(rng: random.Random, pool):
    return pool[rng.randrange(len(pool))]


_POW2 = (1, 2, 4)


def _lincomb_coeffs(rng: random.Random, arity: int) -> tuple[int, ...]:
    # Powers of two permuted: every index lands in [0, 2^arity).
    coeffs = list(_POW2[:arity])
    rng.shuffle(coeffs)
    return tuple(coeffs)


def random_bool_graph(
    rng: random.Random,
    max_ops: int = 12,
    max_args: int = 4,
    with_sections: bool = False,
) -> CircuitGraph:
    b = GraphBuilder("rand")
    nargs = rng.randint(1, max_args)
    vals = [b.argument(ValueType.LWE_CIPHERTEXT) for _ in range(nargs)]
    for _ in range(rng.randint(1, max_ops)):
        roll = rng.random()
        if roll < 0.55:
            kind = OpKind(_pick(rng, GATES))
            operands = (_pick(rng, vals), _pick(rng, vals))
        elif roll < 0.70:
            kind = OpKind(OpTag.NOT if rng.random() < 0.7 else OpTag.PACKED)
            operands = (_pick(rng, vals),)
        elif roll < 0.80:
            kind = OpKind(OpTag.LUT2, lut=rng.randrange(16))
            operands = (_pick(rng, vals), _pick(rng, vals))
        elif roll < 0.88:
            kind = OpKind(OpTag.LUT3, lut=rng.randrange(256))
            operands = tuple(_pick(rng, vals) for _ in range(3))
        elif roll < 0.96:
            arity = rng.randint(1, 3)
            kind = OpKind(
                OpTag.LUT_LINCOMB,
                coeffs=_lincomb_coeffs(rng, arity),
                lut=rng.randrange(1 << (1 << arity)),
            )
            operands = tuple(_pick(rng, vals) for _ in range(arity))
        else:
            arity = rng.randint(1, 3)
            nres = rng.randint(1, 3)
            kind = OpKind(
                OpTag.MULTI_LUT_LINCOMB,
                coeffs=_lincomb_coeffs(rng, arity),
                luts=tuple(rng.randrange(1 << (1 << arity)) for _ in range(nres)),
            )
            operands = tuple(_pick(rng, vals) for _ in range(arity))
        if kind.num_results == 1:
            vals.append(b.op(kind, *operands))
        else:
            vals.extend(b.multi_op(kind, *operands))
    b.ret(*rng.sample(vals, rng.randint(1, min(3, len(vals)))))
    g = b.build()
    if with_sections:
        ops, sec = [], 0
        for op in g.operators:
            ops.append(replace(op, section=sec))
            if rng.random() < 0.3:
                sec += 1
        g = replace(g, operators=tuple(ops))
    return g


_CKKS_BINARY = (OpTag.ADD, OpTag.SUB, OpTag.MUL)
_CKKS_PLAIN = (OpTag.ADD_PLAIN, OpTag.SUB_PLAIN, OpTag.MUL_PLAIN)
_CKKS_UNARY = (OpTag.NEGATE, OpTag.RELINEARIZE, OpTag.RESCALE)


def random_ckks_graph(rng: random.Random, max_ops: int = 10) -> CircuitGraph:
    b = GraphBuilder("randc")
    cts = [b.argument(ValueType.CKKS_CIPHERTEXT) for _ in range(rng.randint(1, 3))]
    pts = [b.argument(ValueType.CKKS_PLAINTEXT) for _ in range(rng.randint(1, 2))]
    for _ in range(rng.randint(1, max_ops)):
        roll = rng.random()
        if roll < 0.35:
            kind = OpKind(_pick(rng, _CKKS_BINARY))
            operands = (_pick(rng, cts), _pick(rng, cts))
        elif roll < 0.60:
            kind = OpKind(_pick(rng, _CKKS_PLAIN))
            operands = (_pick(rng, cts), _pick(rng, pts))
        elif roll < 0.75:
            kind = OpKind(_pick(rng, _CKKS_UNARY))
            operands = (_pick(rng, cts),)
        elif roll < 0.90:
            kind = OpKind(OpTag.ROTATE, offset=rng.randrange(8))
            operands = (_pick(rng, cts),)
        else:
            kind = OpKind(OpTag.EXTRACT, index=rng.randrange(8))
            operands = (_pick(rng, cts),)
        cts.append(b.op(kind, *operands))
    b.ret(*rng.sample(cts, rng.randint(1, min(2, len(cts)))))
    return b.build()


def eval_all_bool(g: CircuitGraph) -> dict[int, tuple]:
    """Return values for every input assignment, keyed by the packed
    input vector (argument i is bit i)."""
    args = [vid for vid, _ in g.arguments]
    table = {}
    for x in range(1 << len(args)):
        env = evaluate(g, {vid: (x >> i) & 1 for i, vid in enumerate(args)})
        table[x] = tuple(env[r] for r in g.returns)
    return table


def rand_vec(rng: random.Random, n: int = 8) -> tuple[float, ...]:
    return tuple(rng.uniform(-2.0, 2.0) for _ in range(n))


def vec_close(u, v, tol: float = 1e-9) -> bool:
    return len(u) == len(v) and all(abs(a - b) <= tol for a, b in zip(u, v))


def brute_force_longest_path(g: CircuitGraph) -> tuple[int, tuple[int, ...]]:
    """Enumerate every dependency path ending at a sink operator; return
    (max op count, lexicographically smallest op-id sequence among the
    longest).  Exponential; only for small graphs."""
    producers = g.producers

    def preds(op_id: int) -> list[int]:
        op = g.operator(op_id)
        return sorted({producers[v].id for v in op.operands if v in producers})

    def paths(op_id: int):
        ps = preds(op_id)
        if not ps:
            yield (op_id,)
            return
        for p in ps:
            for head in paths(p):
                yield head + (op_id,)

    best: tuple[int, ...] | None = None
    for sink in sorted(g.sink_op_ids):
        for path in paths(sink):
            if (
                best is None
                or len(path) > len(best)
                or (len(path) == len(best) and path < best)
            ):
                best = path
    if best is None:
        return 0, ()
    return len(best), best


# One lexical piece of circuit text: a whitespace run or a token.
_PIECE_RE = re.compile(r"\s+|->|%\w+|@\w+|![A-Za-z_]+|-?\d+|[A-Za-z_][\w.]*|\S")
_SPLICES = (
    "%0", "%1", "%a0", "%a1", ",", "=", ":", "(", ")", "{", "}", "[", "]", "->",
    "!lwe", "!ct", "!pt", "!x", "-1", "0", "2", "255", "[]", "[1, 2]", "lut",
    "luts", "coeffs", "index", "offset", "section", "{section = -1}",
    "{lut = 6}", "scifr_bool.not", "scifr_bool.lut2", "scifr_ckks.extract",
    "scifr_bool.nope", "return", "func", "@g", "#", "// note",
)


def mutate_text(rng: random.Random, text: str) -> str:
    """One to three random edits to circuit text: delete, duplicate or
    swap operator lines; point a value use at another value; set an
    integer; or delete, duplicate, swap or replace one token (from a
    pool of tokens and fragments)."""
    for _ in range(rng.choices((1, 2, 3), (6, 3, 1))[0]):
        roll = rng.random()
        lines = text.split("\n")
        if roll < 0.15 and len(lines) > 4:
            i, j = rng.randrange(1, len(lines) - 3), rng.randrange(1, len(lines) - 3)
            if roll < 0.05:
                del lines[i]
            elif roll < 0.09:
                lines.insert(i, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
            continue
        pieces = _PIECE_RE.findall(text)
        spots = [k for k, p in enumerate(pieces) if not p.isspace()]
        values = [k for k in spots if pieces[k].startswith("%")]
        ints = [k for k in spots if pieces[k].lstrip("-").isdigit()]
        if roll < 0.35 and values:
            pieces[_pick(rng, values)] = pieces[_pick(rng, values)]
        elif roll < 0.5 and ints:
            pieces[_pick(rng, ints)] = str(rng.randint(-3, 300))
        elif spots:
            k = _pick(rng, spots)
            if roll < 0.62:
                del pieces[k]
            elif roll < 0.7:
                pieces[k:k] = [pieces[k], " "]
            elif roll < 0.78:
                m = _pick(rng, spots)
                pieces[k], pieces[m] = pieces[m], pieces[k]
            else:
                pieces[k] = _pick(rng, _SPLICES)
        text = "".join(pieces)
    return text


def mutation_corpus(seed: int, count: int):
    """`count` mutated texts of small random Boolean (with and without
    sections) and CKKS graphs, reproducible from `seed`."""
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.6:
            g = random_bool_graph(rng, max_ops=6, with_sections=rng.random() < 0.5)
        else:
            g = random_ckks_graph(rng, max_ops=5)
        yield mutate_text(rng, print_circuit(g))


# Raw JSON value tokens for config fields: extreme ints and floats, the
# NaN and Infinity tokens json.loads accepts, 4,300- and 4,301-digit
# literals, and values of the wrong type.
_CONFIG_VALUES = (
    "0", "1", "-1", "3", "4096", "9007199254740993", "1" + "0" * 400,
    "9" * 4300, "9" * 4301, "0.5", "1.0", "-0.0", "5e-324", "1e-308",
    "1e308", "1.7976931348623157e308", "2e400", "NaN", "Infinity",
    "-Infinity", '"7"', "true", "null", "[]", "{}",
)
_FABRIC_KEYS = ("fcs_per_chip", "occupancy", "chips_per_board", "unit_time_per_gate")
_COST_KEYS = ("fcs", "hbm_bytes", "ddr_bytes", "tiles")


def _config_text(doc) -> str:
    """JSON text of `doc`, a nest of dicts whose leaves are raw JSON
    tokens, or one raw token."""
    if isinstance(doc, str):
        return doc
    return "{" + ", ".join(f'"{k}": {_config_text(v)}' for k, v in doc.items()) + "}"


def mutate_config(rng: random.Random):
    """A complete config (every op tag costed) with one to three random
    edits: set a fabric or cost field to an extreme or mistyped value,
    delete a key, add an unknown key, or replace a section with a raw
    value.  Returned as JSON text."""
    doc = {
        "fabric": {"fcs_per_chip": "4096", "occupancy": "0.5", "chips_per_board": "4",
                   "unit_time_per_gate": "1.0"},
        "costs": {tag.value: {"fcs": "256", "hbm_bytes": "0"} for tag in OpTag},
    }
    for _ in range(rng.choices((1, 2, 3), (6, 3, 1))[0]):
        roll = rng.random()
        costs = doc.get("costs")
        costs = costs if isinstance(costs, dict) else {}
        entries = [e for e in costs.values() if isinstance(e, dict)]
        fabric = doc.get("fabric")
        if roll < 0.4 and isinstance(fabric, dict):
            fabric[_pick(rng, _FABRIC_KEYS)] = _pick(rng, _CONFIG_VALUES)
        elif roll < 0.8 and entries:
            # one op's cost, or every op's, so that the circuit uses it
            key, value = _pick(rng, _COST_KEYS), _pick(rng, _CONFIG_VALUES)
            for entry in entries if rng.random() < 0.5 else [_pick(rng, entries)]:
                entry[key] = value
        elif roll < 0.88:
            # a missing key: a section, an op tag or a fabric field
            section = _pick(rng, ("fabric", "costs"))
            keys = list(doc[section]) if isinstance(doc.get(section), dict) else []
            if rng.random() < 0.2 or not keys:
                doc.pop(section, None)
            else:
                del doc[section][_pick(rng, keys)]
        elif roll < 0.94:
            # an unknown key, at the top, in a section or in a cost entry
            where = [doc, *(s for s in doc.values() if isinstance(s, dict))]
            if entries:
                where.append(_pick(rng, entries))
            _pick(rng, where)["bogus"] = _pick(rng, _CONFIG_VALUES)
        elif roll < 0.98:
            doc[_pick(rng, ("fabric", "costs"))] = _pick(rng, _CONFIG_VALUES)
        else:
            return _pick(rng, _CONFIG_VALUES)
    return _config_text(doc)


def config_corpus(seed: int, count: int):
    """`count` mutated config texts, reproducible from `seed`."""
    rng = random.Random(seed)
    for _ in range(count):
        yield mutate_config(rng)
