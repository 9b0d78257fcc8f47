"""Built-in example circuits.

Every fixture builds a CircuitGraph through GraphBuilder, so the results
are valid by construction and print round-trippably.  Parameterized
fixtures take a single positive integer (bit width, term count, ...).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .ir import CircuitGraph, GraphBuilder, OpKind, OpTag, ValueId, ValueType


class FixtureError(ValueError):
    """Unknown fixture name or unusable parameter."""


def _and(b: GraphBuilder, x: ValueId, y: ValueId) -> ValueId:
    return b.op(OpKind(OpTag.AND), x, y)


def _or(b: GraphBuilder, x: ValueId, y: ValueId) -> ValueId:
    return b.op(OpKind(OpTag.OR), x, y)


def _xor(b: GraphBuilder, x: ValueId, y: ValueId) -> ValueId:
    return b.op(OpKind(OpTag.XOR), x, y)


def _full_sum(b: GraphBuilder, x: ValueId, y: ValueId, z: ValueId) -> tuple[ValueId, ValueId]:
    """Full-adder cell: returns (sum, carry)."""
    s1 = _xor(b, x, y)
    s = _xor(b, s1, z)
    c1 = _and(b, x, y)
    c2 = _and(b, s1, z)
    return s, _or(b, c1, c2)


def _half_sum(b: GraphBuilder, x: ValueId, y: ValueId) -> tuple[ValueId, ValueId]:
    """Half-adder cell: returns (sum, carry)."""
    return _xor(b, x, y), _and(b, x, y)


def build_and_gate() -> CircuitGraph:
    """Four independent And gates over eight inputs."""
    b = GraphBuilder("and_gate")
    args = [b.argument(ValueType.LWE_CIPHERTEXT) for _ in range(8)]
    outs = [_and(b, args[2 * i], args[2 * i + 1]) for i in range(4)]
    b.ret(*outs)
    return b.build()


def build_half_adder() -> CircuitGraph:
    b = GraphBuilder("half_adder")
    a = b.argument(ValueType.LWE_CIPHERTEXT, name="a")
    c = b.argument(ValueType.LWE_CIPHERTEXT, name="b")
    s, carry = _half_sum(b, a, c)
    b.ret(s, carry)
    return b.build()


def build_full_adder() -> CircuitGraph:
    b = GraphBuilder("full_adder")
    a = b.argument(ValueType.LWE_CIPHERTEXT, name="a")
    c = b.argument(ValueType.LWE_CIPHERTEXT, name="b")
    cin = b.argument(ValueType.LWE_CIPHERTEXT, name="cin")
    s, cout = _full_sum(b, a, c, cin)
    b.ret(s, cout)
    return b.build()


def build_ripple_adder(n: int) -> CircuitGraph:
    """n-bit ripple-carry adder; returns n sum bits then the carry out,
    all least-significant first."""
    if n < 1:
        raise FixtureError("ripple-adder width must be at least 1")
    b = GraphBuilder(f"ripple_adder{n}")
    xs = [b.argument(ValueType.LWE_CIPHERTEXT, name=f"a{i}") for i in range(n)]
    ys = [b.argument(ValueType.LWE_CIPHERTEXT, name=f"b{i}") for i in range(n)]
    sums: list[ValueId] = []
    s, carry = _half_sum(b, xs[0], ys[0])
    sums.append(s)
    for i in range(1, n):
        s, carry = _full_sum(b, xs[i], ys[i], carry)
        sums.append(s)
    b.ret(*sums, carry)
    return b.build()


def build_array_mult(n: int) -> CircuitGraph:
    """n x n array multiplier; returns the 2n product bits least-significant
    first.  Columns are reduced carry-save style with adder cells; column
    2n-2 starts with at most three values, so the top column gets at most
    one carry and needs no cell."""
    if n < 1:
        raise FixtureError("array-mult width must be at least 1")
    b = GraphBuilder(f"array_mult{n}")
    xs = [b.argument(ValueType.LWE_CIPHERTEXT, name=f"a{i}") for i in range(n)]
    ys = [b.argument(ValueType.LWE_CIPHERTEXT, name=f"b{i}") for i in range(n)]

    cols: list[list[ValueId]] = [[] for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            cols[i + j].append(_and(b, xs[i], ys[j]))

    bits: list[ValueId] = []
    for c in range(2 * n - 1):
        col = cols[c]
        while len(col) >= 3:
            x, y, z = col[0], col[1], col[2]
            del col[:3]
            s, carry = _full_sum(b, x, y, z)
            col.append(s)
            cols[c + 1].append(carry)
        if len(col) == 2:
            s, carry = _half_sum(b, col[0], col[1])
            col[:] = [s]
            cols[c + 1].append(carry)
        bits.append(col[0])

    top = cols[2 * n - 1]
    if not top:
        # n == 1: bit 2n-1 is always zero; Xor of a value with itself.
        top.append(_xor(b, bits[0], bits[0]))
    (high,) = top
    bits.append(high)

    b.ret(*bits)
    return b.build()


def build_lut_canonicalize() -> CircuitGraph:
    """Two chained lookup tables, a seed for canonicalization tests."""
    b = GraphBuilder("lut_canonicalize")
    a = b.argument(ValueType.LWE_CIPHERTEXT, name="a")
    c = b.argument(ValueType.LWE_CIPHERTEXT, name="b")
    d = b.argument(ValueType.LWE_CIPHERTEXT, name="c")
    l2 = b.op(OpKind(OpTag.LUT2, lut=0b0110), a, c)
    l3 = b.op(OpKind(OpTag.LUT3, lut=0b10010110), l2, c, d)
    b.ret(l3)
    return b.build()


_TABLE3_BLOCKS = (
    (OpTag.AND, 44),
    (OpTag.NAND, 44),
    (OpTag.XNOR, 18),
    (OpTag.XOR, 35),
)


def build_table3_mult8() -> CircuitGraph:
    """A 141-operator gate chain with the operator mix of an 8-bit
    multiplier: 44 And, 44 Nand, 18 XNor, 35 Xor."""
    b = GraphBuilder("table3_mult8")
    prev = b.argument(ValueType.LWE_CIPHERTEXT, name="a")
    other = b.argument(ValueType.LWE_CIPHERTEXT, name="b")
    for tag, count in _TABLE3_BLOCKS:
        for _ in range(count):
            prev = b.op(OpKind(tag), prev, other)
    b.ret(prev)
    return b.build()


def build_ckks_dot_product(n: int) -> CircuitGraph:
    """Slotwise dot product of the first n slots; slot 0 of the result
    holds sum(x[i] * w[i] for i < n)."""
    if n < 1:
        raise FixtureError("ckks-dot-product length must be at least 1")
    b = GraphBuilder(f"ckks_dot_product{n}")
    x = b.argument(ValueType.CKKS_CIPHERTEXT, name="x")
    w = b.argument(ValueType.CKKS_PLAINTEXT, name="w")
    terms: list[ValueId] = []
    for i in range(n):
        m = b.op(OpKind(OpTag.MUL_PLAIN), x, w)
        if i > 0:
            m = b.op(OpKind(OpTag.ROTATE, offset=i), m)
        terms.append(m)
    while len(terms) > 1:
        nxt = [
            b.op(OpKind(OpTag.ADD), terms[k], terms[k + 1])
            for k in range(0, len(terms) - 1, 2)
        ]
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
    scaled = b.op(OpKind(OpTag.RESCALE), terms[0])
    out = b.op(OpKind(OpTag.EXTRACT, index=0), scaled)
    b.ret(out)
    return b.build()


def build_ckks_box_blur(k: int) -> CircuitGraph:
    """Sum of k adjacent slots, then a plaintext scale; slot j of the
    accumulator holds x[j] + x[j+1] + ... + x[j+k-1] (cyclic)."""
    if k < 1:
        raise FixtureError("ckks-box-blur window must be at least 1")
    b = GraphBuilder(f"ckks_box_blur{k}")
    x = b.argument(ValueType.CKKS_CIPHERTEXT, name="x")
    scale = b.argument(ValueType.CKKS_PLAINTEXT, name="scale")
    acc = x
    for j in range(1, k):
        r = b.op(OpKind(OpTag.ROTATE, offset=j), x)
        acc = b.op(OpKind(OpTag.ADD), acc, r)
    out = b.op(OpKind(OpTag.MUL_PLAIN), acc, scale)
    b.ret(out)
    return b.build()


def build_ckks_simple_sum(n: int) -> CircuitGraph:
    """Rotate-and-add reduction of the first n slots (n a power of two);
    slot 0 of the result holds their sum."""
    if n < 1:
        raise FixtureError("ckks-simple-sum length must be at least 1")
    if n & (n - 1):
        raise FixtureError("ckks-simple-sum length must be a power of two")
    b = GraphBuilder(f"ckks_simple_sum{n}")
    acc = b.argument(ValueType.CKKS_CIPHERTEXT, name="x")
    step = 1
    while step < n:
        r = b.op(OpKind(OpTag.ROTATE, offset=step), acc)
        acc = b.op(OpKind(OpTag.ADD), acc, r)
        step *= 2
    out = b.op(OpKind(OpTag.EXTRACT, index=0), acc)
    b.ret(out)
    return b.build()


@dataclass(frozen=True)
class _Entry:
    build: Callable[..., CircuitGraph]
    default: int | None  # None: the fixture takes no parameter


_FIXTURES: dict[str, _Entry] = {
    "and-gate": _Entry(build_and_gate, None),
    "half-adder": _Entry(build_half_adder, None),
    "full-adder": _Entry(build_full_adder, None),
    "ripple-adder": _Entry(build_ripple_adder, 4),
    "array-mult": _Entry(build_array_mult, 4),
    "lut-canonicalize": _Entry(build_lut_canonicalize, None),
    "table3-mult8": _Entry(build_table3_mult8, None),
    "ckks-dot-product": _Entry(build_ckks_dot_product, 8),
    "ckks-box-blur": _Entry(build_ckks_box_blur, 3),
    "ckks-simple-sum": _Entry(build_ckks_simple_sum, 8),
}


def fixture_names() -> list[str]:
    return sorted(_FIXTURES)


_SPEC_RE = re.compile(r"^([A-Za-z][A-Za-z0-9-]*?)(?::([0-9]+)|\(([0-9]+)\))?$")


def parse_fixture_spec(spec: str) -> tuple[str, int | None]:
    """Split 'name', 'name:8', or 'name(8)' into (name, parameter)."""
    m = _SPEC_RE.match(spec.strip())
    if not m:
        raise FixtureError(f"malformed fixture spec '{spec}'")
    name = m.group(1)
    arg = m.group(2) or m.group(3)
    if arg is None:
        return name, None
    try:
        return name, int(arg)
    except ValueError:  # more digits than int() reads
        raise FixtureError(f"fixture parameter of '{name}' too long ({len(arg)} digits)") from None


def generate_fixture(name: str, n: int | None = None) -> CircuitGraph:
    entry = _FIXTURES.get(name)
    if entry is None:
        raise FixtureError(
            f"unknown fixture '{name}' (choose from {', '.join(fixture_names())})"
        )
    if entry.default is None:
        if n is not None:
            raise FixtureError(f"fixture '{name}' takes no parameter")
        return entry.build()
    return entry.build(entry.default if n is None else n)


def generate_from_spec(spec: str) -> CircuitGraph:
    name, n = parse_fixture_spec(spec)
    return generate_fixture(name, n)
