"""The benchmark's workloads: their inputs, CLI invocations and checks.

A workload is one round of CLI invocations.  Each invocation carries the
number of operators it reads and a check that raises
``reference.Mismatch`` when its standard output disagrees with the
independent reference.  Inputs are made in the working directory, which
is also the working directory of every invocation.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

CONFIG = "config.json"
RIPPLE_N = 400          # deep-chain: ripple-adder:400, 1,997 ops
MULT_N = 48             # wide-netlist: array-mult:48, 13,440 ops
NETLIST_OPS = 10_000    # wide-netlist: the seeded random netlist
NETLIST_ARGS = 64
BLUR_K = 4096           # ckks-emit: ckks-box-blur:4096, 8,191 ops
DOT_N = 2048            # ckks-emit: ckks-dot-product:2048, 6,144 ops
VECTORS = 64            # test vectors per bit-sliced evaluation

WIDE_FLAGS = ["--canonicalize", "--sectionize", "--lower-gates", "--cggi-estimate",
              "--critical-path", "--print-ir", "--emit", "json"]
WIDE_PASSES = ["canonicalize", "sectionize", "lower-gates"]
LOWERED_TAGS = {"lut2", "lut3", "lut_lincomb"}
AND_GATE = Counter({"and": 4})  # the and-gate fixture: four independent ands


@dataclass
class Invocation:
    argv: list[str]
    ops_in: int
    check: Callable[[str], None]


@dataclass
class Workload:
    rounds: list[Invocation]    # the invocations of one round, in order
    no_work: Invocation         # fixed-cost invocation timed as setup_s


Generate = Callable[[list[str]], None]   # runs one CLI invocation during set-up


def _expect(got: str, want: str, what: str) -> None:
    if got != want:
        raise ref.Mismatch(f"{what}: got {got[:300]!r}, want {want[:300]!r}")


def _no_work(flag: str | None, fixture: str, counts: Counter) -> Invocation:
    """A tiny fixture with the workload's estimate flag and config."""
    argv = ["--fixture", fixture] + ([flag] if flag else []) + ["--config", CONFIG]
    want = ref.text_report(counts, None) if flag else ""
    return Invocation(argv, counts.total(), lambda out: _expect(out, want, "no-work report"))


def _vectors(rng: random.Random, circuit: ref.Circuit) -> dict[str, int]:
    """Random bit-sliced values for every argument."""
    return {a: rng.getrandbits(VECTORS) for a in circuit.args}


def _operand_words(inputs: dict[str, int], circuit: ref.Circuit, n: int) -> tuple[list[int], list[int]]:
    """The two n-bit operands (args a0.. then b0..) of every test vector."""
    slices = [inputs[a] for a in circuit.args]
    return ref.bits_to_words(slices[:n], VECTORS), ref.bits_to_words(slices[n:], VECTORS)


def _read_fixture(workdir: Path, generate: Generate, spec: str, path: str) -> ref.Circuit:
    generate(["--fixture", spec, "-o", path])
    return ref.read_circuit((workdir / path).read_text())


# ---------------------------------------------------------------------------
# deep-chain


def deep_chain(workdir: Path, rng: random.Random, generate: Generate) -> Workload:
    n = RIPPLE_N
    circuit = _read_fixture(workdir, generate, f"ripple-adder:{n}", "ripple.scifr")
    inputs = _vectors(rng, circuit)
    a, b = _operand_words(inputs, circuit, n)
    total = ref.bits_to_words(ref.evaluate(circuit, inputs, VECTORS), VECTORS)
    if len(circuit.ops) != 5 * n - 3 or total != [x + y for x, y in zip(a, b)]:
        raise ref.Mismatch(f"ripple-adder:{n} input is not a {n}-bit adder")
    # Closed forms: the carry chain is 2n-1 ops deep for both exact
    # methods; approx counts every op but the n+1 output sinks.
    cp = {"approx": 4 * n - 4, "paper-exact": 2 * n - 1, "longest": 2 * n - 1}
    want = ref.text_report(None, cp, 1000)
    inv = Invocation(
        ["ripple.scifr", "--critical-path", "--throughput", "--batch", "1000",
         "--config", CONFIG],
        len(circuit.ops), lambda out: _expect(out, want, "deep-chain report"))
    return Workload([inv], _no_work(None, "and-gate", AND_GATE))


# ---------------------------------------------------------------------------
# wide-netlist


def random_netlist(rng: random.Random, name: str) -> str:
    """Text of a random Boolean netlist of NETLIST_OPS ops.

    Written directly, not through the program's printer.  Some gates
    form dead cones (their values never reach a return), some values go
    through Not-Not pairs, and many gates have one use, so all three
    canonicalize rules fire.  Operands are mostly drawn from the whole
    live pool, which keeps the graph wide and shallow.  Half of the live
    values nothing consumes are returned; the other half die as well.
    """
    gates = ("and", "nand", "nor", "or", "xor", "xnor")
    live = [f"x{i}" for i in range(NETLIST_ARGS)]
    dead: list[str] = []
    lines: list[str] = []
    used: set[str] = set()

    def emit(tag: str, *operands: str) -> str:
        value = f"v{len(lines)}"
        used.update(operands)
        lines.append(f"  %{value} = scifr_bool.{tag} "
                     + ", ".join(f"%{o}" for o in operands) + " : !lwe")
        return value

    def pick(pool: list[str]) -> str:
        if rng.random() < 0.3:
            return pool[-1 - rng.randrange(min(32, len(pool)))]
        return rng.choice(pool)

    while len(lines) < NETLIST_OPS:
        r = rng.random()
        if r < 0.15:
            src = dead if dead and rng.random() < 0.5 else live
            dead.append(emit(rng.choice(gates), pick(src), pick(live)))
        elif r < 0.20 and len(lines) + 2 <= NETLIST_OPS:
            live.append(emit("not", emit("not", pick(live))))
        elif r < 0.25:
            live.append(emit("not", pick(live)))
        else:
            x = pick(live)
            y = pick(live)
            while y == x:
                y = pick(live)
            live.append(emit(rng.choice(gates), x, y))
    leaves = [v for v in live[NETLIST_ARGS:] if v not in used]
    returns = sorted(rng.sample(leaves, len(leaves) // 2), key=lambda v: int(v[1:]))
    args = ", ".join(f"%{a}: !lwe" for a in live[:NETLIST_ARGS])
    types = ", ".join(["!lwe"] * len(returns))
    return "\n".join([
        f"func @{name}({args}) -> {types} {{",
        *lines,
        "  return " + ", ".join(f"%{v}" for v in returns) + f" : {types}",
        "}",
    ]) + "\n"


def _wide_check(path: str, source: ref.Circuit, want_out: list[int],
                inputs: dict[str, int]) -> Callable[[str], None]:
    """Check a wide-netlist report: the printed circuit is lowered,
    sectioned, no larger, and computes the input's outputs; the JSON
    numbers match the reference on the printed circuit."""
    def check(out: str) -> None:
        ir_text, sep, report = out.partition("\n}\n")
        circuit = ref.read_circuit(ir_text + sep)
        if any(op.tag not in LOWERED_TAGS or "section" not in op.attrs for op in circuit.ops):
            raise ref.Mismatch(f"{path}: printed circuit is not lowered and sectioned")
        if len(circuit.ops) > len(source.ops) or circuit.args != source.args:
            raise ref.Mismatch(f"{path}: printed circuit grew or lost arguments")
        if ref.evaluate(circuit, inputs, VECTORS) != want_out:
            raise ref.Mismatch(f"{path}: printed circuit computes other outputs")
        g = ref.graph_of(circuit)
        ref.check_json_report(
            report, {"input": path, "passes": WIDE_PASSES, "config": CONFIG},
            circuit.name, Counter(op.tag for op in circuit.ops), g, ref.depths(g))
    return check


def wide_netlist(workdir: Path, rng: random.Random, generate: Generate) -> Workload:
    n = MULT_N
    mult = _read_fixture(workdir, generate, f"array-mult:{n}", "mult.scifr")
    inputs = _vectors(rng, mult)
    a, b = _operand_words(inputs, mult, n)
    product = ref.evaluate(mult, inputs, VECTORS)
    if ref.bits_to_words(product, VECTORS) != [x * y for x, y in zip(a, b)]:
        raise ref.Mismatch(f"array-mult:{n} input does not multiply")
    (workdir / "netlist.scifr").write_text(random_netlist(rng, "netlist"))
    netlist = ref.read_circuit((workdir / "netlist.scifr").read_text())
    net_inputs = _vectors(rng, netlist)
    net_out = ref.evaluate(netlist, net_inputs, VECTORS)
    rounds = [
        Invocation(["mult.scifr", *WIDE_FLAGS, "--config", CONFIG], len(mult.ops),
                   _wide_check("mult.scifr", mult, product, inputs)),
        Invocation(["netlist.scifr", *WIDE_FLAGS, "--config", CONFIG], len(netlist.ops),
                   _wide_check("netlist.scifr", netlist, net_out, net_inputs)),
    ]
    return Workload(rounds, _no_work("--cggi-estimate", "and-gate", AND_GATE))


# ---------------------------------------------------------------------------
# ckks-emit


def _closed_form(workdir: Path, path: str, counts: Counter, cp: dict[str, int]) -> ref.Graph:
    """Read a written fixture and check its op counts and depths."""
    circuit = ref.read_circuit((workdir / path).read_text())
    g = ref.graph_of(circuit)
    if Counter(op.tag for op in circuit.ops) != counts or ref.depths(g) != cp:
        raise ref.Mismatch(f"{path}: fixture differs from its closed form")
    return g


def ckks_emit(workdir: Path, rng: random.Random, generate: Generate) -> Workload:
    k, n = BLUR_K, DOT_N
    log_n = n.bit_length() - 1
    # box-blur:k is one add chain of k-1 rotates and adds, then a scale;
    # x reaches the sink through its last rotate in 3 ops.
    blur_counts = Counter({"rotate": k - 1, "add": k - 1, "mul_plain": 1})
    blur_cp = {"approx": 2 * k - 2, "paper-exact": 3, "longest": k + 1}
    blur_report = ref.text_report(blur_counts, blur_cp)

    def check_blur(out: str) -> None:
        written = (workdir / "blur.scifr").read_text()
        _expect(out, written + blur_report, "box-blur output")
        _closed_form(workdir, "blur.scifr", blur_counts, blur_cp)

    # dot-product:n (n a power of two): n products, n-1 rotates, a
    # log2(n)-level add tree, a rescale and an extract.
    dot_counts = Counter({"mul_plain": n, "rotate": n - 1, "add": n - 1,
                          "rescale": 1, "extract": 1})
    dot_cp = {"approx": 3 * n - 1, "paper-exact": log_n + 3, "longest": log_n + 4}

    def check_dot(out: str) -> None:
        g = _closed_form(workdir, "dot.scifr", dot_counts, dot_cp)
        ref.check_json_report(
            out, {"input": f"fixture:ckks-dot-product:{n}", "passes": ["sectionize"],
                  "config": CONFIG},
            f"ckks_dot_product{n}", dot_counts, g, dot_cp)

    rounds = [
        Invocation(["--fixture", f"ckks-box-blur:{k}", "-o", "blur.scifr",
                    "--ckks-estimate", "--critical-path", "--print-ir", "--config", CONFIG],
                   2 * k - 1, check_blur),
        Invocation(["--fixture", f"ckks-dot-product:{n}", "-o", "dot.scifr",
                    "--sectionize", "--ckks-estimate", "--critical-path", "--emit", "json",
                    "--config", CONFIG],
                   3 * n, check_dot),
    ]
    return Workload(rounds, _no_work("--ckks-estimate", "ckks-box-blur:1", Counter({"mul_plain": 1})))


WORKLOADS = {"deep-chain": deep_chain, "wide-netlist": wide_netlist, "ckks-emit": ckks_emit}


def build(name: str, workdir: Path, seed: int, generate: Generate) -> Workload:
    """Write the config and inputs of a workload into workdir."""
    (workdir / CONFIG).write_text(ref.config_json())
    return WORKLOADS[name](workdir, random.Random(seed), generate)
