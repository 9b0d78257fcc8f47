"""Differential test against perfbench/reference.py, which shares no code
with fabric_est: it reads the printed IR with its own regexes, computes
the three depth figures its own way and evaluates Boolean circuits
bit-sliced.  The reference numbers ops by statement position, so a graph
whose op ids are not is compared as `parse(print_circuit(g))`, where they
are."""

import importlib.util
import random
import sys
from pathlib import Path

import genutil
from fabric_est import (
    Method,
    OpTag,
    ParseError,
    ValueType,
    canonicalize,
    compute,
    evaluate,
    generate_fixture,
    lower_gates,
    parse,
    parse_fixture_spec,
    print_circuit,
)
from test_golden import SPECS

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_reference", _PATH)
reference = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference)

WIDTH = 64  # test vectors per graph, one bit of each in a slice


def check_depths(g, structure):
    """Each method's depth is the reference's, and its op list a path of
    the kind the method describes."""
    want = reference.depths(structure)
    for method in Method:
        cp = compute(g, method)
        assert cp.depth == want[method.value], method
        reference.check_path(structure, method.value, list(cp.ops), cp.depth)


def is_boolean(g):
    """Only Boolean ops and `!lwe` arguments: evaluate() takes bits."""
    return all(op.kind.tag.dialect == "bool" for op in g.operators) and all(
        vt is ValueType.LWE_CIPHERTEXT for _, vt in g.arguments
    )


def has_reference_semantics(g):
    """A Boolean graph without packed or multi_lut_lincomb ops, which the
    reference cannot evaluate.  (validate() rejects negative lincomb
    coefficients, on which it would shift by a negative count.)"""
    return is_boolean(g) and all(
        op.kind.tag not in (OpTag.PACKED, OpTag.MULTI_LUT_LINCOMB) for op in g.operators
    )


def fabric_values(g, slices):
    """The returned values of `g` for every test vector, bit-sliced.
    `slices` holds each argument's bits by name; a graph that validates
    evaluates on every vector."""
    out = [0] * len(g.returns)
    names = {vid: g.display_name(vid) for vid in g.argument_ids}
    for j in range(WIDTH):
        env = evaluate(g, {vid: (slices[name] >> j) & 1 for vid, name in names.items()})
        for k, r in enumerate(g.returns):
            out[k] |= env[r] << j
    return out


def check(g, rng):
    """Compare `g` and its lower_gates + canonicalize form with the
    reference: depths and paths always, and the values of WIDTH random
    vectors when the reference can evaluate `g`.  Returns whether the
    values were compared."""
    slices = None
    if has_reference_semantics(g):
        slices = {g.display_name(vid): rng.getrandbits(WIDTH) for vid in g.argument_ids}
    want = None
    for h in (g, canonicalize(lower_gates(g))):
        text = print_circuit(h)
        if [op.id for op in h.operators] != list(range(len(h.operators))):
            h = parse(text)  # its op ids are statement positions
        circuit = reference.read_circuit(text)
        check_depths(h, reference.graph_of(circuit))
        if slices is None:
            continue
        got = fabric_values(h, slices)
        if want is None:
            want = got
        assert got == want, text
        assert reference.evaluate(circuit, slices, WIDTH) == want, text
    return want is not None


def test_golden_fixtures():
    rng = random.Random(11)
    compared = sum(check(generate_fixture(*parse_fixture_spec(spec)), rng) for spec in SPECS)
    # Every Boolean fixture; none of the four CKKS ones.
    assert compared == len(SPECS) - sum(spec.startswith("ckks-") for spec in SPECS)


def test_mutation_corpus():
    rng = random.Random(12)
    parsed = compared = 0
    for text in genutil.mutation_corpus(seed=1, count=2000):
        try:
            g = parse(text)
        except ParseError:
            continue
        parsed += 1
        if check(g, rng):
            compared += 1
        elif is_boolean(g):
            # Every Boolean graph that parses evaluates, packed and
            # multi-result ones too: no LUT index out of range.
            fabric_values(g, {g.display_name(v): rng.getrandbits(WIDTH) for v in g.argument_ids})
    assert parsed >= 350
    assert compared >= 150


def test_random_bool_graphs():
    rng = random.Random(13)
    compared = 0
    for _ in range(200):
        compared += check(genutil.random_bool_graph(rng, max_ops=300), rng)
    # Nearly every graph of this size holds a packed or multi-result op,
    # so the values are compared on the small ones.
    assert compared >= 5
