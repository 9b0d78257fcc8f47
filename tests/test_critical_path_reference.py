"""The three critical-path methods against critical_path_reference, which
shares no code with fabric_est: every golden fixture before and after
each pass, seeded random Boolean and CKKS graphs, plain and with their
ops shuffled, and the parsable texts of the mutation corpus."""

import ast
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import critical_path_reference as ref
import genutil
from fabric_est import Method, canonicalize, compute, lower_gates, paper_default, parse
from fabric_est import ParseError, print_circuit, sectionize
from fabric_est.fixtures import generate_from_spec
from test_corpus import corpus
from test_golden import SPECS

CONFIG, COSTS = paper_default()


def assert_agrees(g):
    """Each method's ops and depth are the reference's, read from the
    printed text: the op at position k is g.operators[k].id.  The
    reference breaks ties by position, so the ids must rise with it."""
    ids = [op.id for op in g.operators]
    assert ids == sorted(ids)
    want = ref.critical_paths(print_circuit(g))
    for method in Method:
        ops = tuple(ids[k] for k in want[method.value])
        r = compute(g, method)
        assert (r.ops, r.depth) == (ops, len(ops)), method.value


def by_position(g):
    """`g` with each op's position as its id: the same edges, and the
    same printed text, with ids no longer in dependency order when the
    ops are shuffled."""
    return replace(g, operators=tuple(replace(op, id=k) for k, op in enumerate(g.operators)))


def sectioned(g):
    return sectionize(g, CONFIG.usable_fcs_per_chip, COSTS)[0]


def test_the_reference_stands_alone():
    tree = ast.parse(Path(ref.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert {name.split(".")[0] for name in imported} <= set(sys.stdlib_module_names)


@pytest.mark.parametrize("spec", SPECS)
def test_golden_fixtures_before_and_after_each_pass(spec):
    g = generate_from_spec(spec)
    assert_agrees(g)
    assert_agrees(canonicalize(g))
    assert_agrees(sectioned(g))
    for one in (lower_gates, canonicalize, sectioned):  # the golden pass chain
        g = one(g)
        assert_agrees(g)


def test_random_graphs_plain_and_shuffled():
    rng = random.Random(30011)
    for i in range(1000):
        if i % 2:
            g = genutil.random_bool_graph(rng, max_ops=40, max_args=8)
        else:
            g = genutil.random_ckks_graph(rng, max_ops=20)
        assert_agrees(g)
        assert_agrees(by_position(genutil.permute_operators(g, rng)))


def test_mutation_corpus():
    checked = 0
    for text in corpus():
        try:
            g = parse(text)
        except ParseError:
            continue
        assert_agrees(g)
        checked += 1
    assert checked >= 300


def test_the_reference_keeps_the_first_of_equal_depths():
    # Arguments %a and %b each reach a sink at depth 2; %b's sink has the
    # smaller position, but %a comes first.
    text = ("func @f(%a: !lwe, %b: !lwe) -> !lwe, !lwe {\n"
            "  %0 = scifr_bool.not %b : !lwe\n"
            "  %1 = scifr_bool.not %0 : !lwe\n"
            "  %2 = scifr_bool.not %a : !lwe\n"
            "  %3 = scifr_bool.not %2 : !lwe\n"
            "  return %1, %3 : !lwe, !lwe\n}\n")
    assert ref.critical_paths(text) == {"approx": (0, 2), "paper-exact": (2, 3),
                                        "longest": (0, 1)}
