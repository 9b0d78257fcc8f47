"""One Topology per edge set: the passes that keep every edge hand their
input's Topology on, and what they hand on equals a fresh build."""

import random

import pytest

import genutil
from fabric_est import (
    GraphBuilder,
    OpKind,
    OpTag,
    Operator,
    ParseError,
    ValueType,
    canonicalize,
    generate_fixture,
    load_profile,
    lower_gates,
    parse,
    print_circuit,
    sectionize,
)
from fabric_est import ir, transforms
from fabric_est.cost import PAPER_DEFAULT_PROFILE
from fabric_est.critical_path import Method, compute
from fabric_est.fixtures import fixture_names, generate_from_spec

CONFIG, COSTS = load_profile(PAPER_DEFAULT_PROFILE)
RULES = (
    transforms._eliminate_dead_ops,
    transforms._eliminate_double_negation,
    transforms._fuse_single_use_gates,
)


def section(g):
    return sectionize(g, CONFIG.usable_fcs_per_chip, COSTS)[0]


# The passes of perfbench's wide-netlist flags, in the order it gives them.
WIDE_PASSES = (canonicalize, section, lower_gates)
HANDS_ON = (lower_gates, section)


def assert_fresh(g):
    """g's Topology, handed on or not, equals one built from g's ops."""
    held, fresh = g.topology, ir.build_topology(g)
    assert held.consumers == fresh.consumers
    assert held.successors == fresh.successors
    assert held.order == fresh.order
    assert held.heights == fresh.heights
    assert held.sinks == fresh.sinks


def check_passes(g):
    """Each pass on g, and each prefix of WIDE_PASSES, against a fresh build."""
    g.topology  # built from g's own ops, so what a pass hands on is g's
    for run in (lower_gates, canonicalize, section):
        out = run(g)
        assert (out.topology is g.topology) == (run in HANDS_ON or out is g)
        assert_fresh(out)
    for rule in RULES:
        out = rule(g)
        assert out is g or out.topology is not g.topology
    for run in WIDE_PASSES:
        g = run(g)
        assert_fresh(g)


@pytest.mark.parametrize("name", fixture_names())
def test_fixtures(name):
    check_passes(generate_fixture(name))


def test_random_graphs():
    rng = random.Random(21001)
    for i in range(300):
        make = genutil.random_bool_graph if i % 2 else genutil.random_ckks_graph
        g = make(rng, max_ops=30)
        check_passes(g)
        check_passes(genutil.permute_operators(g, rng))


def test_corpus():
    for text in genutil.mutation_corpus(seed=2, count=1000):
        try:
            g = parse(text)
        except ParseError:
            continue
        check_passes(g)


def test_handed_on_before_it_is_built():
    """The two graphs share one Topology whichever reads it first."""
    g = generate_fixture("full-adder")
    lowered = lower_gates(g)
    assert lowered.topology is g.topology
    g = generate_fixture("full-adder")
    sectioned = section(g)
    assert g.topology is sectioned.topology


def test_pass_chain_builds_once(monkeypatch):
    builds = []
    build = ir.build_topology

    def counted(graph):
        builds.append(len(graph.operators))
        return build(graph)

    monkeypatch.setattr(ir, "build_topology", counted)
    g = parse(print_circuit(generate_from_spec("array-mult:16")))
    g = section(canonicalize(lower_gates(g)))
    for method in Method:
        compute(g, method)
    assert builds == [len(g.operators)]


def test_changed_edges_are_refused():
    b = GraphBuilder("f")
    x = b.argument(ValueType.LWE_CIPHERTEXT)
    b.ret(b.op(OpKind(OpTag.NOT), b.op(OpKind(OpTag.NOT), x)))
    g = b.build()
    op = g.operators[1]
    changes = [
        (g.operators[0], Operator(1, op.kind, op.operands, (x,))),
        (g.operators[0], Operator(1, op.kind, (x,), op.results)),
        (g.operators[0], Operator(0, op.kind, op.operands, op.results)),
        (g.operators[0],),
        (g.operators[1], g.operators[0]),
    ]
    for ops in changes:
        with pytest.raises(ValueError, match="^the operators do not keep the graph's edges$"):
            ir.with_same_edges(g, ops)
    packed = [Operator(o.id, OpKind(OpTag.PACKED), o.operands, o.results) for o in g.operators]
    same = ir.with_same_edges(g, packed)
    assert same.topology is g.topology
