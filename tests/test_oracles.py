"""Differential tests: the shared graph index and the critical-path
methods that read it against the verbatim oracles in oracles.py."""

import random
import tracemalloc

import pytest

import genutil
import oracles
from fabric_est import (
    GraphBuilder,
    OpKind,
    OpTag,
    ParseError,
    ValueType,
    approximate_cp,
    canonicalize,
    generate_fixture,
    longest_path_cp,
    paper_exact_cp,
    parse,
    topological_sort,
)
from fabric_est.fixtures import fixture_names, generate_from_spec
from fabric_est.ir import BOOL_TAGS, CKKS_TAGS, TWO_INPUT_GATES

NOT = OpKind(OpTag.NOT)
AND = OpKind(OpTag.AND)

METHODS = (
    (approximate_cp, oracles.approximate_cp),
    (paper_exact_cp, oracles.paper_exact_cp),
    (longest_path_cp, oracles.longest_path_cp),
)


def assert_matches_oracle(g):
    assert topological_sort(g) == oracles.operator_topo_order(g)
    arg_succs, op_succs = oracles._dependency_succs(g)
    assert [list(g.consumers.get(v, ())) for v in g.argument_ids] == [
        arg_succs[v] for v in g.argument_ids
    ]
    assert {oid: list(s) for oid, s in g.op_succs.items()} == op_succs
    for method, oracle in METHODS:
        assert method(g, 2.0) == oracle(g, 2.0), method.__name__


def test_criterion_4_dags():
    rng = random.Random(1009)  # the graphs of acceptance criterion 4
    for _ in range(1000):
        assert_matches_oracle(genutil.random_bool_graph(rng, max_ops=12))


@pytest.mark.parametrize("name", fixture_names())
def test_fixtures(name):
    assert_matches_oracle(generate_fixture(name))


@pytest.mark.parametrize("name", fixture_names())
def test_permuted_fixtures(name):
    rng = random.Random(name)
    g = generate_fixture(name)
    for _ in range(3):
        assert_matches_oracle(genutil.permute_operators(g, rng))


def test_permuted_random_graphs():
    rng = random.Random(2027)
    for _ in range(200):
        g = genutil.random_bool_graph(rng, max_ops=20, with_sections=True)
        assert_matches_oracle(genutil.permute_operators(g, rng))
        g = genutil.random_ckks_graph(rng)
        assert_matches_oracle(genutil.permute_operators(g, rng))


@pytest.mark.parametrize(
    "spec",
    [
        "ripple-adder:60",
        "array-mult:8",
        "ckks-box-blur:64",
        "ckks-dot-product:64",
        "ckks-simple-sum:64",
    ],
)
def test_larger_fixtures(spec):
    assert_matches_oracle(generate_from_spec(spec))


def test_larger_random_graphs():
    rng = random.Random(4099)
    for _ in range(200):
        assert_matches_oracle(genutil.random_bool_graph(rng, max_ops=200))


def test_longest_path_memory_is_linear():
    # a 4,097-deep chain: one stored path per op would take about 65 MiB
    g = generate_from_spec("ckks-box-blur:4096")
    topological_sort(g)  # build the shared index outside the measurement
    tracemalloc.start()
    try:
        result = longest_path_cp(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.depth == 4097
    assert peak < 8 * 2**20


@pytest.mark.parametrize("spec", ["ripple-adder:100", "ripple-adder:200"])
def test_pruned_ripple_adders(spec):
    g = generate_from_spec(spec)
    assert_matches_oracle(g)
    assert_matches_oracle(genutil.permute_operators(g, random.Random(spec)))


def two_source_graph(chain: int):
    """Arguments `a`, then `b`.  `a` feeds a chain of `chain` nots (ops
    0..chain-1).  `b` feeds op p (id `chain`, height 4), whose sink
    and(p, r) it reaches in 2 ops as well as through p, q, r: bound 4,
    depth 2."""
    gb = GraphBuilder("two_sources")
    last = gb.argument(ValueType.LWE_CIPHERTEXT, "a")
    b = gb.argument(ValueType.LWE_CIPHERTEXT, "b")
    for _ in range(chain):
        last = gb.op(NOT, last)
    p = gb.op(NOT, b)
    r = gb.op(NOT, gb.op(NOT, p))
    gb.ret(last, gb.op(AND, p, r))
    return gb.build()


def test_tie_goes_to_the_earlier_argument(bfs_runs):
    # `b` (bound 4) is searched first and reaches depth 2; `a` (bound 2)
    # ties it and wins because it comes first.
    g = two_source_graph(2)
    result = paper_exact_cp(g)
    assert bfs_runs == [(2,), (0,)]
    assert result == oracles.paper_exact_cp(g)
    assert result.ops == (0, 1)


def test_loose_bound_is_not_the_winner(bfs_runs):
    # `b` has the greatest bound (4) but reaches only depth 2; `a`,
    # searched after it (bound 3), reaches depth 3.
    g = two_source_graph(3)
    result = paper_exact_cp(g)
    assert bfs_runs == [(3,), (0,)]
    assert result == oracles.paper_exact_cp(g)
    assert result.ops == (0, 1, 2)


def test_many_argument_random_graphs():
    rng = random.Random(6151)
    for i in range(1000):
        g = genutil.random_bool_graph(rng, max_ops=200, max_args=64)
        if i % 2:
            g = genutil.permute_operators(g, rng)
        assert paper_exact_cp(g, 2.0) == oracles.paper_exact_cp(g, 2.0)


def assert_same_search(g, bfs_runs):
    """paper_exact_cp gives the oracle's result through the same BFS runs."""
    result = paper_exact_cp(g, 2.0)
    runs = list(bfs_runs)
    bfs_runs.clear()
    assert result == oracles.pruned_paper_exact_cp(g, 2.0)
    assert runs == bfs_runs


def test_single_loop_search_matches_two_loop_search(bfs_runs):
    rng = random.Random(7717)
    for i in range(300):
        g = genutil.random_bool_graph(rng, max_ops=60, max_args=1 + i % 16)
        assert_same_search(g, bfs_runs)
        bfs_runs.clear()
        assert_same_search(genutil.permute_operators(g, rng), bfs_runs)
        bfs_runs.clear()


def assert_canonicalize_matches_oracle(g):
    got, want = canonicalize(g), oracles.canonicalize(g)
    assert got.operators == want.operators
    assert got.returns == want.returns
    assert got.value_names == want.value_names


def test_canonicalize_random_graphs():
    rng = random.Random(5003)
    for i in range(500):
        g = genutil.random_bool_graph(rng, max_ops=40, with_sections=i % 2 == 1)
        assert_canonicalize_matches_oracle(g)
        assert_canonicalize_matches_oracle(genutil.permute_operators(g, rng))


@pytest.mark.parametrize("spec", ["array-mult:8", "table3-mult8", "full-adder"])
def test_canonicalize_fixtures_before_lowering(spec):
    g = generate_from_spec(spec)
    assert_canonicalize_matches_oracle(g)
    assert_canonicalize_matches_oracle(genutil.permute_operators(g, random.Random(spec)))


def test_canonicalize_corpus():
    for text in genutil.mutation_corpus(seed=1, count=2000):
        try:
            g = parse(text)
        except ParseError:
            continue
        assert_canonicalize_matches_oracle(g)


# The per-tag facts as they were stated before they moved onto OpTag:
# verbatim copies of ir.BOOL_TAGS, CKKS_BINARY, REQUIRED_ATTRS, the
# OpTag.opname/result_type properties, OpKind.arity/num_results, and
# report._TAG_LABELS.  Change nothing here when the library changes.

OLD_BOOL_TAGS = frozenset(
    {
        OpTag.AND,
        OpTag.NAND,
        OpTag.NOR,
        OpTag.OR,
        OpTag.XOR,
        OpTag.XNOR,
        OpTag.NOT,
        OpTag.PACKED,
        OpTag.LUT2,
        OpTag.LUT3,
        OpTag.LUT_LINCOMB,
        OpTag.MULTI_LUT_LINCOMB,
    }
)
OLD_CKKS_TAGS = frozenset(OpTag) - OLD_BOOL_TAGS

OLD_CKKS_BINARY = frozenset(
    {OpTag.ADD, OpTag.ADD_PLAIN, OpTag.SUB, OpTag.SUB_PLAIN, OpTag.MUL, OpTag.MUL_PLAIN}
)

OLD_REQUIRED_ATTRS: dict[OpTag, tuple[str, ...]] = {
    OpTag.LUT2: ("lut",),
    OpTag.LUT3: ("lut",),
    OpTag.LUT_LINCOMB: ("coeffs", "lut"),
    OpTag.MULTI_LUT_LINCOMB: ("coeffs", "luts"),
    OpTag.ROTATE: ("offset",),
    OpTag.EXTRACT: ("index",),
}

OLD_TAG_LABELS: dict[OpTag, str] = {
    OpTag.AND: "AndOp",
    OpTag.NAND: "NandOp",
    OpTag.NOR: "NorOp",
    OpTag.OR: "OrOp",
    OpTag.XOR: "XorOp",
    OpTag.XNOR: "XNorOp",
    OpTag.NOT: "NotOp",
    OpTag.PACKED: "PackedOp",
    OpTag.LUT2: "Lut2Op",
    OpTag.LUT3: "Lut3Op",
    OpTag.LUT_LINCOMB: "LutLinCombOp",
    OpTag.MULTI_LUT_LINCOMB: "MultiLutLinCombOp",
    OpTag.ADD: "AddOp",
    OpTag.ADD_PLAIN: "AddPlainOp",
    OpTag.SUB: "SubOp",
    OpTag.SUB_PLAIN: "SubPlainOp",
    OpTag.MUL: "MulOp",
    OpTag.MUL_PLAIN: "MulPlainOp",
    OpTag.ROTATE: "RotateOp",
    OpTag.EXTRACT: "ExtractOp",
    OpTag.NEGATE: "NegateOp",
    OpTag.RELINEARIZE: "RelinearizeOp",
    OpTag.RESCALE: "RescaleOp",
}


def old_dialect(self) -> str:
    return "bool" if self in OLD_BOOL_TAGS else "ckks"


def old_opname(self) -> str:
    prefix = "scifr_bool" if self in OLD_BOOL_TAGS else "scifr_ckks"
    return f"{prefix}.{self.value}"


def old_result_type(self) -> ValueType:
    if self in OLD_BOOL_TAGS:
        return ValueType.LWE_CIPHERTEXT
    return ValueType.CKKS_CIPHERTEXT


def old_arity(self) -> int | None:
    """Operand count, or None when it cannot be derived (bad attrs)."""
    tag = self.tag
    if tag in (OpTag.NOT, OpTag.PACKED):
        return 1
    if tag in TWO_INPUT_GATES or tag is OpTag.LUT2:
        return 2
    if tag is OpTag.LUT3:
        return 3
    if tag in (OpTag.LUT_LINCOMB, OpTag.MULTI_LUT_LINCOMB):
        return len(self.coeffs) if isinstance(self.coeffs, tuple) and self.coeffs else None
    if tag in OLD_CKKS_BINARY:
        return 2
    return 1  # rotate, extract, negate, relinearize, rescale


def old_num_results(self) -> int | None:
    if self.tag is OpTag.MULTI_LUT_LINCOMB:
        return len(self.luts) if isinstance(self.luts, tuple) and self.luts else None
    return 1


@pytest.mark.parametrize("tag", list(OpTag), ids=lambda tag: tag.value)
def test_tag_table_matches_old_facts(tag):
    assert tag.opname == old_opname(tag)
    assert tag.result_type is old_result_type(tag)
    assert tag.dialect == old_dialect(tag)
    assert tag.required == OLD_REQUIRED_ATTRS.get(tag, ())
    assert tag.label == OLD_TAG_LABELS[tag]


def test_tag_order_and_sets_match_old():
    assert list(OpTag) == list(OLD_TAG_LABELS)  # declaration order
    assert all(OpTag(tag.value) is tag for tag in OpTag)
    assert BOOL_TAGS == OLD_BOOL_TAGS
    assert CKKS_TAGS == OLD_CKKS_TAGS


def test_kind_counts_match_old_if_chain():
    # coeffs/luts of length 0-3 and a non-tuple shape, on every tag
    shapes = [None, (), (1,), (1, 2), (1, 2, 4), 3]
    for tag in OpTag:
        for coeffs in shapes:
            for luts in shapes:
                kind = OpKind(tag, coeffs=coeffs, luts=luts)
                assert kind.arity == old_arity(kind), (tag, coeffs)
                assert kind.num_results == old_num_results(kind), (tag, luts)
