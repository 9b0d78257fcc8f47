"""Critical-path methods, their bounds, and the throughput model."""

import random

import pytest

import genutil
from fabric_est import (
    PAPER_DEFAULT_PROFILE,
    CriticalPathResult,
    EvaluationError,
    FabricConfig,
    GraphBuilder,
    Method,
    OpKind,
    OpTag,
    ValueType,
    approximate_cp,
    canonicalize,
    compute,
    evaluate,
    load_profile,
    longest_path_cp,
    paper_exact_cp,
    sectionize,
    throughput,
    topological_sort,
)
from fabric_est.fixtures import build_ripple_adder, build_table3_mult8, generate_from_spec
from fabric_est.ir import CircuitGraph, Operator

LWE = ValueType.LWE_CIPHERTEXT
_, COSTS = load_profile(PAPER_DEFAULT_PROFILE)
NOT = OpKind(OpTag.NOT)
AND = OpKind(OpTag.AND)


def chain(n):
    """n unary ops in a line: arg -> op0 -> ... -> op(n-1) -> return."""
    b = GraphBuilder("chain")
    v = b.argument(LWE)
    for _ in range(n):
        v = b.op(NOT, v)
    b.ret(v)
    return b.build()


def diamond():
    """a fans out to b and c, which join at d."""
    b = GraphBuilder("diamond")
    x = b.argument(LWE)
    a = b.op(NOT, x)
    p = b.op(NOT, a)
    q = b.op(NOT, a)
    b.ret(b.op(AND, p, q))
    return b.build()


def shortcut():
    """x -> p -> q -> d, plus a direct x -> d edge."""
    b = GraphBuilder("shortcut")
    x = b.argument(LWE)
    p = b.op(NOT, x)
    q = b.op(NOT, p)
    b.ret(b.op(AND, x, q))
    return b.build()


def two_chains():
    """Independent chains of 2 and 4 ops from separate arguments."""
    b = GraphBuilder("two_chains")
    u = b.argument(LWE)
    v = b.argument(LWE)
    a = u
    for _ in range(2):
        a = b.op(NOT, a)
    c = v
    for _ in range(4):
        c = b.op(NOT, c)
    b.ret(a, c)
    return b.build()


def high_bound_on(arg):
    """Arguments a0 and a1.  The one numbered `arg` feeds x = not,
    y = not x, z = not y, w = and z, x (ops 0-3): bound 4, but its BFS
    reaches the one sink w at depth 2.  The other feeds p = not,
    q = not p (ops 4-5): bound 2, depth 2."""
    b = GraphBuilder("tie")
    sources = [b.argument(LWE, "a0"), b.argument(LWE, "a1")]
    x = b.op(NOT, sources[arg])
    z = b.op(NOT, b.op(NOT, x))
    w = b.op(AND, z, x)
    q = b.op(NOT, b.op(NOT, sources[1 - arg]))
    b.ret(w, q)
    return b.build()


def empty_graph():
    b = GraphBuilder("empty")
    x = b.argument(LWE)
    b.ret(x)
    return b.build()


def cycle_graph() -> CircuitGraph:
    a = Operator(0, AND, (1, 3), (2,))
    c = Operator(1, NOT, (2,), (3,))
    return CircuitGraph("loop", ((1, LWE),), (a, c), (2,), {})


def duplicate_id_graph() -> CircuitGraph:
    # an acyclic chain of two nots whose ids collide
    a = Operator(0, NOT, (1,), (2,))
    b = Operator(0, NOT, (2,), (3,))
    return CircuitGraph("dup", ((1, LWE),), (a, b), (3,), {})


class TestTopologicalSort:
    def test_chain_order(self):
        assert topological_sort(chain(3)) == [0, 1, 2]

    def test_diamond_order(self):
        assert topological_sort(diamond()) == [0, 1, 2, 3]

    def test_empty(self):
        assert topological_sort(empty_graph()) == []

    def test_permutation_invariant(self):
        rng = random.Random(11)
        g = build_ripple_adder(4)
        order = topological_sort(g)
        for _ in range(5):
            assert topological_sort(genutil.permute_operators(g, rng)) == order

    def test_producers_precede_consumers(self):
        rng = random.Random(12)
        for _ in range(50):
            g = genutil.random_bool_graph(rng)
            pos = {oid: i for i, oid in enumerate(topological_sort(g))}
            assert len(pos) == len(g.operators)
            for op in g.operators:
                for v in op.operands:
                    if v in g.producers:
                        assert pos[g.producers[v].id] < pos[op.id]

    def test_cycle_raises(self):
        with pytest.raises(ValueError, match="cycle"):
            topological_sort(cycle_graph())

    def test_duplicate_operator_id_raises(self):
        with pytest.raises(ValueError, match="^duplicate operator id 0$"):
            topological_sort(duplicate_id_graph())

    def test_evaluate_refuses_a_cycle(self):
        with pytest.raises(EvaluationError, match="^cannot evaluate a cyclic graph$"):
            evaluate(cycle_graph(), {1: 1})

    @pytest.mark.parametrize(
        "method",
        [
            approximate_cp,
            paper_exact_cp,
            longest_path_cp,
            pytest.param(lambda g: sectionize(g, 2048, COSTS), id="sectionize"),
            canonicalize,
        ],
    )
    @pytest.mark.parametrize(
        "graph, message",
        [
            (cycle_graph, "^graph contains a dependency cycle$"),
            (duplicate_id_graph, "^duplicate operator id 0$"),
        ],
        ids=["cycle", "duplicate-id"],
    )
    def test_methods_raise_like_topological_sort(self, method, graph, message):
        with pytest.raises(ValueError, match=message):
            method(graph())


class TestApproximate:
    def test_chain3(self):
        r = approximate_cp(chain(3))
        assert r.ops == (0, 1)
        assert r.depth == 2
        assert r.latency_unit_time == 2.0

    def test_diamond(self):
        r = approximate_cp(diamond())
        assert r.ops == (0, 1, 2)
        assert r.depth == 3

    def test_single_op(self):
        assert approximate_cp(chain(1)).depth == 0

    def test_empty(self):
        r = approximate_cp(empty_graph())
        assert r.ops == ()
        assert r.depth == 0

    def test_counts_non_sink_ops(self):
        rng = random.Random(13)
        for _ in range(100):
            g = genutil.random_bool_graph(rng)
            non_sinks = {op.id for op in g.operators} - g.sink_op_ids
            r = approximate_cp(g)
            assert set(r.ops) == non_sinks
            assert r.depth == len(non_sinks)


class TestPaperExact:
    def test_chain3(self):
        r = paper_exact_cp(chain(3))
        assert r.ops == (0, 1, 2)
        assert r.depth == 3

    def test_shortcut_takes_direct_edge(self):
        r = paper_exact_cp(shortcut())
        assert r.ops == (2,)
        assert r.depth == 1

    def test_two_chains_keeps_longer(self):
        r = paper_exact_cp(two_chains())
        assert r.ops == (2, 3, 4, 5)
        assert r.depth == 4

    def test_empty(self):
        assert paper_exact_cp(empty_graph()).depth == 0

    def test_path_is_connected(self):
        rng = random.Random(14)
        for _ in range(100):
            g = genutil.random_bool_graph(rng)
            ops = paper_exact_cp(g).ops
            for prev, nxt in zip(ops, ops[1:]):
                results = set(g.operator(prev).results)
                assert results & set(g.operator(nxt).operands)

    def test_tie_at_the_bound_goes_to_the_earlier_argument(self, bfs_runs):
        r = paper_exact_cp(high_bound_on(1))
        assert (r.ops, len(bfs_runs)) == ((4, 5), 2)

    def test_a_tie_that_cannot_win_is_not_searched(self, bfs_runs):
        r = paper_exact_cp(high_bound_on(0))
        assert (r.ops, len(bfs_runs)) == ((0, 3), 1)

    def test_no_consumed_argument_runs_no_search(self, bfs_runs):
        b = GraphBuilder("pass_through")
        b.ret(b.argument(LWE, "a0"), b.argument(LWE, "a1"))
        r = paper_exact_cp(b.build())
        assert (r.ops, r.depth, len(bfs_runs)) == ((), 0, 0)

    @pytest.mark.parametrize(
        "spec, runs, sources",
        [("ripple-adder:2000", 1, 4000), ("array-mult:8", 16, 16), ("ckks-box-blur:4096", 1, 2)],
    )
    def test_bfs_runs_only_from_sources_that_can_win(self, bfs_runs, spec, runs, sources):
        g = generate_from_spec(spec)
        paper_exact_cp(g)
        assert (len(bfs_runs), len(g.argument_ids)) == (runs, sources)


class TestLongestPath:
    def test_shortcut_prefers_long_route(self):
        r = longest_path_cp(shortcut())
        assert r.ops == (0, 1, 2)
        assert r.depth == 3

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_chain_depth_is_length(self, n):
        r = longest_path_cp(chain(n))
        assert r.depth == n
        assert r.ops == tuple(range(n))

    def test_tie_breaks_lexicographically(self):
        b = GraphBuilder("tie")
        x = b.argument(LWE)
        p = b.op(NOT, x)
        q = b.op(NOT, x)
        b.ret(b.op(AND, p, q))
        r = longest_path_cp(b.build())
        # (0, 2) and (1, 2) both have length 2
        assert r.ops == (0, 2)

    def test_empty(self):
        assert longest_path_cp(empty_graph()).depth == 0

    def test_matches_brute_force(self):
        rng = random.Random(15)
        for _ in range(300):
            g = genutil.random_bool_graph(rng)
            want_depth, want_ops = genutil.brute_force_longest_path(g)
            r = longest_path_cp(g)
            assert r.depth == want_depth
            assert r.ops == want_ops


class TestCrossMethod:
    def test_method_values(self):
        assert [m.value for m in Method] == ["approx", "paper-exact", "longest"]

    def test_compute_dispatch(self):
        g = shortcut()
        assert compute(g, Method.APPROXIMATE) == approximate_cp(g)
        assert compute(g, Method.PAPER_EXACT) == paper_exact_cp(g)
        assert compute(g, Method.LONGEST_PATH) == longest_path_cp(g)

    def test_unit_time_scales_latency(self):
        g = chain(3)
        for method, depth in [
            (Method.APPROXIMATE, 2),
            (Method.PAPER_EXACT, 3),
            (Method.LONGEST_PATH, 3),
        ]:
            r = compute(g, method, unit_time=2.5)
            assert r.depth == depth
            assert r.latency_unit_time == depth * 2.5

    def test_bounds(self):
        # Shortest-path depth never exceeds the true longest path, and
        # the approximate count misses at most the final sink op.
        rng = random.Random(16)
        for _ in range(300):
            g = genutil.random_bool_graph(rng)
            exact = paper_exact_cp(g).depth
            longest = longest_path_cp(g).depth
            approx = approximate_cp(g).depth
            assert exact <= longest
            assert longest <= approx + 1

    def test_chain_is_the_tight_case(self):
        # A pure chain is the extreme point of the bounds above.
        g = chain(5)
        assert paper_exact_cp(g).depth == 5
        assert longest_path_cp(g).depth == 5
        assert approximate_cp(g).depth == 4

    def test_permutation_invariant(self):
        rng = random.Random(17)
        for _ in range(30):
            g = genutil.random_bool_graph(rng)
            shuffled = genutil.permute_operators(g, rng)
            for method in Method:
                assert compute(g, method) == compute(shuffled, method)

    def test_deterministic(self):
        g = build_ripple_adder(4)
        for method in Method:
            assert compute(g, method) == compute(g, method)

    def test_table3_depths(self):
        g = build_table3_mult8()
        assert longest_path_cp(g).depth == 141
        assert paper_exact_cp(g).depth == 141
        assert approximate_cp(g).depth == 140

    def test_result_shape(self):
        r = longest_path_cp(chain(2))
        assert isinstance(r, CriticalPathResult)
        assert r.method is Method.LONGEST_PATH
        assert r.depth == len(r.ops)
        with pytest.raises(AttributeError):
            r.depth = 5


class TestThroughput:
    def test_pipeline_figures(self):
        cfg = FabricConfig()
        assert throughput(14, 1000, cfg) == (14.0, 71)

    def test_depth_one_streams_batch(self):
        assert throughput(1, 1000, FabricConfig()) == (1.0, 1000)

    def test_batch_equals_depth(self):
        assert throughput(14, 14, FabricConfig()) == (14.0, 1)

    def test_unit_time_scales_latency(self):
        cfg = FabricConfig(unit_time_per_gate=2.0)
        assert throughput(14, 1000, cfg) == (28.0, 71)

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError, match="no compute ops on critical path"):
            throughput(0, 1000, FabricConfig())

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth must be positive"):
            throughput(-3, 1000, FabricConfig())

    @pytest.mark.parametrize("batch", [0, -1])
    def test_bad_batch_rejected(self, batch):
        with pytest.raises(ValueError, match="batch must be positive"):
            throughput(14, batch, FabricConfig())

    def test_named_fields(self):
        r = throughput(7, 100, FabricConfig())
        assert r.latency_unit_time == 7.0
        assert r.outputs_per_batch_window == 14
