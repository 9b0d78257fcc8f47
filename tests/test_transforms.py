"""Gate lowering, canonicalization, and section packing."""

import itertools
import random
import signal
from contextlib import contextmanager
from dataclasses import replace

import pytest

import genutil
import test_ir
from fabric_est import (
    CircuitGraph,
    GraphBuilder,
    OpKind,
    Operator,
    OpTag,
    TransformError,
    ValueType,
    canonicalize,
    evaluate,
    lower_gates,
    paper_default,
    sectionize,
    validate,
)
from fabric_est.ir import TWO_INPUT_GATES, gate_output
from fabric_est.fixtures import build_half_adder, build_table3_mult8

LWE = ValueType.LWE_CIPHERTEXT
GATES = sorted(TWO_INPUT_GATES, key=lambda t: t.value)
_, COSTS = paper_default()


def single_gate(tag):
    b = GraphBuilder("g")
    a = b.argument(LWE)
    c = b.argument(LWE)
    b.ret(b.op(OpKind(tag), a, c))
    return b.build()


def gate_pair(inner_tag, outer_tag, outer_slot=0, share_input=False):
    """outer(inner(a, b), c), with the inner result in the given outer
    slot; share_input reuses a as the outer's other operand."""
    b = GraphBuilder("pair")
    a = b.argument(LWE)
    x = b.argument(LWE)
    other = a if share_input else b.argument(LWE)
    i = b.op(OpKind(inner_tag), a, x)
    ops = (i, other) if outer_slot == 0 else (other, i)
    b.ret(b.op(OpKind(outer_tag), *ops, name="out"))
    return b.build()


class TestLowerGates:
    def test_frozen_masks(self):
        assert {tag: tag.table for tag in GATES} == {
            OpTag.AND: 0b1000,
            OpTag.NAND: 0b0111,
            OpTag.NOR: 0b0001,
            OpTag.OR: 0b1110,
            OpTag.XOR: 0b0110,
            OpTag.XNOR: 0b1001,
        }
        assert OpTag.NOT.table == 0b01

    @pytest.mark.parametrize("tag", GATES)
    def test_gate_becomes_lincomb(self, tag):
        g = lower_gates(single_gate(tag))
        (op,) = g.operators
        assert op.kind.tag is OpTag.LUT_LINCOMB
        assert op.kind.coeffs == (1, 2)
        assert op.kind.lut == tag.table

    @pytest.mark.parametrize("tag", GATES)
    def test_gate_semantics_preserved(self, tag):
        g = single_gate(tag)
        lowered = lower_gates(g)
        for a, c in itertools.product((0, 1), repeat=2):
            inputs = {0: a, 1: c}
            assert evaluate(lowered, inputs) == evaluate(g, inputs)
            assert evaluate(g, inputs)[g.returns[0]] == gate_output(tag, a, c)

    def test_not_lowering(self):
        b = GraphBuilder("n")
        x = b.argument(LWE)
        b.ret(b.op(OpKind(OpTag.NOT), x))
        g = lower_gates(b.build())
        (op,) = g.operators
        assert op.kind.tag is OpTag.LUT_LINCOMB
        assert op.kind.coeffs == (1,)
        assert op.kind.lut == OpTag.NOT.table
        assert evaluate(g, {0: 0})[g.returns[0]] == 1
        assert evaluate(g, {0: 1})[g.returns[0]] == 0

    def test_idempotent(self):
        g = lower_gates(build_half_adder())
        assert genutil.isomorphic(g, lower_gates(g))

    def test_lut_ops_untouched(self):
        b = GraphBuilder("luts")
        a = b.argument(LWE)
        c = b.argument(LWE)
        l2 = b.op(OpKind(OpTag.LUT2, lut=0b0110), a, c)
        p = b.op(OpKind(OpTag.PACKED), l2)
        b.ret(b.op(OpKind(OpTag.LUT_LINCOMB, coeffs=(1, 2), lut=0b1000), p, a))
        g = b.build()
        assert genutil.isomorphic(g, lower_gates(g))

    def test_ckks_graph_untouched(self):
        rng = random.Random(21)
        for _ in range(20):
            g = genutil.random_ckks_graph(rng)
            assert genutil.isomorphic(g, lower_gates(g))

    def test_sections_and_names_preserved(self):
        g = build_half_adder()
        g = replace(g, operators=tuple(replace(op, section=op.id) for op in g.operators))
        lowered = lower_gates(g)
        assert [op.section for op in lowered.operators] == [0, 1]
        assert lowered.value_names == g.value_names

    def test_random_semantics(self):
        rng = random.Random(22)
        for _ in range(100):
            g = genutil.random_bool_graph(rng)
            lowered = lower_gates(g)
            assert not validate(lowered)
            assert genutil.eval_all_bool(lowered) == genutil.eval_all_bool(g)


class TestCanonicalizeDce:
    def test_dead_op_removed(self):
        b = GraphBuilder("dead")
        a = b.argument(LWE)
        c = b.argument(LWE)
        b.op(OpKind(OpTag.AND), a, c)
        live = b.op(OpKind(OpTag.XOR), a, c, name="out")
        b.ret(live)
        g = canonicalize(b.build())
        assert len(g.operators) == 1
        assert g.operators[0].kind.tag is OpTag.XOR
        assert g.display_name(g.returns[0]) == "out"

    def test_dead_chain_removed(self):
        b = GraphBuilder("deadchain")
        a = b.argument(LWE)
        d1 = b.op(OpKind(OpTag.NOT), a)
        b.op(OpKind(OpTag.NOT), d1)
        b.ret(a)
        g = canonicalize(b.build())
        assert g.operators == ()
        assert g.returns == (0,)


class TestCanonicalizeDoubleNegation:
    def test_not_not_feeds_consumer(self):
        b = GraphBuilder("nn")
        a = b.argument(LWE)
        n1 = b.op(OpKind(OpTag.NOT), a)
        n2 = b.op(OpKind(OpTag.NOT), n1)
        b.ret(b.op(OpKind(OpTag.XOR), a, n2))
        g = canonicalize(b.build())
        assert len(g.operators) == 1
        op = g.operators[0]
        assert op.kind.tag is OpTag.XOR
        assert op.operands == (0, 0)

    def test_not_chain_collapses_to_argument(self):
        b = GraphBuilder("n4")
        a = b.argument(LWE)
        v = a
        for _ in range(4):
            v = b.op(OpKind(OpTag.NOT), v)
        b.ret(v)
        g = canonicalize(b.build())
        assert g.operators == ()
        assert g.returns == (0,)

    def test_odd_chain_keeps_one_not(self):
        b = GraphBuilder("n3")
        a = b.argument(LWE)
        v = a
        for _ in range(3):
            v = b.op(OpKind(OpTag.NOT), v)
        b.ret(v)
        g = canonicalize(b.build())
        assert [op.kind.tag for op in g.operators] == [OpTag.NOT]
        assert g.operators[0].operands == (0,)


@contextmanager
def time_limit(seconds):
    """Fail, rather than hang, a call still running after `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
class TestCanonicalizeOrder:
    def test_long_not_chain_is_linear(self):
        # Resolving each Not-of-Not along the chain is O(n) in all; one
        # link at a time it was O(n**2), about 30 s at this length.
        g = genutil.not_chain(40_000)
        with time_limit(10):
            out = canonicalize(g)
        assert out.operators == ()
        assert out.returns == g.argument_ids

    def test_not_cycle_raises(self):
        ops = (
            Operator(0, OpKind(OpTag.NOT), (2,), (1,)),
            Operator(1, OpKind(OpTag.NOT), (1,), (2,)),
        )
        g = CircuitGraph("f", ((0, LWE),), ops, (2,), {})
        assert [v.code for v in validate(g)] == ["cycle"]
        with time_limit(5), pytest.raises(ValueError, match="^graph contains a dependency cycle$"):
            canonicalize(g)

    def test_cycle_without_a_not_pair_raises(self):
        # No Not feeds a Not, so no rule needs the order; the entry check does.
        ops = (
            Operator(0, OpKind(OpTag.AND), (0, 2), (1,)),
            Operator(1, OpKind(OpTag.NOT), (1,), (2,)),
        )
        g = CircuitGraph("f", ((0, LWE),), ops, (1,), {})
        with pytest.raises(ValueError, match="^graph contains a dependency cycle$"):
            canonicalize(g)

    @pytest.mark.parametrize("ids, violation", test_ir.BAD_IDS, ids=["high", "negative", "repeat", "str"])
    def test_bad_ids_raise_with_the_message(self, ids, violation):
        with time_limit(5), pytest.raises(ValueError) as info:
            canonicalize(test_ir.two_not_chain(ids))
        assert str(info.value) == violation[2]


class TestCanonicalizeFusion:
    def test_frozen_fused_mask(self):
        g = canonicalize(gate_pair(OpTag.AND, OpTag.XOR))
        (op,) = g.operators
        assert op.kind.tag is OpTag.LUT3
        assert op.kind.lut == 0b01111000
        assert op.operands == (0, 1, 2)
        assert g.display_name(op.results[0]) == "out"

    @pytest.mark.parametrize("inner", GATES)
    @pytest.mark.parametrize("outer", GATES)
    def test_all_pairs_fuse_correctly(self, inner, outer):
        for slot in (0, 1):
            g = gate_pair(inner, outer, outer_slot=slot)
            fused = canonicalize(g)
            assert len(fused.operators) == 1
            assert fused.operators[0].kind.tag is OpTag.LUT3
            assert genutil.eval_all_bool(fused) == genutil.eval_all_bool(g)

    def test_shared_input_gives_lut2(self):
        g = gate_pair(OpTag.AND, OpTag.XOR, share_input=True)
        fused = canonicalize(g)
        (op,) = fused.operators
        assert op.kind.tag is OpTag.LUT2
        assert op.operands == (0, 1)
        assert genutil.eval_all_bool(fused) == genutil.eval_all_bool(g)

    def test_single_input_duplicates_operand(self):
        # xor(and(a, a), a) is constant 0; or(and(a, a), a) is a, whose
        # off-diagonal index bits follow operand 0: mask 0b1010.
        for outer, mask in ((OpTag.XOR, 0b0000), (OpTag.OR, 0b1010)):
            b = GraphBuilder("one")
            a = b.argument(LWE)
            i = b.op(OpKind(OpTag.AND), a, a)
            b.ret(b.op(OpKind(outer), i, a))
            g = b.build()
            fused = canonicalize(g)
            (op,) = fused.operators
            assert op.kind.tag is OpTag.LUT2
            assert op.kind.lut == mask
            assert op.operands == (0, 0)
            assert genutil.eval_all_bool(fused) == genutil.eval_all_bool(g)

    def test_multi_use_inner_not_fused(self):
        b = GraphBuilder("multi")
        a = b.argument(LWE)
        c = b.argument(LWE)
        d = b.argument(LWE)
        i = b.op(OpKind(OpTag.AND), a, c)
        b.ret(b.op(OpKind(OpTag.XOR), i, d), b.op(OpKind(OpTag.OR), i, d))
        g = canonicalize(b.build())
        assert sorted((op.kind.tag for op in g.operators), key=lambda t: t.value) == [
            OpTag.AND,
            OpTag.OR,
            OpTag.XOR,
        ]

    def test_returned_inner_not_fused(self):
        b = GraphBuilder("ret")
        a = b.argument(LWE)
        c = b.argument(LWE)
        d = b.argument(LWE)
        i = b.op(OpKind(OpTag.AND), a, c)
        o = b.op(OpKind(OpTag.XOR), i, d)
        b.ret(i, o)
        g = canonicalize(b.build())
        assert len(g.operators) == 2

    def test_lut_inner_not_fused(self):
        b = GraphBuilder("lutin")
        a = b.argument(LWE)
        c = b.argument(LWE)
        d = b.argument(LWE)
        l2 = b.op(OpKind(OpTag.LUT2, lut=0b0110), a, c)
        b.ret(b.op(OpKind(OpTag.XOR), l2, d))
        g = canonicalize(b.build())
        assert len(g.operators) == 2

    def test_three_gate_chain_fuses_once_per_round(self):
        b = GraphBuilder("chain3")
        a = b.argument(LWE)
        c = b.argument(LWE)
        d = b.argument(LWE)
        e = b.argument(LWE)
        g1 = b.op(OpKind(OpTag.AND), a, c)
        g2 = b.op(OpKind(OpTag.OR), g1, d)
        b.ret(b.op(OpKind(OpTag.XOR), g2, e))
        g = b.build()
        fused = canonicalize(g)
        assert len(fused.operators) == 2
        assert fused.operators[0].kind.tag is OpTag.LUT3
        assert fused.operators[1].kind.tag is OpTag.XOR
        assert genutil.eval_all_bool(fused) == genutil.eval_all_bool(g)


class TestCanonicalizeProperties:
    def test_half_adder_already_canonical(self):
        g = build_half_adder()
        assert genutil.isomorphic(g, canonicalize(g))

    def test_live_ckks_graph_unchanged(self):
        from fabric_est.fixtures import build_ckks_dot_product

        g = build_ckks_dot_product(4)
        assert genutil.isomorphic(g, canonicalize(g))

    def test_ckks_graph_semantics(self):
        # Dead CKKS ops may be dropped, but returned values and the
        # surviving ops' kinds stay intact.
        rng = random.Random(23)
        for _ in range(20):
            g = genutil.random_ckks_graph(rng)
            canon = canonicalize(g)
            assert not validate(canon)
            assert len(canon.operators) <= len(g.operators)
            inputs = {vid: genutil.rand_vec(rng) for vid, _ in g.arguments}
            before = evaluate(g, inputs)
            after = evaluate(canon, inputs)
            for want, got in zip(
                (before[r] for r in g.returns),
                (after[r] for r in canon.returns),
            ):
                assert genutil.vec_close(want, got)

    def test_random_graphs(self):
        rng = random.Random(24)
        for _ in range(100):
            g = genutil.random_bool_graph(rng)
            canon = canonicalize(g)
            assert not validate(canon)
            assert len(canon.operators) <= len(g.operators)
            assert genutil.eval_all_bool(canon) == genutil.eval_all_bool(g)
            again = canonicalize(canon)
            assert genutil.isomorphic(canon, again)

    def test_composes_with_lowering(self):
        rng = random.Random(25)
        for _ in range(50):
            g = genutil.random_bool_graph(rng)
            both = lower_gates(canonicalize(g))
            assert not validate(both)
            assert genutil.eval_all_bool(both) == genutil.eval_all_bool(g)


def test_large_random_graphs_keep_semantics():
    # Graphs of up to 3,000 ops and 64 arguments, too many inputs for
    # eval_all_bool: each pass is checked on a few random input vectors.
    rng = random.Random(3571)
    passes = (
        lower_gates,
        canonicalize,
        lambda g: lower_gates(canonicalize(g)),
        lambda g: canonicalize(lower_gates(g)),
    )
    for _ in range(20):
        g = genutil.random_bool_graph(rng, max_ops=3000, max_args=64)
        rewritten = [rewrite(g) for rewrite in passes]
        for _ in range(3):
            inputs = {vid: rng.randrange(2) for vid in g.argument_ids}
            want = [evaluate(g, inputs)[r] for r in g.returns]
            for h in rewritten:
                assert [evaluate(h, inputs)[r] for r in h.returns] == want


class TestSectionize:
    def test_capacity_fits_everything(self):
        g = build_half_adder()
        annotated, plan = sectionize(g, 4096, COSTS)
        assert plan.section_count == 1
        assert plan.assignment == {0: 0, 1: 0}
        assert plan.capacity_fcs == 4096
        assert [op.section for op in annotated.operators] == [0, 0]
        assert not validate(annotated)

    def test_empty_graph(self):
        b = GraphBuilder("empty")
        x = b.argument(LWE)
        b.ret(x)
        annotated, plan = sectionize(b.build(), 100, COSTS)
        assert plan.section_count == 1
        assert plan.assignment == {}
        assert annotated.operators == ()

    def test_exact_boundary_packing(self):
        # And costs 256; a 512 capacity takes exactly two per section.
        b = GraphBuilder("pack")
        v = b.argument(LWE)
        for _ in range(5):
            v = b.op(OpKind(OpTag.AND), v, b.argument(LWE))
        b.ret(v)
        _, plan = sectionize(b.build(), 512, COSTS)
        assert plan.assignment == {0: 0, 1: 0, 2: 1, 3: 1, 4: 2}
        assert plan.section_count == 3

    def test_table3_mult8_at_half_chip(self):
        g = build_table3_mult8()
        annotated, plan = sectionize(g, 2048, COSTS)
        assert plan.section_count == 18
        assert sorted(plan.assignment) == [op.id for op in g.operators]
        sums = {}
        for oid, sec in plan.assignment.items():
            sums[sec] = sums.get(sec, 0) + COSTS[g.operator(oid).kind.tag].fcs
        assert set(sums) == set(range(18))
        assert all(total <= 2048 for total in sums.values())
        for op in annotated.operators:
            for v in op.operands:
                if v in annotated.producers:
                    assert annotated.producers[v].section <= op.section

    def test_forward_edges_random(self):
        rng = random.Random(26)
        for _ in range(50):
            g = genutil.random_bool_graph(rng)
            capacity = rng.choice([256, 300, 512, 1024])
            annotated, plan = sectionize(g, capacity, COSTS)
            assert plan.section_count >= 1
            for op in annotated.operators:
                assert op.section == plan.assignment[op.id]
                for v in op.operands:
                    if v in annotated.producers:
                        assert annotated.producers[v].section <= op.section
            sums = {}
            for oid, sec in plan.assignment.items():
                sums[sec] = sums.get(sec, 0) + COSTS[g.operator(oid).kind.tag].fcs
            assert all(total <= capacity for total in sums.values())

    def test_oversized_op_rejected(self):
        g = build_half_adder()
        with pytest.raises(TransformError, match="exceeds section capacity"):
            sectionize(g, 100, COSTS)

    @pytest.mark.parametrize("capacity", [0, -5])
    def test_bad_capacity_rejected(self, capacity):
        with pytest.raises(TransformError, match="capacity must be positive"):
            sectionize(build_half_adder(), capacity, COSTS)

    def test_deterministic(self):
        g = build_table3_mult8()
        assert sectionize(g, 2048, COSTS)[1] == sectionize(g, 2048, COSTS)[1]
