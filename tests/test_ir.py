"""Core IR: tags, kinds, builder, validation, evaluation."""

import gc
import random
import tracemalloc

import pytest

import genutil
from fabric_est import (
    CircuitGraph,
    EvaluationError,
    GraphBuilder,
    OpKind,
    Operator,
    OpTag,
    ParseError,
    ValueType,
    evaluate,
    PAPER_DEFAULT_PROFILE,
    approximate_cp,
    canonicalize,
    load_profile,
    longest_path_cp,
    paper_exact_cp,
    parse,
    print_circuit,
    sectionize,
    topological_sort,
    validate,
)
from fabric_est.fixtures import generate_from_spec
from fabric_est.ir import (
    BOOL_TAGS,
    CKKS_TAGS,
    TWO_INPUT_GATES,
    gate_output,
)


def codes(violations):
    return {v.code for v in violations}


class TestTags:
    def test_tag_partition(self):
        assert len(OpTag) == 23
        assert len(BOOL_TAGS) == 12
        assert len(CKKS_TAGS) == 11
        assert BOOL_TAGS | CKKS_TAGS == frozenset(OpTag)
        assert not BOOL_TAGS & CKKS_TAGS

    def test_dialect_and_opname(self):
        assert OpTag.AND.dialect == "bool"
        assert OpTag.ADD.dialect == "ckks"
        assert OpTag.AND.opname == "scifr_bool.and"
        assert OpTag.MUL_PLAIN.opname == "scifr_ckks.mul_plain"

    def test_result_types(self):
        for tag in BOOL_TAGS:
            assert tag.result_type is ValueType.LWE_CIPHERTEXT
        for tag in CKKS_TAGS:
            assert tag.result_type is ValueType.CKKS_CIPHERTEXT


class TestOpKind:
    def test_arity(self):
        assert OpKind(OpTag.AND).arity == 2
        assert OpKind(OpTag.NOT).arity == 1
        assert OpKind(OpTag.PACKED).arity == 1
        assert OpKind(OpTag.LUT2, lut=5).arity == 2
        assert OpKind(OpTag.LUT3, lut=5).arity == 3
        assert OpKind(OpTag.LUT_LINCOMB, coeffs=(1, 2, 4), lut=1).arity == 3
        assert OpKind(OpTag.ROTATE, offset=1).arity == 1
        assert OpKind(OpTag.ADD).arity == 2

    def test_num_results(self):
        assert OpKind(OpTag.AND).num_results == 1
        k = OpKind(OpTag.MULTI_LUT_LINCOMB, coeffs=(1, 2), luts=(1, 2, 3))
        assert k.num_results == 3

    def test_coeffs_normalized_to_tuple(self):
        k = OpKind(OpTag.LUT_LINCOMB, coeffs=[1, 2], lut=3)
        assert k.coeffs == (1, 2)
        assert isinstance(k.coeffs, tuple)

    def test_luts_normalized_to_tuple(self):
        k = OpKind(OpTag.MULTI_LUT_LINCOMB, coeffs=(1,), luts=[1, 2])
        assert k.luts == (1, 2)
        assert isinstance(k.luts, tuple)
        assert k.num_results == 2

    def test_operator_operands_and_results_become_tuples(self):
        op = Operator(0, OpKind(OpTag.AND), [0, 1], iter([2]))
        assert op.operands == (0, 1)
        assert op.results == (2,)

    def test_attrs_dict(self):
        k = OpKind(OpTag.LUT_LINCOMB, coeffs=(1, 2), lut=6)
        assert k.attrs() == {"coeffs": (1, 2), "lut": 6}
        assert OpKind(OpTag.AND).attrs() == {}


class TestBuilder:
    def test_default_names(self):
        b = GraphBuilder("f")
        a = b.argument(ValueType.LWE_CIPHERTEXT)
        r = b.op(OpKind(OpTag.NOT), a)
        b.ret(r)
        g = b.build()
        assert g.display_name(a) == "a0"
        assert g.display_name(r) == "0"

    def test_duplicate_name_rejected(self):
        b = GraphBuilder("f")
        b.argument(ValueType.LWE_CIPHERTEXT, name="x")
        with pytest.raises(ValueError):
            b.argument(ValueType.LWE_CIPHERTEXT, name="x")

    def test_default_result_name_skips_a_taken_name(self):
        b = GraphBuilder("f")
        a = b.argument(ValueType.LWE_CIPHERTEXT, name="0")
        r = b.op(OpKind(OpTag.NOT), a)
        b.ret(b.op(OpKind(OpTag.NOT), r))
        g = b.build()
        names = [g.display_name(v) for v in (a, r, *g.returns)]
        assert names[0] == "0"
        assert len(set(names)) == 3
        assert validate(g) == []

    def test_op_rejects_a_multi_result_kind(self):
        b = GraphBuilder("f")
        a = b.argument(ValueType.LWE_CIPHERTEXT)
        kind = OpKind(OpTag.MULTI_LUT_LINCOMB, coeffs=(1,), luts=(1, 2))
        with pytest.raises(ValueError, match="^scifr_bool.multi_lut_lincomb is not single-result$"):
            b.op(kind, a)

    def test_multi_op_needs_luts(self):
        b = GraphBuilder("f")
        a = b.argument(ValueType.LWE_CIPHERTEXT)
        kind = OpKind(OpTag.MULTI_LUT_LINCOMB, coeffs=(1,))
        with pytest.raises(
            ValueError, match="^scifr_bool.multi_lut_lincomb has underspecified attributes$"
        ):
            b.multi_op(kind, a)

    def test_graph_accessors(self):
        b = GraphBuilder("f")
        a = b.argument(ValueType.LWE_CIPHERTEXT)
        c = b.argument(ValueType.LWE_CIPHERTEXT)
        r = b.op(OpKind(OpTag.AND), a, c)
        s = b.op(OpKind(OpTag.NOT), r)
        b.ret(s)
        g = b.build()
        assert g.argument_ids == (a, c)
        assert g.producers[r].kind.tag is OpTag.AND
        assert g.consumers[r] == (g.producers[s].id,)
        assert g.sink_op_ids == {g.producers[s].id}
        assert g.value_types[a] is ValueType.LWE_CIPHERTEXT


def recomputed_index(g):
    """consumers and op_succs recomputed from the operator list alone:
    a sorted set of consuming op ids per value, and the inverse of the
    producer edges (the first definition of a value is its producer)."""
    consumers, producer = {}, {}
    for op in g.operators:
        for v in op.operands:
            consumers.setdefault(v, set()).add(op.id)
        for r in op.results:
            producer.setdefault(r, op.id)
    succs = {op.id: set() for op in g.operators}
    for op in g.operators:
        for v in op.operands:
            if v in producer:
                succs[producer[v]].add(op.id)
    return (
        {v: tuple(sorted(ids)) for v, ids in consumers.items()},
        {oid: tuple(sorted(ids)) for oid, ids in succs.items()},
    )


def random_multi_result_graph(rng, max_ops=30):
    """Mostly multi_lut_lincomb ops, drawing operands from the newest
    values, so consumers often take two results of one op."""
    b = GraphBuilder("multi")
    vals = [b.argument(ValueType.LWE_CIPHERTEXT) for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(1, max_ops)):
        arity = rng.randint(1, 3)
        operands = [rng.choice(vals[-4:]) for _ in range(arity)]
        if rng.random() < 0.8:
            luts = tuple(rng.randrange(1 << (1 << arity)) for _ in range(rng.randint(1, 3)))
            kind = OpKind(OpTag.MULTI_LUT_LINCOMB, coeffs=(1, 2, 4)[:arity], luts=luts)
            vals.extend(b.multi_op(kind, *operands))
        else:
            vals.append(b.op(OpKind(OpTag.NOT), operands[0]))
    b.ret(vals[-1])
    return b.build()


class TestEdgeIndex:
    def assert_matches_recomputation(self, g):
        consumers, succs = recomputed_index(g)
        assert g.consumers == consumers
        assert g.op_succs == succs

    def test_random_graphs(self):
        rng = random.Random(7919)
        for i in range(300):
            make = genutil.random_bool_graph if i % 2 else genutil.random_ckks_graph
            g = make(rng, max_ops=40)
            self.assert_matches_recomputation(g)
            self.assert_matches_recomputation(genutil.permute_operators(g, rng))

    def test_multi_result_ops(self):
        rng = random.Random(7927)
        for _ in range(200):
            g = random_multi_result_graph(rng)
            self.assert_matches_recomputation(g)
            self.assert_matches_recomputation(genutil.permute_operators(g, rng))

    def test_both_results_of_one_op_give_one_edge(self):
        b = GraphBuilder("f")
        x = b.argument(ValueType.LWE_CIPHERTEXT)
        lo, hi = b.multi_op(OpKind(OpTag.MULTI_LUT_LINCOMB, coeffs=(1,), luts=(1, 2)), x)
        b.ret(b.op(OpKind(OpTag.AND), lo, hi), b.op(OpKind(OpTag.NOT), hi))
        g = b.build()
        assert g.consumers == {x: (0,), lo: (1,), hi: (1, 2)}
        assert g.op_succs == {0: (1, 2), 1: (), 2: ()}
        assert g.topology.order == (0, 1, 2)

    def test_first_definition_is_the_producer(self):
        ops = (
            Operator(0, OpKind(OpTag.NOT), (0,), (1,)),
            Operator(1, OpKind(OpTag.NOT), (0,), (1,)),
            Operator(2, OpKind(OpTag.NOT), (1,), (2,)),
        )
        g = CircuitGraph("f", ((0, ValueType.LWE_CIPHERTEXT),), ops, (2,), {})
        assert g.op_succs == {0: (2,), 1: (), 2: ()} == recomputed_index(g)[1]
        assert g.topology.order == (0, 1, 2)

    def test_repeated_ids_have_no_order(self):
        # an acyclic chain of two nots whose ids collide
        ops = (
            Operator(0, OpKind(OpTag.NOT), (0,), (1,)),
            Operator(0, OpKind(OpTag.NOT), (1,), (2,)),
        )
        g = CircuitGraph("f", ((0, ValueType.LWE_CIPHERTEXT),), ops, (2,), {})
        with pytest.raises(ValueError, match="^duplicate operator id 0$"):
            g.topology
        assert [v.code for v in validate(g)] == ["duplicate-id"]

    def test_cycle_has_no_order(self):
        # two ands that consume each other's result, with ids 0 and 1
        ops = (
            Operator(0, OpKind(OpTag.AND), (0, 3), (2,)),
            Operator(1, OpKind(OpTag.AND), (0, 2), (3,)),
        )
        g = CircuitGraph("f", ((0, ValueType.LWE_CIPHERTEXT),), ops, (2,), {})
        assert g.op_succs == {0: (1,), 1: (0,)}
        with pytest.raises(ValueError, match="^graph contains a dependency cycle$"):
            g.topology.order
        with pytest.raises(ValueError, match="^graph contains a dependency cycle$"):
            g.topology.heights
        assert [v.code for v in validate(g)] == ["cycle"]


def two_not_chain(ids):
    """A chain of two nots from one argument, with operator ids `ids`."""
    ops = (
        Operator(ids[0], OpKind(OpTag.NOT), (0,), (1,)),
        Operator(ids[1], OpKind(OpTag.NOT), (1,), (2,)),
    )
    return CircuitGraph("f", ((0, ValueType.LWE_CIPHERTEXT),), ops, (2,), {})


# Operator ids that are not a permutation of 0..n-1, and the one violation
# (code, op_id, message) that validate() gives for each.
BAD_IDS = [
    ((0, 5), ("op-id", 5, "operator id 5 not in [0, 2)")),
    ((-1, 0), ("op-id", -1, "operator id -1 not in [0, 2)")),
    ((0, 0), ("duplicate-id", 0, "duplicate operator id 0")),
    ((0, "1"), ("op-id", "1", "operator id '1' not in [0, 2)")),
]


@pytest.mark.parametrize("ids, violation", BAD_IDS, ids=["high", "negative", "repeat", "str"])
class TestBadOperatorIds:
    def test_one_violation_and_no_order(self, ids, violation):
        g = two_not_chain(ids)
        assert [(v.code, v.op_id, v.message) for v in validate(g)] == [violation]
        with pytest.raises(ValueError) as info:
            g.topology
        assert str(info.value) == violation[2]

    def test_order_readers_raise_with_the_message(self, ids, violation):
        message = violation[2]
        g = two_not_chain(ids)
        _, costs = load_profile(PAPER_DEFAULT_PROFILE)
        calls = [
            topological_sort,
            approximate_cp,
            paper_exact_cp,
            longest_path_cp,
            lambda g: sectionize(g, 2048, costs),
            canonicalize,
        ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call(g)
            assert str(info.value) == message
        with pytest.raises(EvaluationError) as info:
            evaluate(g, {0: 1})
        assert str(info.value) == message

    def test_index_reads_raise_with_the_message(self, ids, violation):
        readers = [
            lambda g: g.consumers,
            lambda g: g.topology,
            lambda g: g.sink_op_ids,
            topological_sort,
            approximate_cp,
            paper_exact_cp,
            longest_path_cp,
        ]
        for read in readers:
            g = two_not_chain(ids)  # fresh, so no reader finds another's cache
            with pytest.raises(ValueError) as info:
                read(g)
            assert str(info.value) == violation[2]

    def test_operator_raises_with_the_message(self, ids, violation):
        g = two_not_chain(ids)
        for op_id in (0, 1, -1, 2):
            with pytest.raises(ValueError) as info:
                g.operator(op_id)
            assert str(info.value) == violation[2]


def test_indexes_build_without_transient_copies():
    """_by_id and consumers fill their own containers: building both
    allocates no more on the way than the two indexes keep."""
    g = generate_from_spec("array-mult:16")
    gc.collect()  # so that no collection of earlier garbage falls in the window
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g._by_id, g.consumers
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    kept = current - before
    assert kept > 0
    assert peak - current <= kept, (peak - current, kept)


class TestOperatorLookup:
    def test_every_id_reads_its_op(self):
        g = two_not_chain((1, 0))
        assert [g.operator(i) for i in range(2)] == sorted(g.operators, key=lambda op: op.id)

    @pytest.mark.parametrize("op_id", [-1, -2, 2, 3, "0", None])
    def test_id_outside_the_range_is_a_key_error(self, op_id):
        g = two_not_chain((0, 1))
        with pytest.raises(KeyError):
            g.operator(op_id)

    def test_fixture_ids_minus_one_and_n(self):
        from fabric_est import generate_fixture

        g = generate_fixture("full-adder")
        assert g.operator(len(g.operators) - 1).id == len(g.operators) - 1
        for op_id in (-1, len(g.operators)):
            with pytest.raises(KeyError):
                g.operator(op_id)

    def test_shifted_ids_raise_a_value_error(self):
        # ids 1..n: no op 0, and op n is past the range
        g = two_not_chain((1, 2))
        for op_id in (0, 1, 2, -1):
            with pytest.raises(ValueError) as info:
                g.operator(op_id)
            assert str(info.value) == "operator id 2 not in [0, 2)"


class TestValidate:
    def test_fixtures_are_valid(self):
        from fabric_est import fixture_names, generate_fixture

        for name in fixture_names():
            assert validate(generate_fixture(name)) == []

    def test_random_graphs_are_valid(self):
        rng = random.Random(7)
        for _ in range(50):
            assert validate(genutil.random_bool_graph(rng)) == []
            assert validate(genutil.random_ckks_graph(rng)) == []

    def _one_op_graph(self, op, arg_types=(ValueType.LWE_CIPHERTEXT,) * 2):
        args = tuple((i, t) for i, t in enumerate(arg_types))
        return CircuitGraph("f", args, (op,), (op.results[0],), {})

    def test_use_before_def(self):
        op = Operator(0, OpKind(OpTag.AND), (0, 99), (2,))
        v = validate(self._one_op_graph(op))
        assert codes(v) == {"use-before-def"}
        assert "use-before-def %99" in v[0].message

    def test_return_before_def(self):
        op = Operator(0, OpKind(OpTag.NOT), (0,), (1,))
        g = CircuitGraph("f", ((0, ValueType.LWE_CIPHERTEXT),), (op,), (1, 99), {})
        assert [(v.code, v.message, v.op_id) for v in validate(g)] == [
            ("use-before-def", "use-before-def %99", None)
        ]

    def test_double_def(self):
        op1 = Operator(0, OpKind(OpTag.NOT), (0,), (2,))
        op2 = Operator(1, OpKind(OpTag.NOT), (0,), (2,))
        g = CircuitGraph(
            "f", ((0, ValueType.LWE_CIPHERTEXT),), (op1, op2), (2,), {}
        )
        assert "double-def" in codes(validate(g))

    def test_operand_arity_mismatch(self):
        op = Operator(0, OpKind(OpTag.NOT), (0, 1), (2,))
        assert "arity-mismatch" in codes(validate(self._one_op_graph(op)))

    def test_result_count_mismatch(self):
        op = Operator(0, OpKind(OpTag.AND), (0, 1), (2, 3))
        g = CircuitGraph(
            "f",
            ((0, ValueType.LWE_CIPHERTEXT), (1, ValueType.LWE_CIPHERTEXT)),
            (op,),
            (2,),
            {},
        )
        assert "arity-mismatch" in codes(validate(g))

    def test_missing_attr(self):
        op = Operator(0, OpKind(OpTag.LUT2), (0, 1), (2,))
        v = validate(self._one_op_graph(op))
        assert "attr" in codes(v)

    def test_unexpected_attr(self):
        op = Operator(0, OpKind(OpTag.AND, lut=3), (0, 1), (2,))
        assert "attr" in codes(validate(self._one_op_graph(op)))

    def test_lut_mask_range(self):
        op = Operator(0, OpKind(OpTag.LUT2, lut=16), (0, 1), (2,))
        v = validate(self._one_op_graph(op))
        assert "lut-range" in codes(v)
        assert any("LUT mask out of range" in x.message for x in v)

    @pytest.mark.parametrize(
        "coeffs, ok",
        [((1, 2), True), ((0, 3), True), ((2, 2), False), ((1, -1), False), ((-2, 5), False)],
    )
    def test_lincomb_index_range(self, coeffs, ok):
        # Every index the coeffs can give must fall inside the table.
        op = Operator(0, OpKind(OpTag.LUT_LINCOMB, coeffs=coeffs, lut=1), (0, 1), (2,))
        v = [x for x in validate(self._one_op_graph(op)) if x.code == "lut-range"]
        assert (v == []) == ok
        assert all(x.attr == "coeffs" for x in v)

    @pytest.mark.parametrize(
        "kind, results, attr",
        [
            (OpKind(OpTag.LUT_LINCOMB, coeffs=(), lut=1), (2,), "coeffs"),
            (OpKind(OpTag.MULTI_LUT_LINCOMB, coeffs=(1, 2), luts=()), (), "luts"),
        ],
    )
    def test_empty_list_attribute(self, kind, results, attr):
        args = ((0, ValueType.LWE_CIPHERTEXT), (1, ValueType.LWE_CIPHERTEXT))
        g = CircuitGraph("f", args, (Operator(0, kind, (0, 1), results),), (0,), {})
        message = f"{kind.tag.opname} requires a non-empty '{attr}'"
        assert [(v.code, v.message, v.attr) for v in validate(g)] == [("attr", message, attr)]

    def test_multi_lut_mask_range(self):
        kind = OpKind(OpTag.MULTI_LUT_LINCOMB, coeffs=(1, 2), luts=(3, 16))
        op = Operator(0, kind, (0, 1), (2, 3))
        g = CircuitGraph(
            "f",
            ((0, ValueType.LWE_CIPHERTEXT), (1, ValueType.LWE_CIPHERTEXT)),
            (op,),
            (2, 3),
            {},
        )
        assert "lut-range" in codes(validate(g))

    def test_operand_type_mismatch(self):
        op = Operator(0, OpKind(OpTag.ADD), (0, 1), (2,))
        g = CircuitGraph(
            "f",
            ((0, ValueType.CKKS_CIPHERTEXT), (1, ValueType.LWE_CIPHERTEXT)),
            (op,),
            (2,),
            {},
        )
        assert "type-mismatch" in codes(validate(g))

    def test_plain_operand_slot(self):
        # operand 1 of mul_plain must be plaintext
        op = Operator(0, OpKind(OpTag.MUL_PLAIN), (0, 1), (2,))
        good = CircuitGraph(
            "f",
            ((0, ValueType.CKKS_CIPHERTEXT), (1, ValueType.CKKS_PLAINTEXT)),
            (op,),
            (2,),
            {},
        )
        assert validate(good) == []
        bad = CircuitGraph(
            "f",
            ((0, ValueType.CKKS_CIPHERTEXT), (1, ValueType.CKKS_CIPHERTEXT)),
            (op,),
            (2,),
            {},
        )
        assert "type-mismatch" in codes(validate(bad))

    def test_cycle(self):
        op1 = Operator(0, OpKind(OpTag.AND), (0, 3), (2,))
        op2 = Operator(1, OpKind(OpTag.AND), (0, 2), (3,))
        g = CircuitGraph(
            "f", ((0, ValueType.LWE_CIPHERTEXT),), (op1, op2), (2,), {}
        )
        assert "cycle" in codes(validate(g))
        with pytest.raises(ValueError, match="^graph contains a dependency cycle$"):
            g.topology.order

    def test_self_use_is_a_cycle(self):
        op = Operator(0, OpKind(OpTag.AND), (1, 0), (1,))
        g = CircuitGraph("f", ((0, ValueType.LWE_CIPHERTEXT),), (op,), (1,), {})
        assert g.op_succs == {0: (0,)}
        with pytest.raises(ValueError, match="^graph contains a dependency cycle$"):
            g.topology.order
        assert [v.code for v in validate(g)] == ["cycle"]

    def test_duplicate_operator_id(self):
        # an acyclic chain of two nots whose ids collide
        op1 = Operator(0, OpKind(OpTag.NOT), (0,), (1,))
        op2 = Operator(0, OpKind(OpTag.NOT), (1,), (2,))
        g = CircuitGraph("f", ((0, ValueType.LWE_CIPHERTEXT),), (op1, op2), (2,), {})
        assert [(v.code, v.op_id, v.message) for v in validate(g)] == [
            ("duplicate-id", 0, "duplicate operator id 0")
        ]

    def test_cycle_names_smallest_unreleased_op(self):
        # ops 1 and 2 form a cycle; op 0 comes before it, op 3 below it
        ops = (
            Operator(0, OpKind(OpTag.NOT), (0,), (1,)),
            Operator(1, OpKind(OpTag.AND), (1, 3), (2,)),
            Operator(2, OpKind(OpTag.NOT), (2,), (3,)),
            Operator(3, OpKind(OpTag.NOT), (3,), (4,)),
        )
        g = CircuitGraph("f", ((0, ValueType.LWE_CIPHERTEXT),), ops, (4,), {})
        assert [(v.code, v.op_id) for v in validate(g)] == [("cycle", 1)]

    @pytest.mark.parametrize(
        "section, message",
        [(-1, "section must be non-negative"), ((1,), "attribute 'section' must be an integer")],
    )
    def test_bad_section(self, section, message):
        op = Operator(0, OpKind(OpTag.NOT), (0,), (1,), section)
        g = CircuitGraph("f", ((0, ValueType.LWE_CIPHERTEXT),), (op,), (1,), {})
        assert [(v.code, v.op_id, v.attr, v.message) for v in validate(g)] == [
            ("attr", 0, "section", message)
        ]

    @pytest.mark.parametrize(
        "kind, vtype",
        [
            (OpKind(OpTag.LUT2, lut=(1, 2)), ValueType.LWE_CIPHERTEXT),
            (OpKind(OpTag.EXTRACT, index=(0,)), ValueType.CKKS_CIPHERTEXT),
        ],
    )
    def test_wrongly_shaped_attribute(self, kind, vtype):
        (attr,) = kind.attrs()
        op = Operator(0, kind, (0,) * kind.arity, (1,))
        g = CircuitGraph("f", ((0, vtype),), (op,), (1,), {})
        assert [(v.code, v.attr, v.message) for v in validate(g)] == [
            ("attr", attr, f"attribute '{attr}' must be an integer")
        ]

    @pytest.mark.parametrize(
        "tag, attrs, attr",
        [
            (OpTag.LUT_LINCOMB, {"coeffs": 3, "lut": 1}, "coeffs"),
            (OpTag.MULTI_LUT_LINCOMB, {"coeffs": (1,), "luts": 5}, "luts"),
        ],
        ids=["coeffs", "luts"],
    )
    def test_integer_given_for_a_list(self, tag, attrs, attr):
        kind = OpKind(tag, **attrs)
        assert kind.arity is None or kind.num_results is None
        op = Operator(0, kind, (0,), (1,))
        g = CircuitGraph("f", ((0, ValueType.LWE_CIPHERTEXT),), (op,), (1,), {})
        assert [(v.code, v.attr, v.message) for v in validate(g)] == [
            ("attr", attr, f"attribute '{attr}' must be an integer list")
        ]

    @pytest.mark.parametrize(
        "func, names, message",
        [
            ("my-func", {}, "function name @my-func is not an identifier"),
            ("f", {0: "x y"}, "value name %x y is not a valid name"),
            ("f", {0: "a", 1: "a"}, "value name %a is used more than once"),
            ("f", {0: "1"}, "value name %1 is used more than once"),  # value 1 prints as %1
        ],
        ids=["function", "value", "shared", "shared-with-an-id"],
    )
    def test_names_that_do_not_print_back(self, func, names, message):
        op = Operator(0, OpKind(OpTag.NOT), (0,), (1,))
        g = CircuitGraph(func, ((0, ValueType.LWE_CIPHERTEXT),), (op,), (1,), names)
        assert [(v.code, v.message) for v in validate(g)] == [("name", message)]
        with pytest.raises(ParseError):
            parse(print_circuit(g))

    def test_stored_order_need_not_be_topological(self):
        # op 0 consumes op 1's result; stored first anyway
        op1 = Operator(0, OpKind(OpTag.NOT), (3,), (2,))
        op2 = Operator(1, OpKind(OpTag.NOT), (0,), (3,))
        g = CircuitGraph(
            "f", ((0, ValueType.LWE_CIPHERTEXT),), (op1, op2), (2,), {}
        )
        assert validate(g) == []
        assert g.topology.order == (1, 0)


class TestEvaluateBool:
    @pytest.mark.parametrize("tag", sorted(TWO_INPUT_GATES, key=lambda t: t.value))
    def test_gate_truth_tables(self, tag):
        expected = {
            OpTag.AND: [0, 0, 0, 1],
            OpTag.NAND: [1, 1, 1, 0],
            OpTag.NOR: [1, 0, 0, 0],
            OpTag.OR: [0, 1, 1, 1],
            OpTag.XOR: [0, 1, 1, 0],
            OpTag.XNOR: [1, 0, 0, 1],
        }[tag]
        b = GraphBuilder("g")
        x = b.argument(ValueType.LWE_CIPHERTEXT)
        y = b.argument(ValueType.LWE_CIPHERTEXT)
        r = b.op(OpKind(tag), x, y)
        b.ret(r)
        g = b.build()
        for i in range(4):
            bits = (i & 1, (i >> 1) & 1)
            env = evaluate(g, {x: bits[0], y: bits[1]})
            assert env[r] == expected[i]
            assert gate_output(tag, *bits) == expected[i]

    def test_not_and_packed(self):
        b = GraphBuilder("g")
        x = b.argument(ValueType.LWE_CIPHERTEXT)
        n = b.op(OpKind(OpTag.NOT), x)
        p = b.op(OpKind(OpTag.PACKED), x)
        b.ret(n, p)
        g = b.build()
        for v in (0, 1):
            env = evaluate(g, {x: v})
            assert env[n] == 1 - v
            assert env[p] == v

    def test_lut2_bit_order(self):
        # index = operand0 + 2*operand1
        b = GraphBuilder("g")
        x = b.argument(ValueType.LWE_CIPHERTEXT)
        y = b.argument(ValueType.LWE_CIPHERTEXT)
        r = b.op(OpKind(OpTag.LUT2, lut=0b0010), x, y)
        b.ret(r)
        g = b.build()
        outs = {
            (x0, y0): evaluate(g, {x: x0, y: y0})[r]
            for x0 in (0, 1)
            for y0 in (0, 1)
        }
        assert outs == {(0, 0): 0, (1, 0): 1, (0, 1): 0, (1, 1): 0}

    def test_lut3_bit_order(self):
        b = GraphBuilder("g")
        args = [b.argument(ValueType.LWE_CIPHERTEXT) for _ in range(3)]
        r = b.op(OpKind(OpTag.LUT3, lut=0b10010110), *args)
        b.ret(r)
        g = b.build()
        # mask bit 5 is 0: inputs (1, 0, 1)
        env = evaluate(g, {args[0]: 1, args[1]: 0, args[2]: 1})
        assert env[r] == 0
        for i in range(8):
            ins = {args[k]: (i >> k) & 1 for k in range(3)}
            assert evaluate(g, ins)[r] == (0b10010110 >> i) & 1

    def test_lut_lincomb_index(self):
        b = GraphBuilder("g")
        x = b.argument(ValueType.LWE_CIPHERTEXT)
        y = b.argument(ValueType.LWE_CIPHERTEXT)
        r = b.op(OpKind(OpTag.LUT_LINCOMB, coeffs=(1, 2), lut=0b0110), x, y)
        b.ret(r)
        g = b.build()
        for x0 in (0, 1):
            for y0 in (0, 1):
                assert evaluate(g, {x: x0, y: y0})[r] == x0 ^ y0

    def test_lut_lincomb_index_out_of_range(self):
        b = GraphBuilder("g")
        x = b.argument(ValueType.LWE_CIPHERTEXT)
        y = b.argument(ValueType.LWE_CIPHERTEXT)
        r = b.op(OpKind(OpTag.LUT_LINCOMB, coeffs=(3, 1), lut=0b0110), x, y)
        b.ret(r)
        g = b.build()
        assert evaluate(g, {x: 0, y: 1})[r] == 1  # index 1, in range
        with pytest.raises(EvaluationError):
            evaluate(g, {x: 1, y: 1})  # index 4, out of [0, 4)

    def test_multi_lut_lincomb(self):
        b = GraphBuilder("g")
        x = b.argument(ValueType.LWE_CIPHERTEXT)
        y = b.argument(ValueType.LWE_CIPHERTEXT)
        kind = OpKind(
            OpTag.MULTI_LUT_LINCOMB, coeffs=(1, 2), luts=(0b0110, 0b1000)
        )
        s, c = b.multi_op(kind, x, y)
        b.ret(s, c)
        g = b.build()
        for x0 in (0, 1):
            for y0 in (0, 1):
                env = evaluate(g, {x: x0, y: y0})
                assert env[s] == x0 ^ y0
                assert env[c] == x0 & y0

    def test_input_cover_is_exact(self):
        b = GraphBuilder("g")
        x = b.argument(ValueType.LWE_CIPHERTEXT)
        y = b.argument(ValueType.LWE_CIPHERTEXT)
        b.ret(b.op(OpKind(OpTag.AND), x, y))
        g = b.build()
        with pytest.raises(EvaluationError):
            evaluate(g, {x: 1})
        with pytest.raises(EvaluationError):
            evaluate(g, {x: 1, y: 0, 99: 1})
        with pytest.raises(EvaluationError):
            evaluate(g, {x: 2, y: 0})
        with pytest.raises(EvaluationError, match="got a value of type int$"):
            evaluate(g, {x: 10**5000, y: 0})  # too long for repr

    def test_bool_inputs_are_bits(self):
        b = GraphBuilder("g")
        x = b.argument(ValueType.LWE_CIPHERTEXT)
        y = b.argument(ValueType.LWE_CIPHERTEXT)
        b.ret(b.op(OpKind(OpTag.OR), x, y))
        g = b.build()
        env = evaluate(g, {x: True, y: False})
        assert env == evaluate(g, {x: 1, y: 0})
        assert type(env[x]) is int and type(env[y]) is int

    def test_non_topological_order_evaluates(self):
        rng = random.Random(11)
        for _ in range(20):
            g = genutil.random_bool_graph(rng, max_ops=8, max_args=3)
            h = genutil.permute_operators(g, rng)
            assert genutil.eval_all_bool(g) == genutil.eval_all_bool(h)

    def test_self_use_raises(self):
        op = Operator(0, OpKind(OpTag.AND), (1, 0), (1,))
        g = CircuitGraph("f", ((0, ValueType.LWE_CIPHERTEXT),), (op,), (1,), {})
        with pytest.raises(EvaluationError, match="cyclic"):
            evaluate(g, {0: 1})

    def test_duplicate_operator_id_raises(self):
        # an acyclic chain of two nots whose ids collide
        op1 = Operator(0, OpKind(OpTag.NOT), (0,), (1,))
        op2 = Operator(0, OpKind(OpTag.NOT), (1,), (2,))
        g = CircuitGraph("f", ((0, ValueType.LWE_CIPHERTEXT),), (op1, op2), (2,), {})
        with pytest.raises(EvaluationError, match="^duplicate operator id 0$"):
            evaluate(g, {0: 1})


class TestEvaluateCkks:
    def _graph(self, kind, arg_types):
        b = GraphBuilder("g")
        args = [b.argument(t) for t in arg_types]
        r = b.op(kind, *args)
        b.ret(r)
        return b.build(), args, r

    def test_elementwise_binary(self):
        ct = ValueType.CKKS_CIPHERTEXT
        u = (1.0, 2.0, 3.0)
        v = (0.5, -1.0, 2.0)
        cases = {
            OpTag.ADD: (1.5, 1.0, 5.0),
            OpTag.SUB: (0.5, 3.0, 1.0),
            OpTag.MUL: (0.5, -2.0, 6.0),
        }
        for tag, want in cases.items():
            g, args, r = self._graph(OpKind(tag), (ct, ct))
            env = evaluate(g, {args[0]: u, args[1]: v})
            assert genutil.vec_close(env[r], want)

    def test_plain_variants(self):
        ct, pt = ValueType.CKKS_CIPHERTEXT, ValueType.CKKS_PLAINTEXT
        u = (1.0, 2.0)
        w = (3.0, 4.0)
        for tag, want in (
            (OpTag.ADD_PLAIN, (4.0, 6.0)),
            (OpTag.SUB_PLAIN, (-2.0, -2.0)),
            (OpTag.MUL_PLAIN, (3.0, 8.0)),
        ):
            g, args, r = self._graph(OpKind(tag), (ct, pt))
            env = evaluate(g, {args[0]: u, args[1]: w})
            assert genutil.vec_close(env[r], want)

    def test_rotate_is_cyclic_left_shift(self):
        ct = ValueType.CKKS_CIPHERTEXT
        g, args, r = self._graph(OpKind(OpTag.ROTATE, offset=1), (ct,))
        env = evaluate(g, {args[0]: (1.0, 2.0, 3.0, 4.0)})
        assert env[r] == (2.0, 3.0, 4.0, 1.0)
        g, args, r = self._graph(OpKind(OpTag.ROTATE, offset=5), (ct,))
        env = evaluate(g, {args[0]: (1.0, 2.0, 3.0, 4.0)})
        assert env[r] == (2.0, 3.0, 4.0, 1.0)  # offset mod length

    def test_extract_broadcasts_slot(self):
        ct = ValueType.CKKS_CIPHERTEXT
        g, args, r = self._graph(OpKind(OpTag.EXTRACT, index=2), (ct,))
        env = evaluate(g, {args[0]: (5.0, 6.0, 7.0, 8.0)})
        assert env[r] == (7.0, 7.0, 7.0, 7.0)

    def test_extract_index_out_of_range(self):
        ct = ValueType.CKKS_CIPHERTEXT
        g, args, r = self._graph(OpKind(OpTag.EXTRACT, index=4), (ct,))
        with pytest.raises(EvaluationError):
            evaluate(g, {args[0]: (1.0, 2.0, 3.0, 4.0)})

    def test_negate_and_identities(self):
        ct = ValueType.CKKS_CIPHERTEXT
        u = (1.0, -2.0, 3.5)
        g, args, r = self._graph(OpKind(OpTag.NEGATE), (ct,))
        assert evaluate(g, {args[0]: u})[r] == (-1.0, 2.0, -3.5)
        for tag in (OpTag.RELINEARIZE, OpTag.RESCALE):
            g, args, r = self._graph(OpKind(tag), (ct,))
            assert evaluate(g, {args[0]: u})[r] == u

    @pytest.mark.parametrize(
        "vector",
        [[], ["a"], [10**400], [object()], [10**5000]],
        ids=["empty", "text", "huge-int", "object", "unprintable-int"],
    )
    def test_bad_vector_rejected(self, vector):
        ct = ValueType.CKKS_CIPHERTEXT
        g, args, r = self._graph(OpKind(OpTag.NEGATE), (ct,))
        name = g.display_name(args[0])
        with pytest.raises(
            EvaluationError, match=f"^argument %{name} must be a non-empty number vector"
        ):
            evaluate(g, {args[0]: vector})

    def test_mismatched_vector_lengths(self):
        ct = ValueType.CKKS_CIPHERTEXT
        g, args, r = self._graph(OpKind(OpTag.ADD), (ct, ct))
        with pytest.raises(EvaluationError):
            evaluate(g, {args[0]: (1.0, 2.0), args[1]: (1.0, 2.0, 3.0)})
