"""Built-in example circuits: shapes, semantics, and the name registry."""

import random

import pytest

import genutil
from fabric_est import OpTag, evaluate, validate
from fabric_est.fixtures import (
    FixtureError,
    build_and_gate,
    build_array_mult,
    build_ckks_box_blur,
    build_ckks_dot_product,
    build_ckks_simple_sum,
    build_full_adder,
    build_half_adder,
    build_lut_canonicalize,
    build_ripple_adder,
    build_table3_mult8,
    fixture_names,
    generate_fixture,
    generate_from_spec,
    parse_fixture_spec,
)

ALL_NAMES = [
    "and-gate",
    "array-mult",
    "ckks-box-blur",
    "ckks-dot-product",
    "ckks-simple-sum",
    "full-adder",
    "half-adder",
    "lut-canonicalize",
    "ripple-adder",
    "table3-mult8",
]


def run_bool(g, assignment):
    env = evaluate(g, assignment)
    return [env[r] for r in g.returns]


class TestRegistry:
    def test_names(self):
        assert fixture_names() == ALL_NAMES

    def test_all_fixtures_validate(self):
        for name in fixture_names():
            assert not validate(generate_fixture(name))

    @pytest.mark.parametrize(
        "spec,want",
        [
            ("half-adder", ("half-adder", None)),
            ("ripple-adder:8", ("ripple-adder", 8)),
            ("array-mult(3)", ("array-mult", 3)),
            ("a-b:12", ("a-b", 12)),
        ],
    )
    def test_parse_spec(self, spec, want):
        assert parse_fixture_spec(spec) == want

    @pytest.mark.parametrize(
        "spec",
        ["", ":4", "name:", "name(", "name(3", "name)4(", "3abc", "n:x", "a:1:2",
         "ripple-adder:\u0661\u0662", "name(\u0663)"],
    )
    def test_malformed_spec(self, spec):
        with pytest.raises(FixtureError, match="malformed fixture spec"):
            parse_fixture_spec(spec)

    def test_unknown_name(self):
        with pytest.raises(FixtureError, match="unknown fixture 'nope'"):
            generate_fixture("nope")

    def test_parameter_on_fixed_fixture(self):
        with pytest.raises(FixtureError, match="takes no parameter"):
            generate_fixture("half-adder", 3)

    def test_parameter_defaults(self):
        assert genutil.isomorphic(
            generate_fixture("ripple-adder"), build_ripple_adder(4)
        )
        assert genutil.isomorphic(generate_fixture("array-mult"), build_array_mult(4))
        assert genutil.isomorphic(
            generate_fixture("ckks-dot-product"), build_ckks_dot_product(8)
        )
        assert genutil.isomorphic(
            generate_fixture("ckks-box-blur"), build_ckks_box_blur(3)
        )
        assert genutil.isomorphic(
            generate_fixture("ckks-simple-sum"), build_ckks_simple_sum(8)
        )

    def test_generate_from_spec(self):
        g = generate_from_spec("ripple-adder:2")
        assert len(g.arguments) == 4
        assert len(g.returns) == 3

    @pytest.mark.parametrize(
        "name,msg",
        [
            ("ripple-adder", "width must be at least 1"),
            ("array-mult", "width must be at least 1"),
            ("ckks-dot-product", "length must be at least 1"),
            ("ckks-box-blur", "window must be at least 1"),
            ("ckks-simple-sum", "length must be at least 1"),
        ],
    )
    def test_zero_parameter_rejected(self, name, msg):
        with pytest.raises(FixtureError, match=msg):
            generate_fixture(name, 0)

    def test_simple_sum_needs_power_of_two(self):
        with pytest.raises(FixtureError, match="power of two"):
            build_ckks_simple_sum(6)


class TestBoolFixtures:
    def test_and_gate_shape(self):
        g = build_and_gate()
        assert len(g.arguments) == 8
        assert all(op.kind.tag is OpTag.AND for op in g.operators)
        assert len(g.operators) == 4
        assert len(g.returns) == 4

    def test_and_gate_semantics(self):
        g = build_and_gate()
        args = [vid for vid, _ in g.arguments]
        for x in range(256):
            bits = [(x >> i) & 1 for i in range(8)]
            outs = run_bool(g, dict(zip(args, bits)))
            assert outs == [bits[2 * i] & bits[2 * i + 1] for i in range(4)]

    def test_half_adder(self):
        g = build_half_adder()
        args = [vid for vid, _ in g.arguments]
        for a in (0, 1):
            for b in (0, 1):
                s, c = run_bool(g, {args[0]: a, args[1]: b})
                assert s + 2 * c == a + b
        assert run_bool(g, {args[0]: 1, args[1]: 1}) == [0, 1]

    def test_full_adder(self):
        g = build_full_adder()
        args = [vid for vid, _ in g.arguments]
        for x in range(8):
            a, b, cin = x & 1, (x >> 1) & 1, (x >> 2) & 1
            s, cout = run_bool(g, {args[0]: a, args[1]: b, args[2]: cin})
            assert s + 2 * cout == a + b + cin

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ripple_adder_exhaustive(self, n):
        g = build_ripple_adder(n)
        args = [vid for vid, _ in g.arguments]
        assert len(args) == 2 * n
        for a in range(1 << n):
            for b in range(1 << n):
                assignment = {}
                for i in range(n):
                    assignment[args[i]] = (a >> i) & 1
                    assignment[args[n + i]] = (b >> i) & 1
                outs = run_bool(g, assignment)
                assert genutil.bits_to_int(outs) == a + b

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_array_mult_exhaustive(self, n):
        g = build_array_mult(n)
        args = [vid for vid, _ in g.arguments]
        assert len(g.returns) == 2 * n
        for a in range(1 << n):
            for b in range(1 << n):
                assignment = {}
                for i in range(n):
                    assignment[args[i]] = (a >> i) & 1
                    assignment[args[n + i]] = (b >> i) & 1
                outs = run_bool(g, assignment)
                assert genutil.bits_to_int(outs) == (a * b) % (1 << (2 * n))

    def test_lut_canonicalize_shape(self):
        g = build_lut_canonicalize()
        tags = [op.kind.tag for op in g.operators]
        assert tags == [OpTag.LUT2, OpTag.LUT3]
        assert g.operators[0].kind.lut == 0b0110
        assert g.operators[1].kind.lut == 0b10010110

    def test_lut_canonicalize_semantics(self):
        # Parity of the three inputs: Lut2 is xor, Lut3 is 3-way xor of
        # (xor(a, b), b, c), which reduces to a ^ c ... xor'ed with b
        # twice, i.e. a ^ b ^ c with b folded back in.
        g = build_lut_canonicalize()
        args = [vid for vid, _ in g.arguments]
        for x in range(8):
            a, b, c = x & 1, (x >> 1) & 1, (x >> 2) & 1
            (out,) = run_bool(g, {args[0]: a, args[1]: b, args[2]: c})
            assert out == (a ^ b) ^ b ^ c


class TestTable3Mult8:
    def test_op_census(self):
        g = build_table3_mult8()
        assert g.name == "table3_mult8"
        assert len(g.operators) == 141
        counts = {}
        for op in g.operators:
            counts[op.kind.tag] = counts.get(op.kind.tag, 0) + 1
        assert counts == {
            OpTag.AND: 44,
            OpTag.NAND: 44,
            OpTag.XNOR: 18,
            OpTag.XOR: 35,
        }

    def test_single_dependency_chain(self):
        g = build_table3_mult8()
        order = [op.id for op in g.operators]
        for prev, nxt in zip(order, order[1:]):
            results = set(g.operator(prev).results)
            assert results & set(g.operator(nxt).operands)
        assert not validate(g)


class TestCkksFixtures:
    def test_dot_product(self):
        rng = random.Random(31)
        g = build_ckks_dot_product(8)
        xs = genutil.rand_vec(rng)
        ws = genutil.rand_vec(rng)
        args = [vid for vid, _ in g.arguments]
        env = evaluate(g, {args[0]: xs, args[1]: ws})
        out = env[g.returns[0]]
        want = sum(x * w for x, w in zip(xs, ws))
        assert all(abs(slot - want) <= 1e-9 for slot in out)

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 12])
    def test_dot_product_odd_tree_levels(self, n):
        # a length that is not a power of two leaves one term over at a level
        rng = random.Random(n)
        g = build_ckks_dot_product(n)
        xs = genutil.rand_vec(rng, 16)
        ws = genutil.rand_vec(rng, 16)
        args = [vid for vid, _ in g.arguments]
        out = evaluate(g, {args[0]: xs, args[1]: ws})[g.returns[0]]
        assert abs(out[0] - sum(x * w for x, w in zip(xs[:n], ws[:n]))) <= 1e-9

    def test_dot_product_width_one(self):
        g = build_ckks_dot_product(1)
        args = [vid for vid, _ in g.arguments]
        env = evaluate(g, {args[0]: (3.0,), args[1]: (0.5,)})
        assert genutil.vec_close(env[g.returns[0]], (1.5,))

    def test_box_blur(self):
        rng = random.Random(32)
        k = 3
        g = build_ckks_box_blur(k)
        xs = genutil.rand_vec(rng)
        scale = genutil.rand_vec(rng)
        args = [vid for vid, _ in g.arguments]
        env = evaluate(g, {args[0]: xs, args[1]: scale})
        out = env[g.returns[0]]
        n = len(xs)
        want = [
            scale[i] * sum(xs[(i + j) % n] for j in range(k)) for i in range(n)
        ]
        assert genutil.vec_close(out, want)

    def test_simple_sum(self):
        rng = random.Random(33)
        g = build_ckks_simple_sum(8)
        xs = genutil.rand_vec(rng)
        args = [vid for vid, _ in g.arguments]
        env = evaluate(g, {args[0]: xs})
        out = env[g.returns[0]]
        assert all(abs(slot - sum(xs)) <= 1e-9 for slot in out)

    def test_ckks_fixture_tags(self):
        g = build_ckks_dot_product(4)
        tags = {op.kind.tag for op in g.operators}
        assert tags == {
            OpTag.MUL_PLAIN,
            OpTag.ROTATE,
            OpTag.ADD,
            OpTag.RESCALE,
            OpTag.EXTRACT,
        }
