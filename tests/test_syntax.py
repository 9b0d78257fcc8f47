"""Text format: lexer, parser, diagnostics, canonical printer."""

import random
import tracemalloc
from dataclasses import replace

import pytest

import genutil
from fabric_est import (
    GraphBuilder,
    OpKind,
    OpTag,
    ParseError,
    ValueType,
    generate_fixture,
    parse,
    print_circuit,
    validate,
)
from fabric_est.syntax import MAX_DIAGNOSTICS, SourceSpan


def diags_of(text):
    with pytest.raises(ParseError) as info:
        parse(text)
    return info.value.diagnostics


HALF_ADDER = """\
func @half_adder(%a: !lwe, %b: !lwe) -> !lwe, !lwe {
  %0 = scifr_bool.xor %a, %b : !lwe
  %1 = scifr_bool.and %a, %b : !lwe
  return %0, %1 : !lwe, !lwe
}
"""


class TestPrinter:
    def test_half_adder_canonical_form(self):
        assert print_circuit(generate_fixture("half-adder")) == HALF_ADDER

    def test_attrs_sorted_and_lists(self):
        b = GraphBuilder("f")
        x = b.argument(ValueType.LWE_CIPHERTEXT, name="x")
        r = b.op(OpKind(OpTag.LUT_LINCOMB, coeffs=(2, 1), lut=9), x, x)
        b.ret(r)
        text = print_circuit(b.build())
        assert (
            "  %0 = scifr_bool.lut_lincomb %x, %x"
            " {coeffs = [2, 1], lut = 9} : !lwe\n" in text
        )

    def test_section_attr_printed(self):
        g = generate_fixture("half-adder")
        ops = tuple(replace(op, section=i) for i, op in enumerate(g.operators))
        text = print_circuit(replace(g, operators=ops))
        assert "{section = 0}" in text and "{section = 1}" in text

    def test_zero_return_form(self):
        b = GraphBuilder("f")
        b.argument(ValueType.LWE_CIPHERTEXT, name="a")
        b.ret()
        text = print_circuit(b.build())
        assert text == "func @f(%a: !lwe) -> {\n  return :\n}\n"

    def test_multi_result_statement(self):
        b = GraphBuilder("f")
        x = b.argument(ValueType.LWE_CIPHERTEXT, name="x")
        kind = OpKind(OpTag.MULTI_LUT_LINCOMB, coeffs=(1,), luts=(1, 2))
        r0, r1 = b.multi_op(kind, x)
        b.ret(r0, r1)
        text = print_circuit(b.build())
        # a statement carries a single result type, even multi-result ones
        assert (
            "  %0, %1 = scifr_bool.multi_lut_lincomb %x"
            " {coeffs = [1], luts = [1, 2]} : !lwe\n" in text
        )

    def test_trailing_newline(self):
        text = print_circuit(generate_fixture("and-gate"))
        assert text.endswith("}\n") and not text.endswith("\n\n")


class TestParser:
    def test_half_adder_text(self):
        g = parse(HALF_ADDER)
        assert g.name == "half_adder"
        assert genutil.isomorphic(g, generate_fixture("half-adder"))
        assert print_circuit(g) == HALF_ADDER

    def test_comments_and_whitespace(self):
        text = (
            "// leading comment\n"
            "func   @f(%a: !lwe) -> !lwe {  // trailing\n"
            "  %0 = scifr_bool.not %a : !lwe\n\n"
            "  return %0 : !lwe }  // end\n"
        )
        g = parse(text)
        assert g.operators[0].kind.tag is OpTag.NOT

    def test_forward_reference(self):
        text = (
            "func @f(%a: !lwe) -> !lwe {\n"
            "  %1 = scifr_bool.not %0 : !lwe\n"
            "  %0 = scifr_bool.not %a : !lwe\n"
            "  return %1 : !lwe\n"
            "}\n"
        )
        g = parse(text)
        assert validate(g) == []
        # stored order mirrors the text; dependencies still resolve
        assert g.operators[0].operands == (g.operators[1].results[0],)

    def test_ckks_function(self):
        text = (
            "func @f(%x: !ct, %w: !pt) -> !ct {\n"
            "  %0 = scifr_ckks.mul_plain %x, %w : !ct\n"
            "  %1 = scifr_ckks.rotate %0 {offset = 3} : !ct\n"
            "  return %1 : !ct\n"
            "}\n"
        )
        g = parse(text)
        assert g.operators[1].kind.offset == 3
        assert print_circuit(g) == text

    def test_negative_int_attr(self):
        text = (
            "func @f(%x: !ct) -> !ct {\n"
            "  %0 = scifr_ckks.rotate %x {offset = -2} : !ct\n"
            "  return %0 : !ct\n"
            "}\n"
        )
        assert parse(text).operators[0].kind.offset == -2

    def test_numeric_value_names(self):
        text = (
            "func @f(%0: !lwe) -> !lwe {\n"
            "  %1 = scifr_bool.not %0 : !lwe\n"
            "  return %1 : !lwe\n"
            "}\n"
        )
        assert print_circuit(parse(text)) == text

    def test_roundtrip_fixtures(self):
        from fabric_est import fixture_names

        for name in fixture_names():
            g = generate_fixture(name)
            h = parse(print_circuit(g))
            assert genutil.isomorphic(g, h), name
            assert print_circuit(h) == print_circuit(g)

    @pytest.mark.parametrize("section", [-1, 0, 7])
    def test_printed_text_parses_iff_graph_validates(self, section):
        g = generate_fixture("full-adder")
        g = replace(g, operators=tuple(replace(op, section=section) for op in g.operators))
        text = print_circuit(g)
        if validate(g):
            with pytest.raises(ParseError):
                parse(text)
        else:
            assert genutil.isomorphic(parse(text), g)

    def test_roundtrip_random(self):
        rng = random.Random(23)
        for i in range(60):
            g = genutil.random_bool_graph(rng, with_sections=(i % 3 == 0))
            if i % 2:
                g = genutil.permute_operators(g, rng)
            h = parse(print_circuit(g))
            assert genutil.isomorphic(g, h)
        for _ in range(40):
            g = genutil.random_ckks_graph(rng)
            h = parse(print_circuit(g))
            assert genutil.isomorphic(g, h)


class TestDiagnostics:
    def check(self, text, *needles):
        ds = diags_of(text)
        for needle in needles:
            assert any(needle in d.message for d in ds), (needle, [str(d) for d in ds])
        return ds

    def test_unknown_operation(self):
        self.check(
            "func @f(%a: !lwe) -> !lwe {\n"
            "  %0 = scifr_bool.frob %a : !lwe\n"
            "  return %0 : !lwe\n}\n",
            "unknown operation 'scifr_bool.frob'",
        )

    def test_unknown_type(self):
        self.check(
            "func @f(%a: !weird) -> !lwe {\n  return %a : !lwe\n}\n",
            "unknown type !weird",
        )

    def test_duplicate_attribute(self):
        self.check(
            "func @f(%a: !lwe) -> !lwe {\n"
            "  %0 = scifr_bool.lut2 %a, %a {lut = 1, lut = 2} : !lwe\n"
            "  return %0 : !lwe\n}\n",
            "duplicate attribute 'lut'",
        )

    def test_missing_required_attribute(self):
        self.check(
            "func @f(%a: !lwe) -> !lwe {\n"
            "  %0 = scifr_bool.lut2 %a, %a : !lwe\n"
            "  return %0 : !lwe\n}\n",
            "requires attribute 'lut'",
        )

    def test_unexpected_attribute(self):
        self.check(
            "func @f(%a: !lwe) -> !lwe {\n"
            "  %0 = scifr_bool.and %a, %a {lut = 1} : !lwe\n"
            "  return %0 : !lwe\n}\n",
            "does not take attribute 'lut'",
        )

    def test_lut_out_of_range_span(self):
        ds = self.check(
            "func @f(%a: !lwe) -> !lwe {\n"
            "  %0 = scifr_bool.lut2 %a, %a {lut = 99} : !lwe\n"
            "  return %0 : !lwe\n}\n",
            "LUT mask out of range: 99 not in [0, 16)",
        )
        d = next(d for d in ds if "out of range" in d.message)
        assert d.span.line == 2
        assert d.span.column == 38  # points at the 99, not the op
        assert d.span.length == 2

    def test_operand_count(self):
        self.check(
            "func @f(%a: !lwe) -> !lwe {\n"
            "  %0 = scifr_bool.and %a : !lwe\n"
            "  return %0 : !lwe\n}\n",
            "expects 2 operands, got 1",
        )

    def test_result_count(self):
        self.check(
            "func @f(%a: !lwe) -> !lwe {\n"
            "  %0, %1 = scifr_bool.and %a, %a : !lwe\n"
            "  return %0 : !lwe\n}\n",
            "produces 1 results, got 2",
        )

    def test_declared_type_mismatch(self):
        self.check(
            "func @f(%a: !lwe) -> !lwe {\n"
            "  %0 = scifr_bool.and %a, %a : !ct\n"
            "  return %0 : !lwe\n}\n",
            "type mismatch: scifr_bool.and produces !lwe, not !ct",
        )

    def test_use_before_def(self):
        self.check(
            "func @f(%a: !lwe) -> !lwe {\n"
            "  %0 = scifr_bool.not %ghost : !lwe\n"
            "  return %0 : !lwe\n}\n",
            "use-before-def %ghost",
        )

    def test_double_definition(self):
        self.check(
            "func @f(%a: !lwe) -> !lwe {\n"
            "  %0 = scifr_bool.not %a : !lwe\n"
            "  %0 = scifr_bool.not %a : !lwe\n"
            "  return %0 : !lwe\n}\n",
            "value %0 defined more than once",
        )

    def test_return_type_mismatch(self):
        self.check(
            "func @f(%x: !ct) -> !ct {\n"
            "  %0 = scifr_ckks.negate %x : !ct\n"
            "  return %0 : !pt\n}\n",
            "return type mismatch",
        )

    def test_signature_result_count_mismatch(self):
        self.check(
            "func @f(%a: !lwe) -> !lwe, !lwe {\n"
            "  %0 = scifr_bool.not %a : !lwe\n"
            "  return %0 : !lwe\n}\n",
            "declares 2 results, returns 1",
        )

    def test_operand_type_mismatch(self):
        self.check(
            "func @f(%a: !lwe, %x: !ct) -> !ct {\n"
            "  %0 = scifr_ckks.add %x, %a : !ct\n"
            "  return %0 : !ct\n}\n",
            "operand 1 of scifr_ckks.add has type !lwe",
        )

    def test_textual_cycle(self):
        self.check(
            "func @f(%a: !lwe) -> !lwe {\n"
            "  %0 = scifr_bool.and %a, %1 : !lwe\n"
            "  %1 = scifr_bool.and %a, %0 : !lwe\n"
            "  return %1 : !lwe\n}\n",
            "dependency cycle",
        )

    def test_self_use_is_a_cycle(self):
        ds = self.check(
            "func @f(%a: !lwe) -> !lwe {\n"
            "  %0 = scifr_bool.and %0, %a : !lwe\n"
            "  return %0 : !lwe\n}\n",
            "dependency cycle among operators",
        )
        assert [(d.span.line, d.span.column) for d in ds] == [(2, 8)]

    @pytest.mark.parametrize("operand", ["xb", "@b", "!b"])
    def test_non_value_operand_after_comma(self, operand):
        ds = self.check(
            "func @f(%a: !lwe, %b: !lwe) -> !lwe {\n"
            f"  %0 = scifr_bool.and %a, {operand} : !lwe\n"
            "  return %0 : !lwe\n}\n",
            f"expected a value after ',', found {operand!r}",
        )
        assert (ds[0].span.line, ds[0].span.column) == (2, 27)

    def test_non_value_argument_after_comma(self):
        ds = self.check(
            "func @f(%a: !lwe, b: !lwe) -> !lwe {\n"
            "  %0 = scifr_bool.not %a : !lwe\n"
            "  return %0 : !lwe\n}\n",
            "expected a value after ',', found 'b'",
        )
        assert [(d.span.line, d.span.column) for d in ds] == [(1, 19)]

    def check_span(self, line, needle, anchor):
        """The diagnostic containing `needle` points at `anchor` in `line`,
        the function's only statement."""
        text = (
            "func @f(%a: !lwe, %x: !ct) -> !lwe {\n"
            f"{line}\n"
            "  return %a : !lwe\n}\n"
        )
        d = next(d for d in self.check(text, needle) if needle in d.message)
        assert (d.span.line, d.span.column, d.span.length) == (
            2,
            line.index(anchor) + 1,
            len(anchor),
        )

    def test_negative_extract_index_span(self):
        self.check_span(
            "  %0 = scifr_ckks.extract %x {index = -1} : !ct",
            "scifr_ckks.extract index must be non-negative",
            "-1",
        )

    def test_luts_out_of_range_span(self):
        self.check_span(
            "  %0, %1 = scifr_bool.multi_lut_lincomb %a {coeffs = [1], luts = [3, 99]} : !lwe",
            "LUT mask out of range: luts[1] = 99 not in [0, 4)",
            "[3, 99]",
        )

    @pytest.mark.parametrize(
        "line, anchor, limit",
        [
            ("  %0 = scifr_bool.lut_lincomb %a, %a, %a {coeffs = [243, 2, 4], lut = 1} : !lwe",
             "[243, 2, 4]", 8),
            ("  %0, %1 = scifr_bool.multi_lut_lincomb %a, %a {coeffs = [1, -2], luts = [1, 2]}"
             " : !lwe", "[1, -2]", 4),
        ],
        ids=["past-the-table", "negative"],
    )
    def test_lincomb_index_out_of_range_span(self, line, anchor, limit):
        # evaluate() would reject these on some inputs only.
        self.check_span(
            line, f"lincomb index out of range: coeffs give indices outside [0, {limit})", anchor
        )

    def test_unexpected_attribute_span(self):
        self.check_span(
            "  %0 = scifr_bool.and %a, %a {lut = 7} : !lwe",
            "scifr_bool.and does not take attribute 'lut'",
            "7",
        )

    def test_missing_attribute_span(self):
        self.check_span(
            "  %0 = scifr_bool.lut2 %a, %a : !lwe",
            "scifr_bool.lut2 requires attribute 'lut'",
            "scifr_bool.lut2",
        )

    def test_integer_past_the_digit_limit_span(self):
        # int() refuses a literal this long; the parser reports it.
        nines = "9" * 5000
        self.check_span(
            f"  %0 = scifr_ckks.rotate %x {{offset = {nines}}} : !ct",
            "integer literal has more than 4300 digits",
            nines,
        )

    @staticmethod
    def wide_lincomb(n, lut, coeff=0):
        """A lut_lincomb over n copies of %a, every coeff `coeff`."""
        return (
            f"  %0 = scifr_bool.lut_lincomb {', '.join(['%a'] * n)} "
            f"{{coeffs = [{', '.join([str(coeff)] * n)}], lut = {lut}}} : !lwe"
        )

    def test_wide_lincomb_parses_in_little_memory(self):
        # The mask bound of 24 coeffs, 2**(2**24), takes 2 MiB as an int.
        text = f"func @f(%a: !lwe) -> !lwe {{\n{self.wide_lincomb(24, 1)}\n  return %0 : !lwe\n}}\n"
        tracemalloc.start()
        try:
            g = parse(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.operators[0].kind.coeffs == (0,) * 24
        assert peak < 256 * 1024

    @pytest.mark.parametrize(
        "n, bound", [(6, "18446744073709551616"), (7, "2**128"), (14, "2**16384")]
    )
    def test_wide_lincomb_mask_out_of_range_span(self, n, bound):
        # From 14 coeffs the bound has more than 4300 decimal digits.
        line = self.wide_lincomb(n, -1)
        ds = diags_of(f"func @f(%a: !lwe) -> !lwe {{\n{line}\n  return %0 : !lwe\n}}\n")
        assert [(d.message, d.span.line, d.span.column, d.span.length) for d in ds] == [
            (f"LUT mask out of range: -1 not in [0, {bound})", 2, line.index("-1") + 1, 2)
        ]

    def test_very_wide_lincomb_index_out_of_range_span(self):
        # 2**14300 has more than 4300 decimal digits.
        line = self.wide_lincomb(14300, 0, coeff=-1)
        self.check_span(
            line,
            "lincomb index out of range: coeffs give indices outside [0, 2**14300)",
            "[" + ", ".join(["-1"] * 14300) + "]",
        )

    def test_unknown_character(self):
        self.check(
            "func @f(%a: !lwe) -> !lwe {\n"
            "  %0 = scifr_bool.not %a : !lwe ;\n"
            "  return %0 : !lwe\n}\n",
            "unexpected character",
        )

    def test_malformed_statement_recovers(self):
        # two broken statements -> at least two diagnostics, no crash
        ds = diags_of(
            "func @f(%a: !lwe) -> !lwe {\n"
            "  %0 = 5 : !lwe\n"
            "  %1 = 17\n"
            "  return %a : !lwe\n}\n"
        )
        assert len(ds) >= 2

    def test_diagnostic_cap(self):
        lines = [f"  %v{i} = scifr_bool.frob %a : !lwe" for i in range(30)]
        text = (
            "func @f(%a: !lwe) -> !lwe {\n"
            + "\n".join(lines)
            + "\n  return %a : !lwe\n}\n"
        )
        ds = diags_of(text)
        assert len(ds) == MAX_DIAGNOSTICS == 20

    def test_positions_are_one_based(self):
        ds = diags_of("zzz")
        assert ds[0].span.line == 1
        assert ds[0].span.column == 1

    def test_diagnostic_str(self):
        ds = diags_of("func @f() -> {\n  return %q :\n}\n")
        rendered = str(ds[0])
        assert rendered.startswith("2:")
        assert "use-before-def %q" in rendered

    def test_span_fields(self):
        span = SourceSpan(3, 7, 4)
        assert (span.line, span.column, span.length) == (3, 7, 4)

    def test_empty_input(self):
        assert len(diags_of("")) >= 1

    def test_trailing_garbage(self):
        self.check(
            "func @f(%a: !lwe) -> !lwe {\n  return %a : !lwe\n}\nfunc",
            "trailing input",
        )
