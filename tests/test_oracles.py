"""Differential tests: the shared graph index, the critical-path
methods that read it, canonicalize and the lexer against the verbatim
oracles in oracles.py."""

import json
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
    print_circuit,
    topological_sort,
)
from fabric_est import cli, critical_path, syntax
from fabric_est.fixtures import fixture_names, generate_from_spec
from fabric_est.ir import BOOL_TAGS, CKKS_TAGS, TWO_INPUT_GATES
import test_cli
from test_corpus import MULTI_ERROR_TEXTS

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


def assert_same_ranking(g, bfs_runs):
    """paper_exact_cp gives the two-test search's result through the same
    BFS runs."""
    result = paper_exact_cp(g, 2.0)
    runs = list(bfs_runs)
    bfs_runs.clear()
    assert result == oracles.two_test_paper_exact_cp(g, 2.0)
    assert runs == bfs_runs
    bfs_runs.clear()


def test_keyed_search_matches_two_test_search(bfs_runs):
    rng = random.Random(28031)
    for i in range(500):
        g = genutil.random_bool_graph(rng, max_ops=60, max_args=1 + i % 16)
        assert_same_ranking(g, bfs_runs)
        assert_same_ranking(genutil.permute_operators(g, rng), bfs_runs)
        assert_same_ranking(genutil.random_ckks_graph(rng, max_ops=20), bfs_runs)
    for chain in (1, 2, 3):
        assert_same_ranking(two_source_graph(chain), bfs_runs)


@pytest.mark.parametrize("spec", ["ripple-adder:200", "array-mult:8", "ckks-box-blur:64"])
def test_keyed_search_fixtures(spec, bfs_runs):
    assert_same_ranking(generate_from_spec(spec), bfs_runs)


def assert_index_matches_oracle(g):
    """The Topology's tuples read by op id against the dict indexes they
    replaced: its order and heights, sink_op_ids, the edge index and
    each argument's BFS, parents included."""
    succs = oracles.op_succs(g)
    order = oracles._released(g)
    assert g.topology.order == (order if len(order) == len(g.operators) else None)
    heights = g.topology.heights
    assert (None if heights is None else dict(enumerate(heights))) == oracles.op_heights(g)
    assert g.sink_op_ids == frozenset(oid for oid, below in succs.items() if not below)
    assert g.consumers == oracles.consumers(g)
    assert g.op_succs == succs
    for a in g.argument_ids:
        first = g.consumers.get(a, ())
        depth, sink, parent = critical_path._bfs(first, g.topology.successors)
        want_depth, want_sink, want_parent = oracles._bfs(first, succs)
        assert (depth, sink) == (want_depth, want_sink)
        assert {oid: p for oid, p in enumerate(parent) if p is not None} == want_parent


@pytest.mark.parametrize("name", fixture_names())
def test_index_fixtures(name):
    assert_index_matches_oracle(generate_fixture(name))


def test_index_random_graphs():
    rng = random.Random(16057)
    for i in range(500):
        make = genutil.random_bool_graph if i % 2 else genutil.random_ckks_graph
        g = make(rng, max_ops=40)
        assert_index_matches_oracle(g)
        assert_index_matches_oracle(genutil.permute_operators(g, rng))


def test_index_corpus():
    for text in genutil.mutation_corpus(seed=1, count=2000):
        try:
            g = parse(text)
        except ParseError:
            continue
        assert_index_matches_oracle(g)


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


@pytest.mark.parametrize("n", [*range(1, 9), 999, 1000])
def test_canonicalize_not_chains(n):
    assert_canonicalize_matches_oracle(genutil.not_chain(n))
    for tap in (0, n // 2, n - 1):
        assert_canonicalize_matches_oracle(genutil.not_chain(n, tap))


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


def assert_lexes_like_oracle(text):
    diags, oracle_diags = syntax._Diagnostics(), syntax._Diagnostics()
    tokens = list(syntax._tokens(text, diags))
    assert tokens == list(oracles._Lexer(text).tokens(oracle_diags)), text
    assert diags == oracle_diags, text
    assert diags.lexed == oracle_diags.lexed


def test_lexer_fixture_texts():
    for name in fixture_names():
        assert_lexes_like_oracle(print_circuit(generate_fixture(name)))


def test_lexer_error_texts():
    for text in MULTI_ERROR_TEXTS:
        assert_lexes_like_oracle(text)


def test_lexer_corpus():
    for text in genutil.mutation_corpus(seed=1, count=2000):
        assert_lexes_like_oracle(text)


# Token characters, characters that start no token on their own (`% @ !
# - / > # $`), the whitespace kinds, NUL and non-ASCII letters.
_LEX_ALPHABET = "%@!-/>#$:=,(){}[]_.09aZ \r\t\n\0éßλ中"
_LEX_PIECES = ("//", "->", "%a0", "@f", "!lwe", "-12", "func", "scifr_bool.not")


def test_lexer_random_strings():
    rng = random.Random(15)
    for _ in range(3000):
        parts = rng.choices(_LEX_ALPHABET, k=rng.randrange(30))
        for _ in range(rng.randrange(3)):
            parts.insert(rng.randrange(len(parts) + 1), rng.choice(_LEX_PIECES))
        assert_lexes_like_oracle("".join(parts))


def oracle_parse(text):
    """parse() as it was: the raw records, then the two-pass builder."""
    diagnostics = syntax._Diagnostics()
    tokens = syntax._tokens(text, diagnostics)
    func = oracles._Parser(tokens, diagnostics).parse_function()
    for _ in tokens:
        pass
    if func is not None and not diagnostics:
        graph = oracles._Builder(func, diagnostics).build()
        if graph is not None:
            return graph
    raise ParseError(diagnostics)


def parse_outcome(parse_, text):
    """The graph's parts, or the diagnostics when the text fails."""
    try:
        g = parse_(text)
    except ParseError as exc:
        return exc.diagnostics
    return g.name, g.arguments, g.operators, g.returns, g.value_names


def assert_parses_like_oracle(text):
    assert parse_outcome(parse, text) == parse_outcome(oracle_parse, text), text


def shuffled_statements(text, rng):
    """A printed function with its statements in random order, so that
    some operands name values that later statements define."""
    lines = text.splitlines(keepends=True)
    body = lines[1:-2]  # between the header and the return line
    rng.shuffle(body)
    return "".join([lines[0], *body, *lines[-2:]])


@pytest.mark.parametrize("name", fixture_names())
def test_parser_fixture_texts(name):
    text = print_circuit(generate_fixture(name))
    assert_parses_like_oracle(text)
    rng = random.Random(name)
    for _ in range(3):
        assert_parses_like_oracle(shuffled_statements(text, rng))


def test_parser_corpus_and_error_texts():
    for text in genutil.mutation_corpus(seed=1, count=2000):
        assert_parses_like_oracle(text)
    for text in MULTI_ERROR_TEXTS:
        assert_parses_like_oracle(text)


def test_parser_permuted_random_graphs():
    rng = random.Random(17)
    for i in range(300):
        if i % 2:
            g = genutil.random_bool_graph(rng, max_ops=30, with_sections=i % 4 == 1)
        else:
            g = genutil.random_ckks_graph(rng, max_ops=20)
        assert_parses_like_oracle(print_circuit(genutil.permute_operators(g, rng)))


# The CLI driver against the old main in oracles.py: the same exit code,
# stdout and stderr, byte for byte, and the same -o file.

CLI_SPECS = (*fixture_names(), "ripple-adder:0", "nope", "ckks-simple-sum:3", "array-mult(3)")

USAGE_ERRORS = (
    *test_cli.TestUsageErrors.test_exit_2.pytestmark[0].args[1],
    ["--fixture", "nope", "--cggi-estimate"],
    ["--fixture", "ripple-adder:x"],
    ["--fixture", "ripple-adder:" + "9" * 5000, "--cggi-estimate"],
)

PASSES = ["--lower-gates", "--canonicalize", "--sectionize"]
REPORT = ["--cggi-estimate", "--critical-path", "--throughput", "--batch", "5", "--print-ir"]


def cli_flag_sets(tmp_path):
    """Every flag set the fixtures run under; writes the configs it names."""
    configs = {
        "good.json": json.dumps(test_cli.make_config_doc(fcs_per_chip=1000, occupancy=1)),
        "malformed.json": "{not json",
        "overflow.json": json.dumps(test_cli.make_config_doc(unit_time_per_gate=1e308)),
        "float.json": json.dumps(test_cli.make_config_doc(fcs_per_chip=10**400)),
    }
    for name, text in configs.items():
        (tmp_path / name).write_text(text)
    yield ["--cggi-estimate"]
    yield ["--ckks-estimate", "--emit", "json"]
    yield ["--critical-path"]
    for method in ("approx", "paper-exact", "longest", "all"):
        yield ["--critical-path", "--method", method, "--emit", "json"]
    for batch in ("0", "5"):
        yield ["--throughput", "--batch", batch]
        yield ["--critical-path", "--method", "approx", "--throughput", "--batch", batch]
    yield [*PASSES, "--print-ir"]
    yield [*reversed(PASSES), "--print-ir", "--emit", "json"]
    for capacity in (["--capacity", "0"], ["--capacity", "1"], []):
        yield ["--sectionize", *capacity, "--print-ir"]
    for name in (*configs, "missing.json"):
        yield [*REPORT, "--config", str(tmp_path / name)]
    yield [*REPORT, "--profile", "paper-default", "--emit", "json"]
    yield ["-o", str(tmp_path / "out.scifr")]
    yield ["-o", str(tmp_path / "no-dir" / "out.scifr")]


def assert_cli_matches_oracle(argv, capsys, written=None):
    runs = []
    for main in (oracles.main, cli.main):
        if written is not None:
            written.unlink(missing_ok=True)
        code = main(list(argv))
        out = capsys.readouterr()
        wrote = written.read_bytes() if written is not None and written.exists() else None
        runs.append((code, out.out, out.err, wrote))
    assert runs[0] == runs[1], argv


@pytest.fixture
def library_canonicalize(monkeypatch):
    """Point the old main at the library's canonicalize, not the oracle's."""
    monkeypatch.setattr(oracles, "canonicalize", canonicalize)


@pytest.mark.usefixtures("library_canonicalize")
def test_cli_usage_errors(capsys):
    for argv in USAGE_ERRORS:
        assert_cli_matches_oracle(argv, capsys)


@pytest.mark.usefixtures("library_canonicalize")
@pytest.mark.parametrize("spec", CLI_SPECS)
def test_cli_fixtures(spec, tmp_path, capsys):
    for flags in cli_flag_sets(tmp_path):
        assert_cli_matches_oracle(["--fixture", spec, *flags], capsys, tmp_path / "out.scifr")


FILE_FLAG_SETS = (
    [],
    ["--cggi-estimate", "--critical-path"],
    ["--ckks-estimate", "--throughput", "--batch", "5"],
    [*PASSES, "--print-ir", "--emit", "json"],
)

CYCLIC_TEXT = (
    "func @f(%a: !lwe) -> !lwe {\n"
    "  %b = scifr_bool.and %c, %a : !lwe\n"
    "  %c = scifr_bool.not %b : !lwe\n"
    "  return %c : !lwe\n"
    "}\n"
)


def cli_input_files(tmp_path):
    """Each fixture's printed text, a cyclic text, a missing file, a file
    that is not UTF-8, the multi-error texts and 60 mutated texts."""
    texts = [print_circuit(generate_fixture(name)).encode() for name in fixture_names()]
    texts.append(CYCLIC_TEXT.encode())
    texts.append(texts[0] + b"\xff")
    texts.extend(text.encode() for text in MULTI_ERROR_TEXTS)
    texts.extend(text.encode() for text in genutil.mutation_corpus(seed=7, count=60))
    for i, data in enumerate(texts):
        path = tmp_path / f"c{i}.scifr"
        path.write_bytes(data)
        yield path
    yield tmp_path / "missing.scifr"


@pytest.mark.usefixtures("library_canonicalize")
def test_cli_files(tmp_path, capsys):
    for path in cli_input_files(tmp_path):
        for flags in FILE_FLAG_SETS:
            assert_cli_matches_oracle([str(path), *flags], capsys)
