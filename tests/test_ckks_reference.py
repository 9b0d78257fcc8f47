"""CKKS values of `evaluate` against ckks_reference, which shares no code
with fabric_est and reads printed IR: on the four CKKS specs of
test_golden and on 200 seeded random CKKS graphs, each also with its
operators shuffled.  Slot vectors hold small integers, so every sum and
product is exact and the two must agree exactly."""

import ast
import random
from pathlib import Path

import pytest

import ckks_reference as ref
import genutil
from fabric_est import EvaluationError, evaluate, parse, print_circuit
from fabric_est.fixtures import generate_from_spec
from test_golden import SPECS

CKKS_SPECS = [spec for spec in SPECS if spec.startswith("ckks-")]
# random_ckks_graph's extract indices reach 7, so 8 slots hold them all.
SLOTS = 8


def assert_agree(graph, rng, slots=SLOTS):
    inputs = {vid: [rng.randint(-3, 3) for _ in range(slots)] for vid in graph.argument_ids}
    got = evaluate(graph, inputs)
    named = {graph.display_name(vid): vec for vid, vec in inputs.items()}
    want = ref.evaluate(ref.read_circuit(print_circuit(graph)), named)
    assert {graph.display_name(vid): vec for vid, vec in got.items()} == want
    # beyond 2**53 a float product would round where the integer one does not
    assert all(abs(s) < 2**53 for vec in want.values() for s in vec)


@pytest.mark.parametrize("slots", [SLOTS, 13])
@pytest.mark.parametrize("spec", CKKS_SPECS)
def test_golden_specs(spec, slots):
    rng = random.Random(spec)
    graph = generate_from_spec(spec)
    assert_agree(graph, rng, slots)
    assert_agree(genutil.permute_operators(graph, rng), rng, slots)


def test_random_graphs():
    rng = random.Random(7001)
    for _ in range(200):
        graph = genutil.random_ckks_graph(rng)
        assert_agree(graph, rng)
        assert_agree(genutil.permute_operators(graph, rng), rng)


def test_extract_past_the_slots_is_refused():
    text = (
        "func @f(%x: !ct) -> !ct {\n"
        "  %0 = scifr_ckks.extract %x {index = 8} : !ct\n"
        "  return %0 : !ct\n"
        "}\n"
    )
    graph = parse(text)
    with pytest.raises(EvaluationError, match="^extract index 8 out of range for 8 slots$"):
        evaluate(graph, {graph.argument_ids[0]: [1] * SLOTS})
    with pytest.raises(ref.Refused, match="^extract %0 reads slot 8 of 8$"):
        ref.evaluate(ref.read_circuit(text), {"x": [1] * SLOTS})
    # with one slot more, both read slot 8
    values = evaluate(graph, {graph.argument_ids[0]: list(range(SLOTS + 1))})
    assert values[graph.returns[0]] == (8,) * (SLOTS + 1)
    assert ref.evaluate(ref.read_circuit(text), {"x": range(SLOTS + 1)})["0"] == (8,) * (SLOTS + 1)


def test_the_reference_imports_no_program():
    """ckks_reference imports nothing from fabric_est, so it cannot share
    a bug with the evaluator it checks."""
    tree = ast.parse((Path(__file__).parent / "ckks_reference.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported and "fabric_est" not in imported, imported
