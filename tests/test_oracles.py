"""Differential tests: the shared graph index and the critical-path
methods that read it against the verbatim oracles in oracles.py."""

import random
import tracemalloc

import pytest

import genutil
import oracles
from fabric_est import (
    approximate_cp,
    generate_fixture,
    longest_path_cp,
    paper_exact_cp,
    topological_sort,
)
from fabric_est.fixtures import fixture_names, generate_from_spec

METHODS = (
    (approximate_cp, oracles.approximate_cp),
    (paper_exact_cp, oracles.paper_exact_cp),
    (longest_path_cp, oracles.longest_path_cp),
)


def assert_matches_oracle(g):
    assert topological_sort(g) == oracles.operator_topo_order(g)
    arg_succs, op_succs = oracles._dependency_succs(g)
    assert {v: list(g.consumers.get(v, ())) for v in g.argument_ids} == arg_succs
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
