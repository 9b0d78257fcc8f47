"""The names the traced benchmark run reads from fabric_est.

perfbench/tracing.py swaps each layer function, by module and attribute
name, for a timing shim, and reads the section count off sectionize's
result.  A rename in the library would break `run.py --trace 1` without
failing any other test.  LAYERS is read with `ast`, so tracing.py (which
imports the benchmark's own modules) is never imported here."""

import ast
import importlib
import inspect
from pathlib import Path

from fabric_est import PAPER_DEFAULT_PROFILE, generate_fixture, load_profile, sectionize
from fabric_est.ir import CircuitGraph

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def layers() -> tuple[tuple[str, str, str], ...]:
    """The LAYERS tuple of tracing.py: (module, attribute, span name)."""
    for node in ast.parse(_TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError("tracing.py assigns no LAYERS")


def test_each_layer_names_a_function():
    found = layers()
    assert len(found) == 13
    for module, attr, span in found:
        fn = getattr(importlib.import_module(f"fabric_est.{module}"), attr, None)
        assert inspect.isfunction(fn), (module, attr)
        # the span is named after the function's home module and name
        assert f"{fn.__module__}.{fn.__name__}" == f"fabric_est.{span}", (module, attr)


def test_sectionize_returns_graph_and_plan():
    _, costs = load_profile(PAPER_DEFAULT_PROFILE)
    graph, plan = sectionize(generate_fixture("full-adder"), 2048, costs)
    assert isinstance(graph, CircuitGraph)
    assert type(plan.section_count) is int
