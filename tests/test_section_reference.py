"""`--sectionize` on every golden fixture at three capacities, checked by
section_reference, which shares no code with fabric_est: one capacity
below the fixture's largest op cost, which must fail, the largest cost
itself, and a looser one."""

import contextlib
import io

import pytest

import section_reference as ref
from fabric_est.cli import main
from test_golden import SPECS


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    path = tmp_path_factory.mktemp("section-reference") / "config.json"
    path.write_text(ref.config_json())
    return str(path)


@pytest.mark.parametrize("spec", SPECS)
def test_plans(spec, config):
    code, text, _ = run(["--fixture", spec, "--print-ir", "--config", config])
    assert code == 0
    ops = ref.read_ops(text)
    largest = max(op.fcs for op in ops)
    for capacity in (largest - 1, largest, 4 * largest + 1):
        argv = ["--fixture", spec, "--sectionize", "--capacity", str(capacity), "--print-ir",
                "--config", config]
        code, out, err = run(argv)
        i = ref.too_big(ops, capacity)
        if capacity < largest:
            assert i is not None
            assert (code, out) == (1, "")
            assert err == (f"error: operator exceeds section capacity: op {i} "
                           f"({ops[i].opname}, {ops[i].fcs} FCs > {capacity})\n")
        else:
            assert i is None
            assert (code, err) == (0, "")
            sectioned = ref.read_ops(out)
            assert [(op.opname, op.operands, op.results) for op in sectioned] == [
                (op.opname, op.operands, op.results) for op in ops
            ]
            ref.check_plan(sectioned, capacity)


def two_nots(first, second):
    """Printed ops of a chain of two nots in the sections given (None: no section)."""
    attrs = ["" if s is None else f" {{section = {s}}}" for s in (first, second)]
    return ref.read_ops(f"func @f(%a: !lwe) -> !lwe {{\n"
                        f"  %0 = scifr_bool.not %a{attrs[0]} : !lwe\n"
                        f"  %1 = scifr_bool.not %0{attrs[1]} : !lwe\n"
                        f"  return %1 : !lwe\n}}\n")


@pytest.mark.parametrize("plan, capacity, message", [
    ((1, 0), 4, "op 1 in section 0 reads %0 of section 1"),
    ((0, 0), 3, "sections over capacity 3: {0: 4}"),
    ((0, 1), 4, "2 sections, first fit gives 1"),
    ((None, 0), 4, "op 0 has 0 sections"),
])
def test_the_reference_catches_a_bad_plan(plan, capacity, message):
    ref.check_plan(two_nots(0, 0), 4)
    with pytest.raises(ref.Mismatch) as info:
        ref.check_plan(two_nots(*plan), capacity)
    assert str(info.value) == message
