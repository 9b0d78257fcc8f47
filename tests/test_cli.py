"""End-to-end driver tests exercising main() in process."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fabric_est
import genutil
from fabric_est import OpTag, parse, print_circuit
from fabric_est.cli import main
from fabric_est.fixtures import build_half_adder

HALF_ADDER_TABLE = (
    "AndOp (FCs)  256\n"
    "XorOp (FCs)  256\n"
    "Total FCs  512\n"
    "Total Mx2 Chips  1\n"
    "Total Mx8 Boards  1\n"
)


def make_config_doc(**fabric):
    doc = {"costs": {tag.value: {"fcs": 100} for tag in OpTag}}
    if fabric:
        doc["fabric"] = fabric
    return doc


def strict_json(text):
    """Parse a report, failing on the NaN and Infinity tokens that
    json.loads accepts but JSON does not have."""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--fixture", "half-adder", "extra.scifr"],
            ["--fixture", "half-adder", "-o"],
            ["circ.scifr", "-o", "out.scifr"],
            ["--fixture", "half-adder", "--capacity", "10"],
            ["--fixture", "half-adder", "--method", "longest"],
            ["--fixture", "half-adder", "--throughput"],
            ["--fixture", "half-adder", "--batch", "10"],
            ["--fixture", "half-adder", "--cggi-estimate", "--ckks-estimate"],
            ["--fixture", "half-adder", "--no-such-flag"],
            ["--fixture", "half-adder", "--emit", "yaml"],
            ["--fixture", "half-adder", "--method", "bogus", "--critical-path"],
            ["--fixture", "half-adder", "--config", "a.json", "--profile", "paper-default"],
            ["--fixture", "half-adder", "--profile", "bogus"],
        ],
    )
    def test_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err

    def test_unknown_fixture(self, capsys):
        assert main(["--fixture", "nope", "--cggi-estimate"]) == 2
        assert "unknown fixture 'nope'" in capsys.readouterr().err

    def test_malformed_fixture_spec(self, capsys):
        assert main(["--fixture", "ripple-adder:x"]) == 2
        assert "malformed fixture spec" in capsys.readouterr().err
        # a parameter is ASCII digits, as the IR lexer and printer write it
        for spec in ("ripple-adder:\u0661\u0662", "name(\u0663)"):
            assert main(["--fixture", spec, "--cggi-estimate"]) == 2
            out = capsys.readouterr()
            assert (out.out, out.err) == ("", f"error: malformed fixture spec '{spec}'\n")
        # more digits than int() reads
        assert main(["--fixture", "ripple-adder:" + "9" * 5000, "--cggi-estimate"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: fixture parameter of 'ripple-adder' too long (5000 digits)\n"


class TestEstimates:
    def test_half_adder_text(self, capsys):
        assert main(["--fixture", "half-adder", "--cggi-estimate"]) == 0
        out = capsys.readouterr()
        assert out.out == HALF_ADDER_TABLE
        assert out.err == ""

    def test_estimator_alias(self, capsys):
        assert main(["--fixture", "half-adder", "--cggi-tigris-estimator"]) == 0
        assert capsys.readouterr().out == HALF_ADDER_TABLE

    def test_table3_mult8(self, capsys):
        assert main(["--fixture", "table3-mult8", "--cggi-estimate"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "AndOp (FCs)  11264\n"
            "NandOp (FCs)  11264\n"
            "XNorOp (FCs)  4608\n"
            "XorOp (FCs)  8960\n"
            "Total FCs  36096\n"
            "Total Mx2 Chips  18\n"
            "Total Mx8 Boards  5\n"
        )

    def test_json_document(self, capsys):
        assert main(
            ["--fixture", "half-adder", "--cggi-estimate", "--emit", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["manifest"] == {
            "input": "fixture:half-adder",
            "passes": [],
            "config": "paper-default",
            "format": "json",
            "exit_status": 0,
        }
        assert doc["resources"]["total_fcs"] == 512
        assert doc["resources"]["per_kind_fcs"]["and"] == 256

    def test_ckks_estimate(self, capsys):
        assert main(
            ["--fixture", "ckks-dot-product:4", "--ckks-tigris-estimate",
             "--emit", "json"]
        ) == 0
        res = json.loads(capsys.readouterr().out)["resources"]
        assert res["op_count"] == 12
        assert res["total_fcs"] == 6144
        assert res["chips"] == 3
        assert res["boards"] == 1

    def test_dialect_mismatch_bool_graph(self, capsys):
        assert main(["--fixture", "half-adder", "--ckks-estimate"]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: --ckks-estimate: graph uses non-CKKS op"
            " 'scifr_bool.xor' (op 0)\n"
        )

    def test_dialect_mismatch_ckks_graph(self, capsys):
        assert main(["--fixture", "ckks-simple-sum", "--cggi-estimate"]) == 1
        assert "non-Boolean op" in capsys.readouterr().err

    def test_deterministic(self, capsys):
        argv = ["--fixture", "table3-mult8", "--cggi-estimate", "--emit", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestFileInput:
    def test_parse_and_estimate(self, tmp_path, capsys):
        path = tmp_path / "ha.scifr"
        path.write_text(print_circuit(build_half_adder()))
        assert main([str(path), "--cggi-estimate"]) == 0
        assert capsys.readouterr().out == HALF_ADDER_TABLE

    def test_input_label_in_json(self, tmp_path, capsys):
        path = tmp_path / "ha.scifr"
        path.write_text(print_circuit(build_half_adder()))
        assert main([str(path), "--cggi-estimate", "--emit", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["manifest"]["input"] == str(path)

    def test_input_named_like_a_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "--canonicalize").write_text(print_circuit(build_half_adder()))
        assert main(["--emit", "json", "--", "--canonicalize"]) == 0
        manifest = json.loads(capsys.readouterr().out)["manifest"]
        assert manifest["input"] == "--canonicalize"
        assert manifest["passes"] == []

    def test_missing_file(self, tmp_path, capsys):
        # A valid circuit with a byte after its closing '}' that is not UTF-8.
        not_utf8 = tmp_path / "ha.scifr"
        not_utf8.write_bytes(print_circuit(build_half_adder()).encode() + b"\xff")
        for path in ("/no/such/file.scifr", str(not_utf8)):
            assert main([path, "--cggi-estimate"]) == 1
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.startswith(f"error: cannot read '{path}': ")
            assert out.err.count("\n") == 1

    def test_parse_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "bad.scifr"
        path.write_text(
            "func @f(%a: !lwe) -> !lwe {\n"
            "  %0 = 5 : !lwe\n"
            "  return %0 : !lwe\n"
            "}\n"
        )
        assert main([str(path), "--cggi-estimate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{path}:2:")
        assert " error: " in err

    def test_self_use_is_a_cycle(self, tmp_path, capsys):
        path = tmp_path / "loop.scifr"
        path.write_text(
            "func @f(%a: !lwe) -> !lwe {\n"
            "  %0 = scifr_bool.and %0, %a : !lwe\n"
            "  return %0 : !lwe\n"
            "}\n"
        )
        assert main([str(path), "--critical-path", "--throughput", "--batch", "8"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}:2:8: error: dependency cycle among operators\n"

    def test_non_value_operand_after_comma(self, tmp_path, capsys):
        path = tmp_path / "bad.scifr"
        path.write_text(
            "func @f(%a: !lwe, %b: !lwe) -> !lwe {\n"
            "  %0 = scifr_bool.and %a, xb : !lwe\n"
            "  return %0 : !lwe\n"
            "}\n"
        )
        assert main([str(path), "--critical-path"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}:2:27: error: expected a value after ',', found 'xb'\n"


class TestTransforms:
    def test_print_ir_lowered(self, capsys):
        assert main(["--fixture", "half-adder", "--lower-gates", "--print-ir"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("func @half_adder")
        assert "scifr_bool.lut_lincomb" in out
        assert "scifr_bool.xor" not in out
        assert "scifr_bool.and" not in out

    def test_pass_order_matters(self, capsys):
        base = ["--fixture", "full-adder", "--cggi-estimate", "--emit", "json"]
        assert main(base + ["--canonicalize", "--lower-gates"]) == 0
        canon_first = json.loads(capsys.readouterr().out)
        assert main(base + ["--lower-gates", "--canonicalize"]) == 0
        lower_first = json.loads(capsys.readouterr().out)
        # Lowering first hides the named gates from fusion.
        assert canon_first["manifest"]["passes"] == ["canonicalize", "lower-gates"]
        assert lower_first["manifest"]["passes"] == ["lower-gates", "canonicalize"]
        assert canon_first["resources"]["per_kind_fcs"]["lut3"] == 256
        assert lower_first["resources"]["per_kind_fcs"]["lut3"] == 0
        assert lower_first["resources"]["per_kind_fcs"]["lut_lincomb"] == 1280

    def test_sectionize_annotates_ir(self, capsys):
        assert main(
            ["--fixture", "half-adder", "--sectionize", "--capacity", "256",
             "--print-ir"]
        ) == 0
        out = capsys.readouterr().out
        assert "{section = 0}" in out
        assert "{section = 1}" in out

    def test_sectionize_default_capacity(self, capsys):
        # One chip holds 2048 usable FCs; 141 ops at 256 need 18 sections.
        assert main(["--fixture", "table3-mult8", "--sectionize", "--print-ir"]) == 0
        out = capsys.readouterr().out
        assert "{section = 17}" in out
        assert "{section = 18}" not in out

    def test_sectionize_overflow(self, capsys):
        assert main(
            ["--fixture", "half-adder", "--sectionize", "--capacity", "100"]
        ) == 1
        assert "exceeds section capacity" in capsys.readouterr().err

    def test_sections_do_not_change_totals(self, capsys):
        assert main(
            ["--fixture", "half-adder", "--sectionize", "--cggi-estimate"]
        ) == 0
        assert capsys.readouterr().out == HALF_ADDER_TABLE


class TestCriticalPathAndThroughput:
    def test_all_methods_default(self, capsys):
        assert main(["--fixture", "ripple-adder:2", "--critical-path"]) == 0
        assert capsys.readouterr().out == (
            "Critical Path (approx): depth 4, latency 4\n"
            "Critical Path (paper-exact): depth 3, latency 3\n"
            "Critical Path (longest): depth 3, latency 3\n"
        )

    def test_single_method(self, capsys):
        assert main(
            ["--fixture", "ripple-adder:2", "--critical-path", "--method", "longest"]
        ) == 0
        assert capsys.readouterr().out == (
            "Critical Path (longest): depth 3, latency 3\n"
        )

    def test_throughput_default_method(self, capsys):
        assert main(
            ["--fixture", "table3-mult8", "--throughput", "--batch", "1000"]
        ) == 0
        assert capsys.readouterr().out == "Throughput @ batch 1000: 7\n"

    def test_throughput_follows_selected_method(self, capsys):
        assert main(
            ["--fixture", "ripple-adder:2", "--critical-path", "--method",
             "approx", "--throughput", "--batch", "100", "--emit", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["throughput"] == {
            "method": "approx",
            "batch": 100,
            "latency_unit_time": 4.0,
            "outputs_per_batch_window": 25,
        }

    def test_throughput_with_all_methods_uses_longest(self, capsys):
        assert main(
            ["--fixture", "ripple-adder:2", "--critical-path", "--throughput",
             "--batch", "100", "--emit", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["throughput"]["method"] == "longest"
        assert doc["throughput"]["outputs_per_batch_window"] == 33
        assert len(doc["critical_path"]) == 3

    def test_zero_depth_throughput_fails(self, capsys):
        # Every op in the and-gate fixture is a sink, so the approximate
        # method sees no compute ops.
        assert main(
            ["--fixture", "and-gate", "--critical-path", "--method", "approx",
             "--throughput", "--batch", "10"]
        ) == 1
        assert "no compute ops on critical path" in capsys.readouterr().err


class TestConfig:
    def test_custom_config_file(self, tmp_path, capsys):
        path = tmp_path / "hw.json"
        path.write_text(json.dumps(make_config_doc(chips_per_board=2)))
        assert main(
            ["--fixture", "half-adder", "--cggi-estimate", "--config", str(path),
             "--emit", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["manifest"]["config"] == str(path)
        assert doc["resources"]["total_fcs"] == 200

    def test_missing_config_file(self, capsys):
        assert main(
            ["--fixture", "half-adder", "--config", "/no/such/hw.json"]
        ) == 1
        assert "config file not found" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        path = tmp_path / "hw.json"
        for data, message in (
            (b"{not json", "malformed JSON config"),
            (b'{"fabric": {}}\xff', f"cannot read config '{path}'"),
        ):
            path.write_bytes(data)
            assert main(["--fixture", "half-adder", "--config", str(path)]) == 1
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.startswith(f"error: {message}")
            assert out.err.count("\n") == 1

    @pytest.mark.parametrize("config_file", [False, True], ids=["profile", "config-file"])
    def test_json_report_is_strict(self, config_file, tmp_path, capsys):
        argv = ["--fixture", "table3-mult8", "--critical-path", "--throughput",
                "--batch", "8", "--emit", "json"]
        if config_file:
            path = tmp_path / "hw.json"
            path.write_text(json.dumps(make_config_doc(unit_time_per_gate=2.5)))
            argv += ["--config", str(path)]
        assert main(argv) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["throughput"]["batch"] == 8
        assert len(doc["critical_path"]) == 3

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_non_finite_unit_time(self, token, tmp_path, capsys):
        path = tmp_path / "hw.json"
        path.write_text(json.dumps(make_config_doc(unit_time_per_gate=float(token))))
        argv = ["--fixture", "half-adder", "--critical-path", "--config", str(path),
                "--emit", "json"]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "unit_time_per_gate must be a positive number" in out.err

    @pytest.mark.parametrize(
        "fabric, fcs, argv, message",
        [
            (
                {"unit_time_per_gate": 10**400}, None,
                ["--fixture", "half-adder", "--critical-path"],
                "unit_time_per_gate is too large for a float",
            ),
            (
                {"fcs_per_chip": 10**400}, None,
                ["--fixture", "half-adder", "--critical-path"],
                "fcs_per_chip is too large for a float",
            ),
            # A finite unit time whose product with the depth is not.
            (
                {"unit_time_per_gate": 1e308}, None,
                ["--fixture", "full-adder", "--critical-path", "--throughput",
                 "--batch", "8", "--emit", "json"],
                "latency_unit_time is too large to report",
            ),
            # Two 4,300-digit costs sum to 4,301 digits, more than str() writes.
            (
                {}, 9 * 10**4299,
                ["--fixture", "half-adder", "--cggi-estimate"],
                "total_fcs is too large to report",
            ),
        ],
        ids=["unit_time_per_gate", "fcs_per_chip", "latency", "total_fcs"],
    )
    def test_too_large_for_a_float(self, fabric, fcs, argv, message, tmp_path, capsys):
        doc = make_config_doc(**fabric)
        if fcs is not None:
            doc["costs"]["and"]["fcs"] = doc["costs"]["xor"]["fcs"] = fcs
        path = tmp_path / "hw.json"
        path.write_text(json.dumps(doc))
        assert main([*argv, "--config", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "fabric, fcs, tail",
        [
            ({"chips_per_board": 10**400}, {}, "Total Mx2 Chips  1\nTotal Mx8 Boards  1\n"),
            (
                {"fcs_per_chip": 1, "occupancy": 1},
                {"and": 2**53 + 1, "xor": 0},
                "Total Mx2 Chips  9007199254740993\nTotal Mx8 Boards  2251799813685249\n",
            ),
        ],
        ids=["boards", "chips"],
    )
    def test_exact_chip_and_board_counts(self, fabric, fcs, tail, tmp_path, capsys):
        doc = make_config_doc(**fabric)
        for tag, n in fcs.items():
            doc["costs"][tag]["fcs"] = n
        path = tmp_path / "hw.json"
        path.write_text(json.dumps(doc))
        argv = ["--fixture", "half-adder", "--cggi-estimate", "--config", str(path)]
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith(tail)

    def test_profile_flag(self, capsys):
        assert main(
            ["--fixture", "half-adder", "--profile", "paper-default",
             "--cggi-estimate"]
        ) == 0
        assert capsys.readouterr().out == HALF_ADDER_TABLE


# Runs every config of the config corpus goes through: a Boolean
# circuit through estimate, sectionize and throughput, and a CKKS one.
CONFIG_CORPUS_RUNS = (
    ["--fixture", "full-adder", "--cggi-estimate", "--critical-path", "--throughput",
     "--batch", "8"],
    ["--fixture", "half-adder", "--sectionize", "--cggi-estimate"],
    ["--fixture", "ckks-simple-sum", "--ckks-estimate", "--critical-path"],
)


def test_config_corpus(tmp_path, capsys):
    """Every mutated config either fails with one `error:` line or gives
    a report that is finite, in text, and strict JSON under --emit json."""
    path = tmp_path / "hw.json"
    failed = reported = 0
    for text in genutil.config_corpus(seed=1, count=150):
        path.write_text(text)
        for run in CONFIG_CORPUS_RUNS:
            for emit in ("text", "json"):
                code = main([*run, "--emit", emit, "--config", str(path)])
                out = capsys.readouterr()
                if code == 1:
                    failed += 1
                    assert out.out == "" and out.err.count("\n") == 1, text
                    assert out.err.startswith("error: "), text
                    continue
                assert code == 0 and out.err == "", text
                reported += 1
                if emit == "json":
                    strict_json(out.out)
                else:
                    assert not re.search(r"\b(inf|nan)\b", out.out, re.I), text
    # Most of the 900 runs end in an error; at least 100 of each kind
    # test both paths.
    assert failed >= 100 and reported >= 100


class TestOutput:
    def test_write_fixture(self, tmp_path, capsys):
        path = tmp_path / "out.scifr"
        assert main(["--fixture", "half-adder", "-o", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert genutil.isomorphic(parse(path.read_text()), build_half_adder())

    def test_write_failure(self, tmp_path, capsys):
        assert main(["--fixture", "half-adder", "-o", str(tmp_path)]) == 1
        assert "cannot write" in capsys.readouterr().err

    def test_print_ir_precedes_report(self, capsys):
        assert main(
            ["--fixture", "half-adder", "--print-ir", "--cggi-estimate"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("func @half_adder")
        assert out.endswith(HALF_ADDER_TABLE)
        assert out.index("}") < out.index("AndOp")


def test_console_script(tmp_path):
    # the child imports the same fabric_est as this test
    src = str(Path(fabric_est.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "fabric_est.cli", "--fixture", "half-adder",
         "--cggi-estimate"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert proc.stdout == HALF_ADDER_TABLE
