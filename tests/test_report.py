"""Text and JSON report rendering."""

import json

from fabric_est import (
    CriticalPathResult,
    Method,
    OpTag,
    RunManifest,
    ThroughputResult,
    emit_report,
    estimate,
    paper_default,
    render_json,
    render_text,
)
from fabric_est.fixtures import build_half_adder, build_table3_mult8

CONFIG, COSTS = paper_default()


def half_adder_resources():
    return estimate(build_half_adder(), CONFIG, COSTS)


class TestLabels:
    def test_injective(self):
        assert len({tag.label for tag in OpTag}) == len(OpTag)

    def test_spot_values(self):
        assert OpTag.AND.label == "AndOp"
        assert OpTag.XNOR.label == "XNorOp"
        assert OpTag.LUT_LINCOMB.label == "LutLinCombOp"
        assert OpTag.MUL_PLAIN.label == "MulPlainOp"


class TestRenderText:
    def test_half_adder_table(self):
        text = render_text(half_adder_resources())
        assert text == (
            "AndOp (FCs)  256\n"
            "XorOp (FCs)  256\n"
            "Total FCs  512\n"
            "Total Mx2 Chips  1\n"
            "Total Mx8 Boards  1\n"
        )

    def test_zero_rows_suppressed(self):
        text = render_text(half_adder_resources())
        assert "NandOp" not in text
        assert "RescaleOp" not in text

    def test_rows_sorted_alphabetically(self):
        text = render_text(
            estimate(build_table3_mult8(), CONFIG, COSTS)
        )
        rows = [line for line in text.splitlines() if "(FCs)" in line]
        assert rows == [
            "AndOp (FCs)  11264",
            "NandOp (FCs)  11264",
            "XNorOp (FCs)  4608",
            "XorOp (FCs)  8960",
        ]
        assert "Total FCs  36096" in text
        assert "Total Mx2 Chips  18" in text
        assert "Total Mx8 Boards  5" in text

    def test_memory_rows_conditional(self):
        res = half_adder_resources()
        assert "Total HBM Bytes" not in render_text(res)
        from dataclasses import replace

        with_mem = replace(
            res, total_hbm_bytes=1024, total_ddr_bytes=2048, total_tiles=7
        )
        text = render_text(with_mem)
        assert "Total HBM Bytes  1024\n" in text
        assert "Total DDR Bytes  2048\n" in text
        assert "Total Tiles  7\n" in text
        assert text.index("Total FCs") < text.index("Total HBM Bytes")
        assert text.index("Total Tiles") < text.index("Total Mx2 Chips")

    def test_critical_path_lines(self):
        cps = (
            CriticalPathResult(Method.APPROXIMATE, (0,), 1, 1.0),
            CriticalPathResult(Method.LONGEST_PATH, (0, 1), 2, 5.0),
        )
        text = render_text(None, cps)
        assert text == (
            "Critical Path (approx): depth 1, latency 1\n"
            "Critical Path (longest): depth 2, latency 5\n"
        )

    def test_latency_formats_as_number(self):
        cp = CriticalPathResult(Method.PAPER_EXACT, (0,), 1, 2.5)
        assert render_text(None, (cp,)) == (
            "Critical Path (paper-exact): depth 1, latency 2.5\n"
        )

    def test_throughput_line(self):
        tp = (1000, ThroughputResult(14.0, 71))
        assert render_text(None, (), tp) == "Throughput @ batch 1000: 71\n"

    def test_empty_report(self):
        assert render_text(None) == ""

    def test_sections_in_order(self):
        cp = CriticalPathResult(Method.LONGEST_PATH, (0, 1), 2, 2.0)
        tp = (10, ThroughputResult(2.0, 5))
        text = render_text(half_adder_resources(), (cp,), tp)
        assert text.index("Total FCs") < text.index("Critical Path")
        assert text.index("Critical Path") < text.index("Throughput")
        assert text.endswith("Throughput @ batch 10: 5\n")


class TestRenderJson:
    def manifest(self, **kw):
        return RunManifest(input="fixture:half-adder", **kw)

    def test_document_shape(self):
        doc = json.loads(render_json(self.manifest(), half_adder_resources()))
        assert set(doc) == {"manifest", "resources", "critical_path", "throughput"}
        assert doc["manifest"] == {
            "input": "fixture:half-adder",
            "passes": [],
            "config": "paper-default",
            "format": "text",
            "exit_status": 0,
        }
        res = doc["resources"]
        assert res["function"] == "half_adder"
        assert res["op_count"] == 2
        assert res["total_fcs"] == 512
        assert res["chips"] == 1
        assert res["boards"] == 1
        assert doc["critical_path"] == []
        assert doc["throughput"] is None

    def test_per_kind_map_is_complete_and_ordered(self):
        doc = json.loads(render_json(self.manifest(), half_adder_resources()))
        per_kind = doc["resources"]["per_kind_fcs"]
        assert list(per_kind) == [tag.value for tag in OpTag]
        assert per_kind["and"] == 256
        assert per_kind["xor"] == 256
        assert per_kind["rescale"] == 0

    def test_null_resources(self):
        cp = CriticalPathResult(Method.LONGEST_PATH, (0, 2), 2, 2.0)
        doc = json.loads(render_json(self.manifest(), None, (cp,)))
        assert doc["resources"] is None
        assert doc["critical_path"] == [
            {"method": "longest", "ops": [0, 2], "depth": 2, "latency_unit_time": 2.0}
        ]

    def test_throughput_block(self):
        tp = (1000, ThroughputResult(14.0, 71), Method.LONGEST_PATH)
        doc = json.loads(render_json(self.manifest(), None, (), tp))
        assert doc["throughput"] == {
            "method": "longest",
            "batch": 1000,
            "latency_unit_time": 14.0,
            "outputs_per_batch_window": 71,
        }

    def test_manifest_echo(self):
        m = RunManifest(
            input="circ.scifr",
            passes=("lower-gates", "canonicalize"),
            config="custom.json",
            format="json",
            exit_status=0,
        )
        doc = json.loads(render_json(m, None))
        assert doc["manifest"]["passes"] == ["lower-gates", "canonicalize"]
        assert doc["manifest"]["config"] == "custom.json"
        assert doc["manifest"]["format"] == "json"

    def test_deterministic_bytes(self):
        args = (self.manifest(), half_adder_resources())
        assert render_json(*args) == render_json(*args)
        assert render_json(*args).endswith("\n")


class TestEmitReport:
    def test_dispatch_text(self):
        m = RunManifest(input="x", format="text")
        out = emit_report(m, half_adder_resources())
        assert out.startswith("AndOp (FCs)  256\n")

    def test_dispatch_json(self):
        m = RunManifest(input="x", format="json")
        out = emit_report(m, half_adder_resources())
        assert json.loads(out)["resources"]["total_fcs"] == 512

    def test_throughput_triplet_narrows_for_text(self):
        m = RunManifest(input="x", format="text")
        tp = (100, ThroughputResult(2.0, 50), Method.LONGEST_PATH)
        out = emit_report(m, None, (), tp)
        assert out == "Throughput @ batch 100: 50\n"
