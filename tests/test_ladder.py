"""bench/ladder.py runs, and BENCH_21.json has the shape it writes."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SUMMARY = {"status", "runs", "wall_median_s", "wall_min_s", "wall_max_s", "cpu_median_s",
           "maxrss_median_mib"}
SAMPLES = {"wall_s", "cpu_s", "maxrss_mib"}


def check_shape(doc, trees, points):
    # BENCH_21.json was written before the ladder kept each run's figures,
    # the bytecode flag and paired verdicts; every fresh output has all three.
    fresh = doc != json.loads((ROOT / "BENCH_21.json").read_text(encoding="utf-8"))
    assert set(doc) == {"python", "machine", "runs", "budget_s", "parent_maxrss_mib", "trees",
                        "points"} | ({"dont_write_bytecode"} if fresh else set())
    if fresh:
        assert isinstance(doc["dont_write_bytecode"], bool)
    assert list(doc["trees"]) == trees
    for tree in doc["trees"].values():
        assert set(tree) == {"commit", "src_sha256"}
    assert [p["name"] for p in doc["points"]] == points
    for point in doc["points"]:
        paired = {"paired"} if fresh and len(trees) == 2 else set()
        assert set(point) == {"name", "argv", "ops", "results"} | paired
        assert list(point["results"]) == trees
        for result in point["results"].values():
            keys = SUMMARY | (SAMPLES if fresh else set())
            assert set(result) == keys or result == {"status": "timed out"}, result
            if fresh and result["status"] == "ok":
                assert all(len(result[k]) == result["runs"] for k in SAMPLES), result
        if paired and point["paired"] is not None:
            assert set(point["paired"]) == {"pairs", "wall_s", "cpu_s"}
            for measure in ("wall_s", "cpu_s"):
                assert set(point["paired"][measure]) == {
                    "ratio_median", "ratio_min", "ratio_max", "faster", "verdict"}


def test_two_smallest_points(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "ladder.py"), "--out", str(out),
         "--points", "no-work", "table3-mult8", "--runs", "1", "--budget", "30"],
        check=True, cwd=tmp_path)
    doc = json.loads(out.read_text(encoding="utf-8"))
    check_shape(doc, ["HEAD"], ["no-work", "table3-mult8"])
    assert [p["ops"] for p in doc["points"]] == [None, 141]
    for point in doc["points"]:
        assert point["results"]["HEAD"]["status"] == "ok"


def test_checked_in_file():
    doc = json.loads((ROOT / "BENCH_21.json").read_text(encoding="utf-8"))
    points = [p["name"] for p in doc["points"]]
    check_shape(doc, ["parent", "change"], points)
    assert "array-mult:128 passes" in points and "no-work" in points


def test_repeated_tree_label_is_refused(tmp_path):
    """Samples and trees are keyed by label, so a repeated one would pool
    two checkouts' runs under one name; it is a usage error instead."""
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "ladder.py"), "--out", str(out),
         "--tree", f"a={ROOT}", "--tree", f"a={ROOT}", "--points", "no-work"],
        capture_output=True, text=True, cwd=tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines()[-1] == f"ladder.py: error: --tree a={ROOT}: label a is given twice"
    assert not out.exists()


def test_two_labels_pair_their_runs(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "ladder.py"), "--out", str(out),
         "--tree", f"first={ROOT}", "--tree", f"second={ROOT}",
         "--points", "no-work", "table3-mult8", "--runs", "2", "--budget", "30"],
        check=True, cwd=tmp_path)
    doc = json.loads(out.read_text(encoding="utf-8"))
    check_shape(doc, ["first", "second"], ["no-work", "table3-mult8"])
    assert doc["dont_write_bytecode"] is bool(sys.flags.dont_write_bytecode)
    for point in doc["points"]:
        first, second = point["results"]["first"], point["results"]["second"]
        paired = point["paired"]
        assert paired["pairs"] == 2
        for measure in ("wall_s", "cpu_s"):
            ratios = [b / a for a, b in zip(first[measure], second[measure])]
            block = paired[measure]
            assert block["ratio_min"] <= block["ratio_median"] <= block["ratio_max"]
            assert block["ratio_min"] == pytest.approx(min(ratios), abs=1e-3)
            assert block["faster"] == sum(r < 1 for r in ratios)
            assert block["verdict"] == "same"  # 2 pairs are too few for a sign test


def load_ladder():
    spec = importlib.util.spec_from_file_location("ladder", ROOT / "bench" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("first, second, want", [
    ([1.0] * 7, [0.9] * 7, "faster"),
    ([1.0] * 7, [1.1] * 7, "slower"),
    ([1.0] * 7, [0.9] * 6 + [1.1], "same"),
    ([1.0] * 7, [0.9] * 6 + [1.0], "same"),
    ([1.0] * 6, [0.9] * 6, "same"),
])
def test_verdict_needs_every_pair_of_at_least_seven(first, second, want):
    assert load_ladder().verdict(first, second) == want
