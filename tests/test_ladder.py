"""bench/ladder.py runs, and BENCH_21.json has the shape it writes."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUMMARY = {"status", "runs", "wall_median_s", "wall_min_s", "wall_max_s", "cpu_median_s",
           "maxrss_median_mib"}


def check_shape(doc, trees, points):
    assert set(doc) == {"python", "machine", "runs", "budget_s", "parent_maxrss_mib", "trees",
                        "points"}
    assert list(doc["trees"]) == trees
    for tree in doc["trees"].values():
        assert set(tree) == {"commit", "src_sha256"}
    assert [p["name"] for p in doc["points"]] == points
    for point in doc["points"]:
        assert set(point) == {"name", "argv", "ops", "results"}
        assert list(point["results"]) == trees
        for result in point["results"].values():
            assert set(result) == SUMMARY or result == {"status": "timed out"}, result


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
