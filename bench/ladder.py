"""Time fabric-est on a fixed ladder of inputs, one child process per run.

    python bench/ladder.py --out BENCH.json [--tree LABEL=PATH ...]
        [--points NAME ...] [--runs K] [--budget SECONDS]

Each point of the ladder is one `python -m fabric_est.cli` invocation.
Every run of it is a child of this process, started with
PYTHONPATH=PATH/src, and its wall time, CPU time and peak RSS are its
own: the CPU time and `ru_maxrss` come from that child's `wait4`.  This
process never imports fabric_est or perfbench and holds no circuit, so
each child starts from a small parent, whose own peak RSS the output
records as a floor under every child's.  The inputs are written once, by
set-up children of the first tree: fixtures through `fabric-est
--fixture SPEC -o FILE`, and the seed-1 random netlist of
perfbench/workloads.py through a child that imports that module.

With several `--tree`s the runs interleave: every round runs each point
on each tree in turn, and the trees take turns going first.  A run that takes longer than the budget is
killed, and its point is recorded as timed out on that tree; the ladder
is never shrunk to fit.  The output records, per tree, the commit and a
hash of its `src`, and per point and tree, the median wall time over the
runs with its spread, the median CPU time and the median peak RSS, and
every run's wall time, CPU time and peak RSS in run order.  With two
trees, each point also pairs run k of the second tree with run k of the
first: the median, min and max of the second/first ratio of wall and of
CPU time, how many pairs the second tree was faster in, and a verdict.
It also records `sys.flags.dont_write_bytecode` of this process.  When
PYTHONDONTWRITEBYTECODE sets it, the children inherit the variable, so
every child compiles `src` from source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> (how its input is made, the CLI arguments after the input file)
CRITICAL_PATH = ["--critical-path"]
PASS_CHAIN = ["--lower-gates", "--canonicalize", "--sectionize", "--critical-path"]
NETLIST = "netlist:seed-1"
POINTS = {
    "no-work": (None, ["--fixture", "and-gate", "--cggi-estimate"]),
    "table3-mult8": ("table3-mult8", CRITICAL_PATH),
    "ripple-adder:250": ("ripple-adder:250", CRITICAL_PATH),
    "array-mult:16": ("array-mult:16", CRITICAL_PATH),
    "array-mult:32": ("array-mult:32", CRITICAL_PATH),
    "ripple-adder:1000": ("ripple-adder:1000", CRITICAL_PATH),
    "ckks-box-blur:4096": ("ckks-box-blur:4096", CRITICAL_PATH),
    NETLIST: (NETLIST, CRITICAL_PATH),
    "ripple-adder:4000": ("ripple-adder:4000", CRITICAL_PATH),
    "array-mult:64": ("array-mult:64", CRITICAL_PATH),
    "ripple-adder:16000": ("ripple-adder:16000", CRITICAL_PATH),
    "array-mult:128": ("array-mult:128", CRITICAL_PATH),
    "array-mult:128 passes": ("array-mult:128", PASS_CHAIN),
}

# These run in children, so that this process stays small: hashlib alone
# would add 3.6 MiB to it, as its libcrypto.
HASH_CHILD = (
    "import hashlib, pathlib, sys; root = pathlib.Path(sys.argv[1]); h = hashlib.sha256()\n"
    "for f in sorted((root / 'src').rglob('*.py')):\n"
    "    h.update(f.relative_to(root).as_posix().encode() + bytes(1) + f.read_bytes())\n"
    "print(h.hexdigest())"
)
NETLIST_CHILD = (
    "import random, sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "open(sys.argv[2], 'w').write(workloads.random_netlist(random.Random(1), 'netlist'))"
)


class Tree:
    def __init__(self, label: str, path: Path):
        self.label = label
        self.path = path
        self.env = dict(os.environ, PYTHONPATH=str(path / "src"))

    def describe(self) -> dict:
        git = subprocess.run(
            ["git", "-C", str(self.path), "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True)
        digest = subprocess.run([sys.executable, "-c", HASH_CHILD, str(self.path)],
                                capture_output=True, text=True, check=True)
        return {
            "commit": git.stdout.strip() if git.returncode == 0 else None,
            "src_sha256": digest.stdout.strip(),
        }


def run_child(argv: list[str], cwd: Path, env: dict, budget: float) -> dict:
    """One child; its status is "ok", "failed" or "timed out"."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(budget, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        if wall >= budget:
            return {"status": "timed out"}
        if proc.returncode != 0:
            err.seek(0)
            tail = err.read()[-2000:].decode(errors="replace")
            return {"status": "failed", "exit": proc.returncode, "stderr": tail}
    return {
        "status": "ok",
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mib": usage.ru_maxrss / 1024,
    }


def make_inputs(names: list[str], tree: Tree, workdir: Path, budget: float) -> dict[str, int]:
    """Write each input the points need; returns its op count by input."""
    ops: dict[str, int] = {}
    for name in names:
        source = POINTS[name][0]
        if source is None or source in ops:
            continue
        path = workdir / f"{source.replace(':', '-')}.scifr"
        if source == NETLIST:
            argv = [sys.executable, "-c", NETLIST_CHILD, str(ROOT / "perfbench"), str(path)]
        else:
            argv = [sys.executable, "-m", "fabric_est.cli", "--fixture", source, "-o", str(path)]
        result = run_child(argv, workdir, tree.env, budget)
        if result["status"] != "ok":
            raise SystemExit(f"ladder: writing {source} {result['status']}: {result}")
        # A line at a time: on Linux a child's ru_maxrss starts from the
        # high-water mark of this process, which exec replaced, so this
        # process never holds an input.  Its peak, parent_maxrss_mib, is a
        # floor under every child's.
        with open(path, encoding="utf-8") as lines:
            ops[source] = sum(" = scifr_" in line for line in lines)
    return ops


def median(xs) -> float:
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def summary(runs: list[dict]) -> dict:
    """The median and spread over ok runs and each run's figures, or the
    status that stopped them."""
    bad = next((r for r in runs if r["status"] != "ok"), None)
    if bad is not None:
        return bad
    walls = [r["wall_s"] for r in runs]
    return {
        "status": "ok",
        "runs": len(runs),
        "wall_median_s": round(median(walls), 4),
        "wall_min_s": round(min(walls), 4),
        "wall_max_s": round(max(walls), 4),
        "cpu_median_s": round(median(r["cpu_s"] for r in runs), 4),
        "maxrss_median_mib": round(median(r["maxrss_mib"] for r in runs), 2),
        "wall_s": [round(r["wall_s"], 4) for r in runs],
        "cpu_s": [round(r["cpu_s"], 4) for r in runs],
        "maxrss_mib": [round(r["maxrss_mib"], 2) for r in runs],
    }


# All of 7 pairs one way is a two-sided sign test at p = 2 / 2**7 < 0.016.
SIGN_TEST_PAIRS = 7


def verdict(first: list[float], second: list[float]) -> str:
    """"faster" or "slower" when the second tree's time is less, or more,
    than the first's in every pair, and there are enough pairs for the
    sign test; "same" otherwise."""
    pairs = list(zip(first, second))
    if len(pairs) >= SIGN_TEST_PAIRS:
        if all(b < a for a, b in pairs):
            return "faster"
        if all(b > a for a, b in pairs):
            return "slower"
    return "same"


def paired(first: list[dict], second: list[dict]) -> dict | None:
    """Run k of the second tree against run k of the first, for wall and
    CPU time; None unless every run of both trees was ok."""
    if any(r["status"] != "ok" for r in first + second):
        return None
    block: dict = {"pairs": len(first)}
    for measure in ("wall_s", "cpu_s"):
        a, b = [r[measure] for r in first], [r[measure] for r in second]
        ratios = [y / x for x, y in zip(a, b)]
        block[measure] = {
            "ratio_median": round(median(ratios), 4),
            "ratio_min": round(min(ratios), 4),
            "ratio_max": round(max(ratios), 4),
            "faster": sum(r < 1 for r in ratios),
            "verdict": verdict(a, b),
        }
    return block


def ladder(trees: list[Tree], names: list[str], runs: int, budget: float) -> dict:
    with tempfile.TemporaryDirectory(prefix="ladder-") as tmp:
        workdir = Path(tmp)
        ops = make_inputs(names, trees[0], workdir, budget)
        samples = {(name, tree.label): [] for name in names for tree in trees}
        for round_ in range(runs):
            for name in names:
                source, args = POINTS[name]
                file = [] if source is None else [f"{source.replace(':', '-')}.scifr"]
                argv = [sys.executable, "-m", "fabric_est.cli", *file, *args]
                for tree in trees[::-1] if round_ % 2 else trees:  # each goes first in turn
                    done = samples[name, tree.label]
                    if any(r["status"] != "ok" for r in done):
                        continue  # timed out or failed: not run again
                    done.append(run_child(argv, workdir, tree.env, budget))
    points = []
    for name in names:
        point = {
            "name": name,
            "argv": ([] if POINTS[name][0] is None else ["FILE"]) + POINTS[name][1],
            "ops": ops.get(POINTS[name][0]),
            "results": {t.label: summary(samples[name, t.label]) for t in trees},
        }
        if len(trees) == 2:
            point["paired"] = paired(*(samples[name, t.label] for t in trees))
        points.append(point)
    return {
        "python": platform.python_version(),
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs",
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "runs": runs,
        "budget_s": budget,
        "parent_maxrss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),
        "trees": {tree.label: tree.describe() for tree in trees},
        "points": points,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, type=Path, help="JSON file to write")
    p.add_argument("--tree", action="append", metavar="LABEL=PATH",
                   help="a checkout to time (default: this one, as HEAD)")
    p.add_argument("--points", nargs="+", choices=list(POINTS), metavar="NAME",
                   help=f"points to run, of: {', '.join(POINTS)} (default: all)")
    p.add_argument("--runs", type=int, default=5, help="runs per point and tree (default 5)")
    p.add_argument("--budget", type=float, default=120.0,
                   help="seconds one run may take (default 120)")
    args = p.parse_args(argv)
    trees = []
    for spec in args.tree or [f"HEAD={ROOT}"]:
        label, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "src" / "fabric_est" / "cli.py").is_file():
            p.error(f"--tree {spec}: want LABEL=PATH of a checkout with src/fabric_est")
        if any(tree.label == label for tree in trees):
            p.error(f"--tree {spec}: label {label} is given twice")
        trees.append(Tree(label, Path(path).resolve()))
    if args.runs < 1 or args.budget <= 0:
        p.error("--runs and --budget must be positive")
    names = [n for n in POINTS if args.points is None or n in args.points]
    result = ladder(trees, names, args.runs, args.budget)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
