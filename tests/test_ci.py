"""The CI workflow runs what ROADMAP.md and BENCHMARK.json name."""

import ast
import json
import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]
STRICT_TIER1 = "matrix.python-version == '3.13'"


def jobs():
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    return yaml.safe_load(text)["jobs"]


def tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    return re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)


def test_tier1_job_runs_the_roadmap_command():
    job = jobs()["tier1"]
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.13"]
    runs = [(step.get("if"), step["run"]) for step in job["steps"] if "run" in step]
    command = tier1_command()
    strict = command.replace("python -m pytest -q", "python -W error -m pytest -q -W error")
    assert [run for run in runs if "pytest -q" in run[1]] == [(None, command), (STRICT_TIER1, strict)]
    # without PyYAML this file would be skipped in CI
    assert (None, "python -m pip install pytest pyyaml") in runs


def test_coverage_job_runs_the_statement_gate():
    job = jobs()["coverage"]
    (python,) = [step["with"]["python-version"] for step in job["steps"] if "with" in step]
    assert python == "3.13"
    runs = [step["run"] for step in job["steps"] if "run" in step]
    gate = tier1_command().replace(
        "python -m pytest -q --continue-on-collection-errors", "python tests/statement_coverage.py"
    )
    assert runs == ["python -m pip install pytest pyyaml", gate]
    assert gate != tier1_command()


def test_bench_smoke_runs_every_workload():
    matrix = jobs()["bench-smoke"]["strategy"]["matrix"]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert matrix["workload"] == [w["name"] for w in benchmark["workloads"]]
    assert matrix["trace"] == ["0", "1"]


def test_every_job_bounds_its_run_time():
    """A hung child would otherwise hold a runner for GitHub's default of
    six hours; each limit is well above the job's usual time."""
    limits = {name: job.get("timeout-minutes") for name, job in jobs().items()}
    assert all(isinstance(m, int) and m > 0 for m in limits.values()), limits


def test_piped_steps_run_under_bash():
    """GitHub runs a `shell: bash` step with pipefail, so a crash on the
    left of a pipe fails the step and not only what reads from it."""
    piped = 0
    for name, job in jobs().items():
        for step in job["steps"]:
            if re.search(r"(?<!\|)\|(?!\|)", step.get("run", "")):
                piped += 1
                assert step.get("shell") == "bash", (name, step["run"])
    assert piped


def test_ladder_parent_imports_no_program():
    """bench/ladder.py imports neither fabric_est nor a perfbench module,
    so each child it starts forks from a small process and the
    ru_maxrss it reports is the child's own."""
    tree = ast.parse((ROOT / "bench" / "ladder.py").read_text(encoding="utf-8"))
    banned = {"fabric_est", "perfbench"} | {p.stem for p in (ROOT / "perfbench").glob("*.py")}
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported and not imported & banned, imported & banned
