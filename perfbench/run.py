"""End-to-end benchmark of the fabric-est CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload deep-chain --seed 1 --seconds 30 --trace 0

With ``--trace 0`` each invocation is a ``python -m fabric_est.cli``
subprocess (``PYTHONPATH=src``), one at a time in a closed loop with one
client, and the end-to-end metrics are reported.  With ``--trace 1`` the
CLI runs in this process under per-layer spans (see tracing.py) and the
per-layer metrics are reported.  Every output is checked against the
independent reference in reference.py, and the sha256 of each output
must not change between invocations of the same command.  The last line
of standard output is one JSON object; the run's details, seed included,
go to .perfbench_work/<workload>-<seed>-<trace>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from workloads import Invocation  # noqa: E402

MIN_ROUNDS = 3          # timed rounds per run, however long they take
SETUP_SAMPLES = 9       # no-work invocations behind setup_s
INVOCATION_TIMEOUT_S = 60


class SetupError(Exception):
    """The benchmark cannot run in this directory."""


@dataclass
class Sample:
    out: str
    status: int
    wall_s: float
    cpu_s: float
    rss_mib: float


@dataclass
class Ledger:
    """Counts invocations and failures: a nonzero exit, a report the
    reference rejects, or an output whose sha256 differs from the first
    accepted output of the same command."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    fingerprints: dict[str, str] = field(default_factory=dict)

    def record(self, inv: Invocation, out: str, status: int) -> None:
        self.attempted += 1
        key = " ".join(inv.argv)
        digest = hashlib.sha256(out.encode()).hexdigest()
        problem = None
        if status != 0:
            problem = f"exit status {status}"
        elif key not in self.fingerprints:
            try:
                inv.check(out)
                self.fingerprints[key] = digest
            except Exception as exc:   # any output the check cannot accept
                problem = f"{type(exc).__name__}: {exc}"
        elif self.fingerprints[key] != digest:
            problem = f"output sha256 {digest} differs from {self.fingerprints[key]}"
        if problem is not None:
            self.problems.append(f"{key}: {problem}")
            print(f"perfbench: FAILED {key}: {problem}", file=sys.stderr)


class Subprocesses:
    """Runs CLI invocations as child processes of this one."""

    def __init__(self, src: Path, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def run(self, argv: list[str]) -> Sample:
        """One invocation; CPU and max RSS are this child's own, read
        through wait4 (RUSAGE_CHILDREN would keep a running max)."""
        stderr_path = self.workdir / "stderr.txt"
        start = perf_counter()
        with open(stderr_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "fabric_est.cli", *argv],
                cwd=self.workdir, env=self.env, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write(stderr_path.read_text()[-2000:])
        return Sample(out.decode(), proc.returncode, wall,
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    def generate(self, argv: list[str]) -> None:
        if self.run(argv).status != 0:
            raise SetupError(f"input generation failed: {' '.join(argv)}")


def end_to_end(procs: Subprocesses, load: workloads.Workload, seconds: float,
               ledger: Ledger) -> tuple[dict[str, float], dict]:
    def invoke(inv: Invocation) -> Sample:
        sample = procs.run(inv.argv)
        ledger.record(inv, sample.out, sample.status)
        return sample

    for inv in load.rounds:   # warm-up: file cache, bytecode cache
        invoke(inv)
    setup = [invoke(load.no_work).wall_s for _ in range(SETUP_SAMPLES)]
    rounds: list[list[Sample]] = []
    deadline = perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or perf_counter() < deadline:
        rounds.append([invoke(inv) for inv in load.rounds])

    ops = sum(inv.ops_in for inv in load.rounds)
    metrics = {
        "ops_per_s": statistics.median(ops / sum(s.wall_s for s in r) for r in rounds),
        "max_invocation_s": statistics.median(max(s.wall_s for s in r) for r in rounds),
        "cpu_s": statistics.median(sum(s.cpu_s for s in r) for r in rounds),
        "peak_rss_mb": max(s.rss_mib for r in rounds for s in r),
        "setup_s": statistics.median(setup),
    }
    detail = {"setup_s": setup,
              "rounds": [[{"wall_s": s.wall_s, "cpu_s": s.cpu_s, "rss_mib": s.rss_mib}
                          for s in r] for r in rounds]}
    return metrics, detail


# Unit of a metric by the end of its name; the first match wins.
UNITS = (("ops_per_s", "1/s"), ("_s", "s"), ("_mb", "MiB"), ("depth", "ops"),
         ("bytes", "B"), ("_frac", "frac"))


def unit(name: str) -> str:
    return next((u for suffix, u in UNITS if name.endswith(suffix)), "count")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "fabric_est" / "cli.py").is_file():
        print(f"perfbench: no fabric_est sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    procs = Subprocesses(src, workdir)
    try:
        load = workloads.build(args.workload, workdir, args.seed, procs.generate)
    except (SetupError, ref.Mismatch) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    ledger = Ledger()
    if args.trace:
        import tracing
        os.chdir(workdir)
        cli = tracing.InProcessCLI(src)
        metrics, detail = tracing.traced_metrics(
            cli, load.rounds, args.seconds, MIN_ROUNDS, ledger.record)
    else:
        metrics, detail = end_to_end(procs, load, args.seconds, ledger)

    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": len(ledger.problems),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "problems": ledger.problems,
        "fingerprints": ledger.fingerprints, "detail": detail, **result}, indent=1))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "failed_frac": len(ledger.problems) / ledger.attempted,
                      "fingerprints": ledger.fingerprints}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
