"""In-process traced run: per-layer spans around the CLI's own calls.

``fabric_est.cli.main`` runs in this process with each layer function
replaced, in the namespace that calls it, by a shim that records a span
(name, start, end, parent).  No source file changes.  A layer's self
time is its span minus its child spans, so a round's self times add up
to its traced wall time.  Untraced and traced rounds alternate; the
traced round of median wall against the median untraced wall gives the
tracing overhead.  A separate memory pass, under ``tracemalloc``, records each
layer's peak allocation and its work counts, so allocation tracing never
inflates a timed span.
"""

from __future__ import annotations

import gc
import io
import statistics
import sys
import tracemalloc
import traceback
from collections import defaultdict
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Callable

from workloads import Invocation

MIB = float(1 << 20)

# (module, attribute, span name): each layer function, shimmed where the
# CLI's call order reaches it.
LAYERS = (
    ("cli", "load_config", "cost.load_config"),
    ("cli", "generate_fixture", "fixtures.generate_fixture"),
    ("cli", "parse", "syntax.parse"),
    ("syntax", "validate", "ir.validate"),
    ("cli", "lower_gates", "transforms.lower_gates"),
    ("cli", "canonicalize", "transforms.canonicalize"),
    ("cli", "sectionize", "transforms.sectionize"),
    ("cli", "estimate", "cost.estimate"),
    ("critical_path", "approximate_cp", "critical_path.approximate_cp"),
    ("critical_path", "paper_exact_cp", "critical_path.paper_exact_cp"),
    ("critical_path", "longest_path_cp", "critical_path.longest_path_cp"),
    ("cli", "print_circuit", "syntax.print_circuit"),
    ("cli", "emit_report", "report.emit_report"),
)
ROOT = "cli.main"
CP_LAYERS = ("critical_path.approximate_cp", "critical_path.paper_exact_cp",
             "critical_path.longest_path_cp")


def _count(counts: dict[str, float], name: str, args: tuple, result) -> None:
    """Add one call's work counts (summed over a round; depth is a max)."""
    if name == "syntax.parse":
        counts["syntax.parse.ops"] += len(result.operators)
    elif name == "ir.validate":
        counts["ir.validate.violations"] += len(result)
    elif name in ("syntax.print_circuit", "report.emit_report"):
        counts[f"{name}.bytes"] += len(result.encode())
    elif name == "fixtures.generate_fixture":
        counts["fixtures.generate_fixture.ops_out"] += len(result.operators)
    elif name == "transforms.canonicalize":
        counts["transforms.canonicalize.ops_in"] += len(args[0].operators)
        counts["transforms.canonicalize.ops_out"] += len(result.operators)
    elif name == "transforms.lower_gates":
        counts["transforms.lower_gates.rewritten"] += sum(
            a.kind != b.kind for a, b in zip(args[0].operators, result.operators))
    elif name == "transforms.sectionize":
        graph, capacity, costs = args
        plan = result[1]
        counts["transforms.sectionize.sections"] += plan.section_count
        counts["transforms.sectionize.capacity"] += plan.section_count * capacity
        counts["transforms.sectionize.fcs"] += sum(costs[op.kind.tag].fcs for op in graph.operators)
    elif name in CP_LAYERS:
        key = f"{name}.depth"
        counts[key] = max(counts[key], result.depth)


class _Spans:
    """Timed spans: [name, start, end, parent index or -1]."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        records, stack = self.records, self._stack

        def shim(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(records))
            records.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return shim

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.records)
        for _, start, end, parent in self.records:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.records, child):
            out[name] += end - start - inner
        return out


class _Memory:
    """Peak traced allocation above the span's starting level, per layer,
    plus work counts; a child's peak is part of its parent's."""

    def __init__(self) -> None:
        self.peak_mib: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._frames: list[list[int]] = []   # [start, peak] per open span

    def wrap(self, name: str, fn: Callable) -> Callable:
        frames = self._frames

        def shim(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if frames:
                frames[-1][1] = max(frames[-1][1], peak)
            tracemalloc.reset_peak()
            frame = [current, current]
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                frames.pop()
                frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
                if frames:
                    frames[-1][1] = max(frames[-1][1], frame[1])
                tracemalloc.reset_peak()
            self.peak_mib[name] = max(self.peak_mib[name], (frame[1] - frame[0]) / MIB)
            _count(self.counts, name, args, result)
            return result
        return shim


class InProcessCLI:
    """The CLI of a source tree, loaded into this process."""

    def __init__(self, src: Path):
        sys.path.insert(0, str(src))
        from fabric_est import cli, critical_path, syntax
        self.modules = {"cli": cli, "syntax": syntax, "critical_path": critical_path}
        self.main = cli.main

    def run(self, inv: Invocation, main: Callable) -> tuple[str, int, float]:
        """Output, exit status and wall time of one call of `main`."""
        gc.collect()
        buf = io.StringIO()
        with redirect_stdout(buf):
            start = perf_counter()
            try:
                status = main(list(inv.argv))
            except Exception:   # a crash is a failed invocation, not a crashed benchmark
                traceback.print_exc()
                status = -1
            wall = perf_counter() - start
        return buf.getvalue(), status, wall

    def shimmed_round(self, invocations: list[Invocation], wrap, record) -> None:
        """Run one round with every layer wrapped by `wrap(name, fn)`."""
        saved = [(self.modules[m], attr, getattr(self.modules[m], attr)) for m, attr, _ in LAYERS]
        for (module, attr, fn), (_, _, name) in zip(saved, LAYERS):
            setattr(module, attr, wrap(name, fn))
        try:
            self.round(invocations, wrap(ROOT, self.main), record)
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def round(self, invocations: list[Invocation], main: Callable, record) -> float:
        wall = 0.0
        for inv in invocations:
            out, status, seconds = self.run(inv, main)
            record(inv, out, status)
            wall += seconds
        return wall


def traced_metrics(cli: InProcessCLI, invocations: list[Invocation], seconds: float,
                   min_pairs: int, record) -> tuple[dict[str, float], dict]:
    """Per-layer metrics: the self times of the median traced round, the
    tracing overhead against interleaved untraced rounds, and the peaks
    and counts of one memory pass."""
    cli.round(invocations, cli.main, record)   # warm-up
    untraced: list[float] = []
    traced: list[float] = []
    selfs: list[dict[str, float]] = []
    deadline = perf_counter() + seconds
    while len(traced) < min_pairs or perf_counter() < deadline:
        untraced.append(cli.round(invocations, cli.main, record))
        spans = _Spans()
        cli.shimmed_round(invocations, spans.wrap, record)
        selfs.append(spans.self_times())
        traced.append(sum(selfs[-1].values()))

    memory = _Memory()
    tracemalloc.start()
    try:
        cli.shimmed_round(invocations, memory.wrap, record)
    finally:
        tracemalloc.stop()

    # Self times come from the traced round of median wall, so they add
    # up to trace.traced_s exactly.
    middle = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
    self_s = {n: selfs[middle].get(n, 0.0) for n in [name for _, _, name in LAYERS] + [ROOT]}
    c = memory.counts
    metrics: dict[str, float] = {f"{n}.self_s": v for n, v in self_s.items()}
    parse_s = self_s["syntax.parse"]
    metrics["syntax.parse.ops_per_s"] = c["syntax.parse.ops"] / parse_s if parse_s else 0.0
    canon_in = c["transforms.canonicalize.ops_in"]
    metrics["transforms.canonicalize.removed_frac"] = (
        1 - c["transforms.canonicalize.ops_out"] / canon_in if canon_in else 0.0)
    capacity = c["transforms.sectionize.capacity"]
    metrics["transforms.sectionize.fill_frac"] = (
        c["transforms.sectionize.fcs"] / capacity if capacity else 0.0)
    for key in ("ir.validate.violations", "syntax.print_circuit.bytes",
                "report.emit_report.bytes", "fixtures.generate_fixture.ops_out",
                "transforms.canonicalize.ops_in", "transforms.canonicalize.ops_out",
                "transforms.lower_gates.rewritten", "transforms.sectionize.sections",
                *(f"{n}.depth" for n in CP_LAYERS)):
        metrics[key] = c[key]
    for name in ("critical_path.paper_exact_cp", "critical_path.longest_path_cp"):
        metrics[f"{name}.peak_mb"] = memory.peak_mib[name]
    untraced_s, traced_s = statistics.median(untraced), traced[middle]
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    detail = {"untraced_s": untraced, "traced_s": traced, "self_s": selfs,
              "peak_mib": dict(memory.peak_mib), "counts": dict(c)}
    return metrics, detail
