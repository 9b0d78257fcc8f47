"""Command-line driver.

Single-file pipeline: read (or generate) a circuit, apply the requested
transforms in the order their flags appear, then emit the requested
estimates as a text table or a JSON document.

Exit codes: 0 success, 1 input or processing failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cost import (
    ConfigError,
    PAPER_DEFAULT_PROFILE,
    estimate,
    load_config,
    load_profile,
)
from .critical_path import Method, compute, throughput
from .fixtures import FixtureError, generate_fixture, parse_fixture_spec
from .report import RunManifest, emit_report
from .syntax import ParseError, parse, print_circuit
from .transforms import TransformError, canonicalize, lower_gates, sectionize


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fabric-est",
        description="Resource and critical-path estimation for operator circuits.",
        allow_abbrev=False,
    )
    p.add_argument("input", nargs="?", help="circuit file (.scifr)")
    p.add_argument(
        "--fixture",
        metavar="NAME",
        help="generate a built-in circuit instead of reading a file"
        " (NAME, NAME:n, or NAME(n))",
    )
    p.add_argument(
        "-o",
        "--output",
        metavar="PATH",
        help="write the generated fixture to PATH (requires --fixture)",
    )
    p.set_defaults(passes=[])
    p.add_argument("--lower-gates", action="append_const", dest="passes",
                   const="lower-gates",
                   help="rewrite named gates to LUT linear-combination form")
    p.add_argument("--canonicalize", action="append_const", dest="passes",
                   const="canonicalize",
                   help="dead-code elimination, Not-Not removal, gate fusion")
    p.add_argument("--sectionize", action="append_const", dest="passes",
                   const="sectionize",
                   help="pack operators into capacity-bounded sections")
    p.add_argument("--capacity", type=int, metavar="N",
                   help="section FC capacity (requires --sectionize;"
                   " default: usable FCs of one chip)")
    p.add_argument("--cggi-estimate", "--cggi-tigris-estimator",
                   action="store_true", dest="cggi_estimate",
                   help="estimate resources; the graph must be pure Boolean")
    p.add_argument("--ckks-estimate", "--ckks-tigris-estimate",
                   action="store_true", dest="ckks_estimate",
                   help="estimate resources; the graph must be pure CKKS")
    p.add_argument("--critical-path", action="store_true",
                   help="report critical-path depth and latency")
    p.add_argument("--method",
                   choices=["approx", "paper-exact", "longest", "all"],
                   help="critical-path method (requires --critical-path;"
                   " default all)")
    p.add_argument("--throughput", action="store_true",
                   help="report steady-state outputs per batch window")
    p.add_argument("--batch", type=int, metavar="N",
                   help="batch size for --throughput")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--config", metavar="PATH",
                        help="hardware model JSON file")
    source.add_argument("--profile", choices=[PAPER_DEFAULT_PROFILE],
                        help="built-in hardware model")
    p.add_argument("--emit", choices=["text", "json"], default="text",
                   help="report format (default text)")
    p.add_argument("--print-ir", action="store_true",
                   help="print the (transformed) circuit before the report")
    return p


class _Failure(Exception):
    """A failure the driver finds itself; main reports it like a library error."""


# The dialect each estimate flag requires: its spelling, dialect and label.
_DIALECTS = {
    "cggi_estimate": ("--cggi-estimate", "bool", "Boolean"),
    "ckks_estimate": ("--ckks-estimate", "ckks", "CKKS"),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)

        if args.input and args.fixture:
            parser.error("give either an input file or --fixture, not both")
        if not args.input and not args.fixture:
            parser.error("an input file or --fixture is required")
        if args.output and not args.fixture:
            parser.error("-o/--output requires --fixture")
        if args.capacity is not None and "sectionize" not in args.passes:
            parser.error("--capacity requires --sectionize")
        if args.method is not None and not args.critical_path:
            parser.error("--method requires --critical-path")
        if args.throughput and args.batch is None:
            parser.error("--throughput requires --batch")
        if args.batch is not None and not args.throughput:
            parser.error("--batch requires --throughput")
        if args.cggi_estimate and args.ckks_estimate:
            parser.error("--cggi-estimate and --ckks-estimate are exclusive")
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        _run(args)
    except ParseError as exc:
        for d in exc.diagnostics:
            print(
                f"{args.input}:{d.span.line}:{d.span.column}:"
                f" error: {d.message}",
                file=sys.stderr,
            )
        return 1
    except (FixtureError, ConfigError, TransformError, _Failure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, FixtureError) else 1  # a bad fixture is a usage error
    return 0


def _run(args: argparse.Namespace) -> None:
    """Load the config, get the graph, run the passes in flag order, then
    the estimate, critical paths and throughput, and write the output."""
    if args.config is not None:
        config, costs = load_config(Path(args.config))
        config_label = args.config
    else:
        config_label = args.profile or PAPER_DEFAULT_PROFILE
        config, costs = load_profile(config_label)

    if args.fixture:
        name, param = parse_fixture_spec(args.fixture)
        graph = generate_fixture(name, param)
        if args.output:
            try:
                Path(args.output).write_text(print_circuit(graph))
            except OSError as exc:
                raise _Failure(f"cannot write '{args.output}': {exc}") from exc
    else:
        try:
            text = Path(args.input).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise _Failure(f"cannot read '{args.input}': {exc}") from exc
        graph = parse(text)

    for name in args.passes:
        if name == "lower-gates":
            graph = lower_gates(graph)
        elif name == "canonicalize":
            graph = canonicalize(graph)
        else:
            capacity = (
                args.capacity
                if args.capacity is not None
                else config.usable_fcs_per_chip
            )
            graph, _plan = sectionize(graph, capacity, costs)

    resources = None
    for dest, (flag, dialect, label) in _DIALECTS.items():
        if getattr(args, dest):
            bad = next((op for op in graph.operators if op.kind.tag.dialect != dialect), None)
            if bad is not None:
                raise _Failure(
                    f"{flag}: graph uses non-{label} op"
                    f" '{bad.kind.tag.opname}' (op {bad.id})"
                )
            resources = estimate(graph, config, costs)
    # --method requires --critical-path, so a chosen method is also the
    # one throughput reads.
    method = None if args.method in (None, "all") else Method(args.method)
    cp_results: tuple = ()
    if args.critical_path:
        selected = list(Method) if method is None else [method]
        cp_results = tuple(
            compute(graph, m, config.unit_time_per_gate) for m in selected
        )
    tp = None
    if args.throughput:
        tp_method = method or Method.LONGEST_PATH
        cached = next((c for c in cp_results if c.method is tp_method), None)
        depth = (
            cached.depth
            if cached is not None
            else compute(graph, tp_method, config.unit_time_per_gate).depth
        )
        try:
            tp = (args.batch, throughput(depth, args.batch, config), tp_method)
        except ValueError as exc:
            raise _Failure(str(exc)) from exc

    if args.print_ir:
        sys.stdout.write(print_circuit(graph))

    manifest = RunManifest(
        input=args.input or f"fixture:{args.fixture}",
        passes=tuple(args.passes),
        config=config_label,
        format=args.emit,
        exit_status=0,
    )
    sys.stdout.write(emit_report(manifest, resources, cp_results, tp))


if __name__ == "__main__":
    raise SystemExit(main())
