"""Report rendering: text tables and JSON documents.

Both renderers are deterministic: the same inputs produce byte-identical
output.  The text table suppresses zero-FC rows; the JSON document keeps
the full per-tag map in tag declaration order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .cost import ResourceReport
from .critical_path import CriticalPathResult, Method, ThroughputResult
from .ir import OpTag


@dataclass(frozen=True)
class RunManifest:
    """Echo of one driver invocation, embedded in JSON output so a report
    records how it was produced."""

    input: str
    passes: tuple[str, ...] = ()
    config: str = "paper-default"
    format: str = "text"
    exit_status: int = 0


def _row(label: str, value: object) -> str:
    return f"{label}  {value}"


def _cp_line(cp: CriticalPathResult) -> str:
    return (
        f"Critical Path ({cp.method.value}): "
        f"depth {cp.depth}, latency {cp.latency_unit_time:g}"
    )


def render_text(
    resources: ResourceReport | None,
    critical_paths: tuple[CriticalPathResult, ...] = (),
    throughput: tuple[int, ThroughputResult] | None = None,
) -> str:
    lines: list[str] = []
    if resources is not None:
        rows = [
            (tag.label, fcs)
            for tag, fcs in resources.per_kind_fcs.items()
            if fcs
        ]
        rows.sort(key=lambda r: r[0])
        for label, fcs in rows:
            lines.append(_row(f"{label} (FCs)", fcs))
        lines.append(_row("Total FCs", resources.total_fcs))
        if resources.total_hbm_bytes:
            lines.append(_row("Total HBM Bytes", resources.total_hbm_bytes))
        if resources.total_ddr_bytes:
            lines.append(_row("Total DDR Bytes", resources.total_ddr_bytes))
        if resources.total_tiles:
            lines.append(_row("Total Tiles", resources.total_tiles))
        lines.append(_row("Total Mx2 Chips", resources.chips))
        lines.append(_row("Total Mx8 Boards", resources.boards))
    for cp in critical_paths:
        lines.append(_cp_line(cp))
    if throughput is not None:
        batch, result = throughput
        lines.append(
            f"Throughput @ batch {batch}: {result.outputs_per_batch_window}"
        )
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def _resources_json(resources: ResourceReport) -> dict:
    return {
        "function": resources.function_name,
        "op_count": resources.op_count,
        "per_kind_fcs": {
            tag.value: resources.per_kind_fcs.get(tag, 0) for tag in OpTag
        },
        "total_fcs": resources.total_fcs,
        "total_hbm_bytes": resources.total_hbm_bytes,
        "total_ddr_bytes": resources.total_ddr_bytes,
        "total_tiles": resources.total_tiles,
        "chips": resources.chips,
        "boards": resources.boards,
    }


def _cp_json(cp: CriticalPathResult) -> dict:
    return {
        "method": cp.method.value,
        "ops": list(cp.ops),
        "depth": cp.depth,
        "latency_unit_time": cp.latency_unit_time,
    }


def render_json(
    manifest: RunManifest,
    resources: ResourceReport | None,
    critical_paths: tuple[CriticalPathResult, ...] = (),
    throughput: tuple[int, ThroughputResult, Method] | None = None,
) -> str:
    doc = {
        "manifest": {
            "input": manifest.input,
            "passes": list(manifest.passes),
            "config": manifest.config,
            "format": manifest.format,
            "exit_status": manifest.exit_status,
        },
        "resources": _resources_json(resources) if resources is not None else None,
        "critical_path": [_cp_json(cp) for cp in critical_paths],
        "throughput": None,
    }
    if throughput is not None:
        batch, result, method = throughput
        doc["throughput"] = {
            "method": method.value,
            "batch": batch,
            "latency_unit_time": result.latency_unit_time,
            "outputs_per_batch_window": result.outputs_per_batch_window,
        }
    return json.dumps(doc, indent=2) + "\n"


def emit_report(
    manifest: RunManifest,
    resources: ResourceReport | None,
    critical_paths: tuple[CriticalPathResult, ...] = (),
    throughput: tuple[int, ThroughputResult, Method] | None = None,
) -> str:
    """Render one report in the manifest's format ('text' or 'json')."""
    if manifest.format == "json":
        return render_json(manifest, resources, critical_paths, throughput)
    text_tp = (throughput[0], throughput[1]) if throughput is not None else None
    return render_text(resources, critical_paths, text_tp)
