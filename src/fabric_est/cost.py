"""Hardware cost model: fabric parameters, per-operator resource costs,
and cumulative resource estimation.

Resources are counted in functional compute units (FCs) plus optional
HBM/DDR byte and tile footprints.  A chip exposes `fcs_per_chip` FCs of
which only an `occupancy` fraction is usable for logic (the rest is
routing/placement headroom); chips aggregate onto boards.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .ir import BOOL_TAGS, CircuitGraph, OpTag

PAPER_DEFAULT_PROFILE = "paper-default"


class ConfigError(Exception):
    """Raised for malformed or incomplete cost configurations."""


@dataclass(frozen=True)
class ResourceCost:
    """Per-operator resource footprint; omitted fields default to zero."""

    fcs: int = 0
    hbm_bytes: int = 0
    ddr_bytes: int = 0
    tiles: int = 0


@dataclass(frozen=True)
class FabricConfig:
    """Fabric-level parameters of the target accelerator."""

    fcs_per_chip: int = 4096
    occupancy: float = 0.5
    chips_per_board: int = 4
    unit_time_per_gate: float = 1.0

    @property
    def usable_fcs_per_chip(self) -> int:
        return math.floor(self.fcs_per_chip * self.occupancy)


class CostTable:
    """Per-tag resource costs; every tag of both dialects must be present."""

    def __init__(self, entries: Mapping[OpTag, ResourceCost]):
        for tag in OpTag:
            if tag not in entries:
                raise ConfigError(f"missing cost for op '{tag.value}'")
        self._entries = {tag: entries[tag] for tag in OpTag}

    def __getitem__(self, tag: OpTag) -> ResourceCost:
        return self._entries[tag]


def paper_default() -> tuple[FabricConfig, CostTable]:
    """The built-in profile: 256 FCs per bootstrapped Boolean op, 16 for
    Not, 512 for every CKKS op; no memory or tile footprints."""
    entries = {}
    for tag in OpTag:
        if tag is OpTag.NOT:
            fcs = 16
        elif tag in BOOL_TAGS:
            fcs = 256
        else:
            fcs = 512
        entries[tag] = ResourceCost(fcs=fcs)
    return FabricConfig(), CostTable(entries)


_PROFILES = {PAPER_DEFAULT_PROFILE: paper_default}


def load_profile(name: str) -> tuple[FabricConfig, CostTable]:
    if name not in _PROFILES:
        known = ", ".join(sorted(_PROFILES))
        raise ConfigError(f"unknown profile '{name}' (known: {known})")
    return _PROFILES[name]()


_FABRIC_FIELDS = ("fcs_per_chip", "occupancy", "chips_per_board", "unit_time_per_gate")
_COST_FIELDS = ("fcs", "hbm_bytes", "ddr_bytes", "tiles")
_TAG_BY_NAME = {tag.value: tag for tag in OpTag}


def _require_int(value: object, what: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{what} must be >= {minimum}, got {value}")
    return value


def reportable(value: int | float, field: str) -> int | float:
    """The rule for every number a report derives from the config: it
    must be finite, and an integer must be short enough for str() to
    write.  Otherwise a ConfigError names the field."""
    if isinstance(value, float):
        ok = math.isfinite(value)
    else:
        # 0, or an interpreter without the function: str() has no limit.
        limit = getattr(sys, "get_int_max_str_digits", int)()
        # 2**(3 * limit) < 10**limit, so the exact test is for huge values only.
        ok = not limit or value.bit_length() < 3 * limit or abs(value) < 10**limit
    if not ok:
        raise ConfigError(f"{field} is too large to report")
    return value


def _as_float(value: int | float, what: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{what} is too large for a float") from None


def _config_from_dict(doc: object) -> tuple[FabricConfig, CostTable]:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - {"fabric", "costs"}
    if unknown:
        raise ConfigError(f"unknown config section '{sorted(unknown)[0]}'")

    fabric_doc = doc.get("fabric", {})
    if not isinstance(fabric_doc, dict):
        raise ConfigError("'fabric' must be an object")
    for key in fabric_doc:
        if key not in _FABRIC_FIELDS:
            raise ConfigError(f"unknown fabric field '{key}'")
    fields = {}
    if "fcs_per_chip" in fabric_doc:
        fields["fcs_per_chip"] = _require_int(fabric_doc["fcs_per_chip"], "fcs_per_chip", 1)
        _as_float(fields["fcs_per_chip"], "fcs_per_chip")  # usable_fcs_per_chip scales it
    if "occupancy" in fabric_doc:
        occ = fabric_doc["occupancy"]
        if isinstance(occ, bool) or not isinstance(occ, (int, float)):
            raise ConfigError(f"occupancy must be a number, got {occ!r}")
        if not 0 < occ <= 1:
            raise ConfigError("occupancy must be in (0,1]")
        fields["occupancy"] = float(occ)
    if "chips_per_board" in fabric_doc:
        fields["chips_per_board"] = _require_int(fabric_doc["chips_per_board"], "chips_per_board", 1)
    if "unit_time_per_gate" in fabric_doc:
        ut = fabric_doc["unit_time_per_gate"]
        if isinstance(ut, bool) or not isinstance(ut, (int, float)) or not 0 < ut < math.inf:
            raise ConfigError(f"unit_time_per_gate must be a positive number, got {ut!r}")
        fields["unit_time_per_gate"] = _as_float(ut, "unit_time_per_gate")
    config = FabricConfig(**fields)
    if config.usable_fcs_per_chip < 1:
        raise ConfigError(
            f"usable FCs per chip is {config.usable_fcs_per_chip}; "
            "raise fcs_per_chip or occupancy"
        )

    costs_doc = doc.get("costs", {})
    if not isinstance(costs_doc, dict):
        raise ConfigError("'costs' must be an object")
    entries: dict[OpTag, ResourceCost] = {}
    for key, cost_doc in costs_doc.items():
        tag = _TAG_BY_NAME.get(key)
        if tag is None:
            raise ConfigError(f"unknown op tag '{key}'")
        if not isinstance(cost_doc, dict):
            raise ConfigError(f"cost for op '{key}' must be an object")
        for ckey in cost_doc:
            if ckey not in _COST_FIELDS:
                raise ConfigError(f"unknown cost field '{ckey}' for op '{key}'")
        entries[tag] = ResourceCost(
            **{f: _require_int(cost_doc[f], f"{key}.{f}") for f in _COST_FIELDS if f in cost_doc}
        )
    return config, CostTable(entries)


def load_config(source: str | Path) -> tuple[FabricConfig, CostTable]:
    """Load a config from a JSON file path or a JSON text string.

    A plain string starting with '{' is treated as JSON text; anything
    else is read as a file path.
    """
    if not isinstance(source, Path) and source.lstrip().startswith("{"):
        text = source
    else:
        path = Path(source)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past int_max_str_digits
        raise ConfigError(f"malformed JSON config: {exc}") from exc
    return _config_from_dict(doc)


@dataclass(frozen=True)
class ResourceReport:
    """Cumulative resource estimate for one graph."""

    function_name: str
    op_count: int
    per_kind_fcs: dict[OpTag, int] = field(compare=False)
    total_fcs: int = 0
    total_hbm_bytes: int = 0
    total_ddr_bytes: int = 0
    total_tiles: int = 0
    chips: int = 1
    boards: int = 1


def estimate(graph: CircuitGraph, config: FabricConfig, costs: CostTable) -> ResourceReport:
    """Sum per-operator costs and derive chip/board counts.

    Chips = ceil(total FCs / usable FCs per chip), at least one even for
    an empty graph; boards = ceil(chips / chips_per_board).
    """
    counts = Counter(op.kind.tag for op in graph.operators)
    per_kind_fcs = {tag: counts.get(tag, 0) * costs[tag].fcs for tag in OpTag}
    # Costs are non-negative, so each total bounds its per-kind values and
    # total_fcs bounds the chip and board counts.
    totals = {
        f"total_{name}": reportable(
            sum(n * getattr(costs[tag], name) for tag, n in counts.items()), f"total_{name}"
        )
        for name in _COST_FIELDS
    }
    chips = max(1, -(-totals["total_fcs"] // config.usable_fcs_per_chip))
    boards = -(-chips // config.chips_per_board)
    return ResourceReport(
        function_name=graph.name,
        op_count=len(graph.operators),
        per_kind_fcs=per_kind_fcs,
        **totals,
        chips=chips,
        boards=boards,
    )
