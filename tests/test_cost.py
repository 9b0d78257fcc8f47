"""Hardware model: cost tables, config loading, resource estimation."""

import json
import math
import random
import sys

import pytest

import genutil
from fabric_est import (
    ConfigError,
    CostTable,
    FabricConfig,
    GraphBuilder,
    OpKind,
    OpTag,
    ResourceCost,
    ValueType,
    estimate,
    generate_fixture,
    load_config,
    load_profile,
    paper_default,
)
from fabric_est.critical_path import Method, compute, throughput


def full_costs(fcs=256, overrides=None):
    table = {tag: ResourceCost(fcs=fcs) for tag in OpTag}
    table.update(overrides or {})
    return CostTable(table)


class TestFabricConfig:
    def test_defaults(self):
        c = FabricConfig()
        assert c.fcs_per_chip == 4096
        assert c.occupancy == 0.5
        assert c.chips_per_board == 4
        assert c.unit_time_per_gate == 1.0

    def test_usable_fcs(self):
        assert FabricConfig().usable_fcs_per_chip == 2048
        assert FabricConfig(fcs_per_chip=1000, occupancy=0.33).usable_fcs_per_chip == 330


class TestPaperDefault:
    def test_profile_costs(self):
        _, costs = paper_default()
        assert costs[OpTag.NOT].fcs == 16
        for tag in (OpTag.AND, OpTag.XOR, OpTag.LUT3, OpTag.MULTI_LUT_LINCOMB):
            assert costs[tag].fcs == 256
        for tag in (OpTag.ADD, OpTag.MUL_PLAIN, OpTag.RESCALE):
            assert costs[tag].fcs == 512
        assert costs[OpTag.AND].hbm_bytes == 0
        assert costs[OpTag.AND].tiles == 0

    def test_load_profile(self):
        config, costs = load_profile("paper-default")
        assert config == FabricConfig()
        assert costs[OpTag.NAND].fcs == 256

    def test_unknown_profile(self):
        with pytest.raises(ConfigError, match="unknown profile"):
            load_profile("slim")

    def test_cost_table_requires_all_tags(self):
        table = {tag: ResourceCost(fcs=1) for tag in OpTag if tag is not OpTag.XOR}
        with pytest.raises(ConfigError, match="missing cost for op 'xor'"):
            CostTable(table)


class TestEstimate:
    def test_half_adder(self):
        config, costs = paper_default()
        r = estimate(generate_fixture("half-adder"), config, costs)
        assert r.total_fcs == 512
        assert r.chips == 1
        assert r.boards == 1
        assert r.op_count == 2
        assert r.per_kind_fcs[OpTag.AND] == 256
        assert r.per_kind_fcs[OpTag.XOR] == 256
        assert r.per_kind_fcs[OpTag.NOT] == 0

    def test_and_gate(self):
        config, costs = paper_default()
        r = estimate(generate_fixture("and-gate"), config, costs)
        assert (r.total_fcs, r.chips, r.boards) == (1024, 1, 1)

    def test_table3_mult8(self):
        config, costs = paper_default()
        r = estimate(generate_fixture("table3-mult8"), config, costs)
        assert r.per_kind_fcs[OpTag.AND] == 11264
        assert r.per_kind_fcs[OpTag.NAND] == 11264
        assert r.per_kind_fcs[OpTag.XNOR] == 4608
        assert r.per_kind_fcs[OpTag.XOR] == 8960
        assert r.total_fcs == 36096
        assert r.chips == 18
        assert r.boards == 5

    def test_empty_graph_minimum_allocation(self):
        b = GraphBuilder("f")
        b.argument(ValueType.LWE_CIPHERTEXT)
        b.ret()
        config, costs = paper_default()
        r = estimate(b.build(), config, costs)
        assert (r.total_fcs, r.chips, r.boards) == (0, 1, 1)
        assert r.op_count == 0
        assert set(r.per_kind_fcs) == set(OpTag)

    def test_per_kind_covers_all_tags(self):
        config, costs = paper_default()
        r = estimate(generate_fixture("half-adder"), config, costs)
        assert list(r.per_kind_fcs) == list(OpTag)

    def test_memory_totals(self):
        costs = full_costs(
            fcs=10,
            overrides={OpTag.AND: ResourceCost(fcs=10, hbm_bytes=7, ddr_bytes=3, tiles=2)},
        )
        r = estimate(generate_fixture("and-gate"), FabricConfig(), costs)
        assert r.total_hbm_bytes == 28
        assert r.total_ddr_bytes == 12
        assert r.total_tiles == 8

    def test_chip_board_rounding(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 400)
            b = GraphBuilder("f")
            a = b.argument(ValueType.LWE_CIPHERTEXT)
            vals = [a]
            for _ in range(n):
                vals.append(b.op(OpKind(OpTag.NOT), vals[-1]))
            b.ret(vals[-1])
            config = FabricConfig(
                fcs_per_chip=rng.choice([64, 256, 4096]),
                occupancy=rng.choice([0.25, 0.5, 1.0]),
                chips_per_board=rng.choice([1, 4, 8]),
            )
            r = estimate(b.build(), config, full_costs(fcs=16))
            usable = math.floor(config.fcs_per_chip * config.occupancy)
            assert r.chips == max(1, math.ceil(r.total_fcs / usable))
            assert r.boards == math.ceil(r.chips / config.chips_per_board)
            assert r.total_fcs == 16 * n

    def test_boards_count_exactly_past_float_range(self):
        # 1 / 10**400 is 0.0 as a float; the one chip still needs a board
        config = FabricConfig(chips_per_board=10**400)
        r = estimate(generate_fixture("half-adder"), config, full_costs())
        assert (r.chips, r.boards) == (1, 1)

    def test_chips_count_exactly_past_float_precision(self):
        # 2**53 + 1 FCs on one-FC chips: a float quotient drops the last chip
        costs = full_costs(
            overrides={OpTag.AND: ResourceCost(fcs=2**53 + 1), OpTag.XOR: ResourceCost(fcs=0)}
        )
        config = FabricConfig(fcs_per_chip=1, occupancy=1.0, chips_per_board=4)
        r = estimate(generate_fixture("half-adder"), config, costs)
        assert r.total_fcs == r.chips == 2**53 + 1
        assert r.boards == 2**51 + 1

    @pytest.mark.parametrize("field", ["fcs", "hbm_bytes", "ddr_bytes", "tiles"])
    def test_total_past_the_digit_limit(self, field):
        # The half-adder's And and Xor; str() writes 10**limit - 1 but not 10**limit.
        limit = sys.get_int_max_str_digits()
        g = generate_fixture("half-adder")
        config = FabricConfig()

        def costs(and_cost):
            return full_costs(overrides={
                OpTag.AND: ResourceCost(**{field: and_cost}),
                OpTag.XOR: ResourceCost(**{field: 1}),
            })

        r = estimate(g, config, costs(10**limit - 2))
        assert getattr(r, f"total_{field}") == 10**limit - 1
        with pytest.raises(ConfigError, match=f"^total_{field} is too large to report$"):
            estimate(g, config, costs(10**limit - 1))

    def test_latency_past_the_float_range(self):
        config = FabricConfig(unit_time_per_gate=1e308)
        g = generate_fixture("full-adder")
        for method in Method:
            with pytest.raises(ConfigError, match="^latency_unit_time is too large to report$"):
                compute(g, method, config.unit_time_per_gate)
        with pytest.raises(ConfigError, match="^latency_unit_time is too large to report$"):
            throughput(2, 8, config)
        assert throughput(1, 8, config).latency_unit_time == 1e308

    def test_estimate_counts_by_stored_ops(self):
        rng = random.Random(5)
        config, costs = paper_default()
        for _ in range(20):
            g = genutil.random_bool_graph(rng)
            r = estimate(g, config, costs)
            assert r.op_count == len(g.operators)
            assert r.total_fcs == sum(
                costs[op.kind.tag].fcs for op in g.operators
            )


def make_config_doc(**fabric):
    return {
        "fabric": {
            "fcs_per_chip": 4096,
            "occupancy": 0.5,
            "chips_per_board": 4,
            "unit_time_per_gate": 1.0,
            **fabric,
        },
        "costs": {tag.value: {"fcs": 100} for tag in OpTag},
    }


class TestLoadConfig:
    def test_json_text(self):
        config, costs = load_config(json.dumps(make_config_doc()))
        assert config.fcs_per_chip == 4096
        assert costs[OpTag.AND].fcs == 100
        assert costs[OpTag.AND].hbm_bytes == 0  # omitted fields default to 0

    def test_file_path(self, tmp_path):
        path = tmp_path / "hw.json"
        path.write_text(json.dumps(make_config_doc(fcs_per_chip=64)))
        config, _ = load_config(path)
        assert config.fcs_per_chip == 64

    def test_omitted_fabric_fields_default(self):
        doc = {"costs": {tag.value: {"fcs": 1} for tag in OpTag}}
        config, _ = load_config(json.dumps(doc))
        assert config == FabricConfig()

    def test_missing_cost_entry(self):
        doc = make_config_doc()
        del doc["costs"]["xor"]
        with pytest.raises(ConfigError) as info:
            load_config(json.dumps(doc))
        assert str(info.value) == "missing cost for op 'xor'"

    def test_unknown_op_tag(self):
        doc = make_config_doc()
        doc["costs"]["frob"] = {"fcs": 1}
        with pytest.raises(ConfigError) as info:
            load_config(json.dumps(doc))
        assert str(info.value) == "unknown op tag 'frob'"

    def test_cost_entry_must_be_an_object(self):
        doc = make_config_doc()
        doc["costs"]["and"] = 256
        with pytest.raises(ConfigError) as info:
            load_config(json.dumps(doc))
        assert str(info.value) == "cost for op 'and' must be an object"

    @pytest.mark.parametrize("occ", [0, 0.0, -0.5, 1.5])
    def test_occupancy_range(self, occ):
        with pytest.raises(ConfigError) as info:
            load_config(json.dumps(make_config_doc(occupancy=occ)))
        assert str(info.value) == "occupancy must be in (0,1]"

    def test_occupancy_one_is_valid(self):
        config, _ = load_config(json.dumps(make_config_doc(occupancy=1)))
        assert config.usable_fcs_per_chip == 4096

    def test_unknown_fabric_field(self):
        with pytest.raises(ConfigError, match="unknown fabric field 'reticles'"):
            load_config(json.dumps(make_config_doc(reticles=2)))

    def test_unknown_section(self):
        doc = make_config_doc()
        doc["power"] = {}
        with pytest.raises(ConfigError, match="unknown config section 'power'"):
            load_config(json.dumps(doc))

    def test_unknown_cost_field(self):
        doc = make_config_doc()
        doc["costs"]["and"]["watts"] = 5
        with pytest.raises(ConfigError, match="unknown cost field 'watts'"):
            load_config(json.dumps(doc))

    def test_slots_rejected(self):
        # slots was a fabric field that no estimate read; it is gone.
        with pytest.raises(ConfigError, match="unknown fabric field 'slots'"):
            load_config(json.dumps(make_config_doc(slots=8)))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_unit_time_rejected(self, token):
        # json.loads accepts these tokens; the value must still be finite
        text = json.dumps(make_config_doc(unit_time_per_gate=float(token)))
        assert token in text
        with pytest.raises(ConfigError) as info:
            load_config(text)
        assert str(info.value) == (
            f"unit_time_per_gate must be a positive number, got {float(token)!r}"
        )

    @pytest.mark.parametrize("field", ["unit_time_per_gate", "fcs_per_chip"])
    def test_too_large_for_a_float_rejected(self, field):
        # json.loads reads a 401-digit literal as an int no float can hold
        text = json.dumps(make_config_doc(**{field: 10**400}))
        with pytest.raises(ConfigError) as info:
            load_config(text)
        assert str(info.value) == f"{field} is too large for a float"

    def test_integer_past_the_digit_limit_rejected(self):
        # json.loads raises a plain ValueError for a 5000-digit integer
        text = '{"fabric": {"fcs_per_chip": ' + "1" * 5000 + "}}"
        with pytest.raises(ConfigError, match="malformed JSON config: Exceeds the limit"):
            load_config(text)

    def test_non_integer_fields_rejected(self):
        with pytest.raises(ConfigError):
            load_config(json.dumps(make_config_doc(fcs_per_chip="big")))
        with pytest.raises(ConfigError):
            load_config(json.dumps(make_config_doc(fcs_per_chip=True)))

    def test_negative_cost_rejected(self):
        doc = make_config_doc()
        doc["costs"]["and"]["fcs"] = -1
        with pytest.raises(ConfigError):
            load_config(json.dumps(doc))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config file not found"):
            load_config(tmp_path / "nope.json")

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="malformed JSON config"):
            load_config("{not json")

    def test_custom_config_changes_estimate(self):
        doc = {
            "fabric": {"fcs_per_chip": 64, "occupancy": 0.5, "chips_per_board": 4},
            "costs": {tag.value: {"fcs": 100} for tag in OpTag},
        }
        config, costs = load_config(json.dumps(doc))
        r = estimate(generate_fixture("and-gate"), config, costs)
        assert r.total_fcs == 400
        assert r.chips == 13  # ceil(400 / 32)
        assert r.boards == 4  # ceil(13 / 4)
