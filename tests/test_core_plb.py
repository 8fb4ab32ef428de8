"""Tests for PLB architectures, configurations, adder and Figure 5."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.cells.celltypes import make_lut3
from repro.core.adder import (
    AdderFunctions,
    carry_is_majority,
    carry_nd3wi_feasible,
    granular_configs_for_adder,
    granular_full_adder,
    lut_full_adder,
)
from repro.core.configs import (
    best_config,
    builtin_config,
    coverage_summary,
    granular_configs,
    lut_arch_configs,
    mx_functions,
    ndmx_functions,
    xoamx_functions,
)
from repro.core.explorer import (
    CandidatePLB,
    GranularityExplorer,
    paper_candidates,
)
from repro.core.lut_decompose import decompose_lut3, lut3_as_mux_netlist
from repro.core.plb import (
    COMB_AREA_RATIO,
    PLB_AREA_RATIO,
    custom_plb,
    granular_plb,
)
from repro.logic.truthtable import TruthTable, all_functions
from repro.netlist.simulate import random_vectors, simulate


class TestConfigurations:
    def test_coverage_counts(self):
        # Enumerated coverage of the five granular configurations.
        summary = coverage_summary()
        assert summary["ND3"] == 48
        assert summary["MX"] == 62
        assert summary["NDMX"] == 174
        assert summary["XOAMX"] == 224
        assert summary["XOANDMX"] == 254

    def test_union_covers_all_256(self):
        # The granular PLB needs no LUT: every 3-input function has a
        # configuration.
        union = set()
        for config in granular_configs():
            union |= config.functions
        assert len(union) == 256

    def test_configs_ordered_by_area(self):
        configs = granular_configs()
        assert configs[0].area <= configs[-1].area

    def test_xor3_in_xoamx(self):
        # "two 2:1 MUXes and an inverter"
        a, b, c = TruthTable.inputs(3)
        assert (a ^ b ^ c) in xoamx_functions()
        assert ~(a ^ b ^ c) in xoamx_functions()

    def test_ndmx_superset_of_mx(self):
        assert mx_functions() <= ndmx_functions()

    def test_best_config_prefers_cheap(self):
        a, b, c = TruthTable.inputs(3)
        chosen = best_config(~(a & b & c), granular_configs())
        assert chosen.name == "ND3"

    def test_best_config_none_for_wide(self):
        assert best_config(TruthTable(4, 0x6996), granular_configs()) is None

    def test_lut_arch_configs(self):
        names = {c.name for c in lut_arch_configs()}
        assert names == {"ND3", "LUT3"}
        lut3 = [c for c in lut_arch_configs() if c.name == "LUT3"][0]
        assert len(lut3.functions) == 256


class TestPLBArchitectures:
    def test_area_ratios_exact(self, lut_arch, gran_arch):
        # The paper's two published ratios hold exactly by calibration.
        assert gran_arch.area / lut_arch.area == pytest.approx(PLB_AREA_RATIO)
        assert gran_arch.combinational_area / lut_arch.combinational_area == (
            pytest.approx(COMB_AREA_RATIO)
        )

    def test_lut_plb_slots(self, lut_arch):
        assert lut_arch.slots["LUT3"] == 1
        assert lut_arch.slots["ND3WI"] == 2
        assert lut_arch.slots["DFF"] == 1

    def test_granular_plb_slots(self, gran_arch):
        # Three muxes (2 plain + XOA), one ND3WI, one DFF.
        assert gran_arch.slots["MUX2"] + gran_arch.slots["XOA"] == 3
        assert gran_arch.slots["ND3WI"] == 1
        assert gran_arch.slots["DFF"] == 1

    def test_nd2_flexibility(self, gran_arch, lut_arch):
        # The packing flexibility of Section 3.2: an ND2WI can occupy a
        # mux slot in the granular PLB.
        assert "MUX2" in gran_arch.hosting_slots("ND2WI")
        assert gran_arch.hosting_slots("ND2WI")[0] == "ND3WI"
        assert lut_arch.hosting_slots("ND2WI") == ("ND3WI",)

    def test_buffers_are_free_slots(self, gran_arch):
        assert gran_arch.hosting_slots("INV") == ("POLBUF",)
        assert gran_arch.slot_cells["POLBUF"].area == 0.0

    def test_unknown_cell_has_no_slots(self, gran_arch):
        assert gran_arch.hosting_slots("LUT3") == ()

    def test_tile_side(self, gran_arch):
        assert gran_arch.tile_side == pytest.approx(gran_arch.area ** 0.5)

    def test_pickles_by_reference(self, gran_arch, lut_arch):
        """The built-in architectures, configurations and component cells
        load as this process's objects; anything else loads as an equal
        copy, pickled the same whatever order its tables were added in."""
        for arch in (gran_arch, lut_arch):
            assert pickle.loads(pickle.dumps(arch)) is arch
        custom = pickle.loads(pickle.dumps(custom_plb("c", {"MUX2": 2})))
        assert [c.name for c in custom.configs] == ["MX", "XOAMX"]
        assert all(c is builtin_config(c.name) for c in custom.configs)
        assert custom.slot_cells["MUX2"] is gran_arch.slot_cells["MUX2"]
        tables = [TruthTable(3, mask) for mask in range(256)]
        shrunk = set(tables)
        shrunk.difference_update(tables[100:])
        first, second = (
            replace(make_lut3(), name="SUBLUT", feasible=frozenset(built))
            for built in (tables[:100], shrunk)
        )
        assert list(first.feasible) != list(second.feasible)
        assert pickle.dumps(first) == pickle.dumps(second)
        assert pickle.loads(pickle.dumps(first)) == first
        config = replace(granular_configs()[1], name="MINE")
        assert pickle.loads(pickle.dumps(config)) == config


class TestFullAdder:
    def test_functions(self):
        funcs = AdderFunctions.build()
        assert funcs.sum_table(1, 1, 1) == 1
        assert funcs.carry_table(1, 1, 0) == 1
        assert funcs.carry_table(1, 0, 0) == 0

    def test_carry_is_majority(self):
        assert carry_is_majority()

    def test_carry_not_nd3wi(self):
        # Why the LUT PLB cannot pack a full adder: carry needs the LUT.
        assert not carry_nd3wi_feasible()

    def test_granular_adder_simulates(self):
        net = granular_full_adder()
        vectors = random_vectors(net.inputs, n_words=1, seed=0)
        values = simulate(net, vectors)[0]
        a, b, cin = vectors["a"], vectors["b"], vectors["cin"]
        results = [values[o] for o in net.outputs]
        assert any(np.array_equal(r, a ^ b ^ cin) for r in results)
        assert any(
            np.array_equal(r, (a & b) | (cin & (a ^ b))) for r in results
        )

    def test_lut_adder_simulates(self):
        net = lut_full_adder()
        vectors = random_vectors(net.inputs, n_words=1, seed=1)
        values = simulate(net, vectors)[0]
        a, b, cin = vectors["a"], vectors["b"], vectors["cin"]
        results = [values[o] for o in net.outputs]
        assert any(np.array_equal(r, a ^ b ^ cin) for r in results)

    def test_granular_adder_fits_one_plb(self, gran_arch):
        # 3 mux-class cells + 1 ND3WI + polarity buffers.
        from collections import Counter

        net = granular_full_adder()
        counts = Counter(i.cell.name for i in net.instances.values())
        assert counts["MUX2"] + counts["XOA"] <= 3
        assert counts["ND3WI"] <= 1
        assert counts["INV"] <= gran_arch.slots["POLBUF"]

    def test_lut_adder_needs_two_luts(self):
        from collections import Counter

        net = lut_full_adder()
        counts = Counter(i.cell.name for i in net.instances.values())
        assert counts["LUT3"] == 2

    def test_adder_config_names(self):
        sum_config, carry_config = granular_configs_for_adder()
        assert sum_config == "XOAMX"
        assert carry_config in ("XOAMX", "XOANDMX", "NDMX")


class TestFigure5:
    def test_all_256_decompose(self):
        for table in all_functions(3):
            assert decompose_lut3(table).evaluate() == table

    def test_netlist_form_equivalent(self):
        for mask in (0x96, 0xE8, 0x17, 0x3C, 0x01, 0xFE):
            table = TruthTable(3, mask)
            net = lut3_as_mux_netlist(table)
            vectors = random_vectors(net.inputs, n_words=1, seed=mask)
            values = simulate(net, vectors)[0]
            expected = np.zeros_like(vectors["a"])
            for row in range(8):
                if not (table.mask >> row) & 1:
                    continue
                term = ~np.zeros_like(vectors["a"])
                for i, name in enumerate(("a", "b", "c")):
                    bit = vectors[name]
                    term &= bit if (row >> i) & 1 else ~bit
                expected |= term
            assert np.array_equal(values[net.outputs[0]], expected)

    def test_uses_exactly_three_muxes(self):
        from collections import Counter

        net = lut3_as_mux_netlist(TruthTable(3, 0x96))
        counts = Counter(i.cell.name for i in net.instances.values())
        assert counts["MUX2"] == 3

    def test_arity_guard(self):
        with pytest.raises(ValueError):
            decompose_lut3(TruthTable(2, 6))


class TestExplorer:
    def test_paper_architectures_evaluated(self):
        explorer = GranularityExplorer()
        ranked = explorer.rank(paper_candidates())
        names = [metrics.name for _c, metrics, _s in ranked]
        # The paper's conclusion: the granular PLB wins.
        assert names[0] == "granular_plb"

    def test_granular_covers_all_without_lut(self):
        explorer = GranularityExplorer()
        metrics = explorer.evaluate(
            CandidatePLB("g", {"MUX2": 2, "XOA": 1, "ND3WI": 1, "DFF": 1})
        )
        assert metrics.lut_free_coverage == 256
        assert metrics.full_adder_in_one_plb

    def test_lut_plb_metrics(self):
        explorer = GranularityExplorer()
        metrics = explorer.evaluate(
            CandidatePLB("l", {"LUT3": 1, "ND3WI": 2, "DFF": 1})
        )
        assert metrics.lut_free_coverage == 48  # ND3WI only
        assert metrics.total_coverage == 256
        assert not metrics.full_adder_in_one_plb

    def test_mux_only_incomplete(self):
        explorer = GranularityExplorer()
        metrics = explorer.evaluate(CandidatePLB("m", {"MUX2": 2, "XOA": 1}))
        assert metrics.total_coverage < 256

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError):
            CandidatePLB("bad", {"FOO": 1}).component_cells()

    def test_sequential_fraction(self):
        explorer = GranularityExplorer()
        light = explorer.evaluate(CandidatePLB("a", {"MUX2": 3, "DFF": 1}))
        heavy = explorer.evaluate(CandidatePLB("b", {"MUX2": 3, "DFF": 3}))
        assert heavy.sequential_fraction > light.sequential_fraction
