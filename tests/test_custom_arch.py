"""Tests for custom PLB architectures through the full flow.

The paper's future work, implemented: arbitrary component mixes become
runnable architectures with generated libraries, compatibility tables,
realization structures and calibrated interconnect overhead.
"""

import pytest

from repro.core.plb import custom_plb, granular_plb, interconnect_overhead, lut_plb
from repro.flow.flow import FlowOptions, architecture_of, register_architecture, run_design
from repro.netlist.simulate import outputs_equal
from repro.synth.realize import compaction_table, table_for_cells

from conftest import make_ripple_design

FAST = FlowOptions(place_effort=0.05, place_iterations=1, pack_iterations=1)


class TestConstruction:
    def test_paper_architectures_match_model(self):
        # The fitted overhead model reproduces both calibrated points.
        assert interconnect_overhead(3) == pytest.approx(
            lut_plb().comb_overhead, rel=0.05
        )
        assert interconnect_overhead(4) == pytest.approx(
            granular_plb().comb_overhead, rel=0.05
        )

    def test_custom_slots_and_compat(self):
        arch = custom_plb("t1", {"MUX2": 2, "ND3WI": 2, "DFF": 1})
        assert arch.slots["MUX2"] == 2
        assert arch.hosting_slots("ND2WI")  # can live in nd3/mux slots
        assert arch.hosting_slots("INV") == ("POLBUF",)
        assert "MUX2" in arch.library and "LUT3" not in arch.library

    def test_lut_only_custom(self):
        arch = custom_plb("t2", {"LUT3": 2, "DFF": 1})
        assert arch.hosting_slots("LUT3") == ("LUT3",)
        assert arch.hosting_slots("ND2WI") == ("LUT3",)

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError):
            custom_plb("bad", {"SRAM": 4})

    def test_overhead_grows_with_granularity(self):
        small = custom_plb("s", {"MUX2": 1, "DFF": 1})
        big = custom_plb("b", {"MUX2": 4, "ND3WI": 2, "DFF": 1})
        assert big.comb_overhead > small.comb_overhead

    def test_area_positive(self):
        arch = custom_plb("t3", {"MUX2": 3, "XOA": 1, "ND3WI": 1, "DFF": 2})
        assert arch.area > arch.combinational_area > 0


class TestRealizationTables:
    def test_mux_only_table_has_no_nd3(self):
        table = table_for_cells(
            frozenset({"INV", "BUF", "ND2WI", "MUX2"}), composite=True
        )
        structures = {r.structure for r in table.values()}
        assert "ND3" not in structures
        assert "MX" in structures

    def test_custom_library_resolves_table(self):
        arch = custom_plb("t4", {"MUX2": 2, "XOA": 1, "ND3WI": 1, "DFF": 1})
        table = compaction_table(arch.library)
        structures = {r.structure for r in table.values()}
        assert {"MX", "NDMX", "XOAMX", "XOANDMX"} <= structures

    def test_inner_mux_falls_back_without_xoa(self):
        table = table_for_cells(
            frozenset({"INV", "BUF", "ND2WI", "ND3WI", "MUX2"}), composite=True
        )
        xoamx = [r for r in table.values() if r.structure == "XOAMX"]
        assert xoamx
        for realization in xoamx:
            assert all(s.cell_name != "XOA" for s in realization.steps)


class TestFlowIntegration:
    def test_registration_and_lookup(self):
        arch = custom_plb("reg_test", {"MUX2": 2, "ND3WI": 1, "DFF": 1})
        register_architecture(arch)
        assert architecture_of("reg_test") is arch
        assert architecture_of(arch) is arch

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            architecture_of("never_registered")

    @pytest.mark.parametrize("name", ["lut", "granular"])
    def test_builtin_name_cannot_be_registered(self, name):
        impostor = custom_plb(name, {"MUX2": 3, "DFF": 1})
        with pytest.raises(ValueError, match="reserved"):
            register_architecture(impostor)
        with pytest.raises(ValueError, match="reserved"):
            run_design(make_ripple_design(), impostor, FAST)
        builtin = lut_plb() if name == "lut" else granular_plb()
        assert architecture_of(name) is builtin

    def test_builtin_instance_runs_without_registration(self):
        run = run_design(make_ripple_design(), lut_plb(), FAST)
        assert run.arch_name == run.flow_b.arch_name == "lut"

    @pytest.mark.parametrize("slots", [
        {"MUX2": 2, "XOA": 1, "ND3WI": 1, "DFF": 2},   # seq-leaning granular
        {"MUX2": 3, "ND3WI": 1, "DFF": 1},             # no XOA
        {"LUT3": 1, "MUX2": 1, "ND3WI": 1, "DFF": 1},  # hybrid LUT+mux
    ])
    def test_full_flow_on_custom_arch(self, slots):
        name = "custom_" + "_".join(f"{k}{v}" for k, v in sorted(slots.items()))
        arch = custom_plb(name, slots)
        src = make_ripple_design(width=4, name="customflow")
        run = run_design(src.copy(), arch, FAST)
        assert outputs_equal(src, run.physical.netlist, n_cycles=3)
        assert run.flow_b.die_area > 0
        assert run.flow_b.plbs_used > 0

    def test_seq_heavy_beats_granular_on_sequential_design(self):
        """The paper's proposed Firewire fix, measured end to end."""
        from repro.flow.experiments import build_design

        seq_heavy = custom_plb(
            "seq_heavy_fw", {"MUX2": 2, "XOA": 1, "ND3WI": 1, "DFF": 3}
        )
        src = build_design("firewire", scale=0.3)
        run_seq = run_design(src.copy(), seq_heavy, FAST)
        run_gran = run_design(src.copy(), "granular", FAST)
        assert run_seq.flow_b.die_area < run_gran.flow_b.die_area
