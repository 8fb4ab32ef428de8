"""Integration tests: extraction, mapping and compaction preserve function."""

import pytest

from repro.cells.library import granular_plb_library, lut_plb_library
from repro.netlist.simulate import outputs_equal
from repro.netlist.stats import gather, total_area
from repro.netlist.validate import check
from repro.synth.compaction import compact
from repro.synth.from_netlist import CombCore, extract_core
from repro.synth.optimize import optimize
from repro.synth.techmap import map_core

from conftest import make_ripple_design


def optimized_core(netlist, effort=1):
    core = extract_core(netlist)
    return CombCore(
        aig=optimize(core.aig, effort=effort),
        primary_inputs=core.primary_inputs,
        primary_outputs=core.primary_outputs,
        dffs=core.dffs,
    )


class TestExtraction:
    def test_ports_preserved(self, ripple_design):
        core = extract_core(ripple_design)
        assert set(core.primary_inputs) == set(ripple_design.inputs)
        assert set(core.primary_outputs) == set(ripple_design.outputs)
        assert len(core.dffs) == 5

    def test_aig_matches_netlist_function(self, comb_design):
        from repro.logic.truthtable import TruthTable
        core = extract_core(comb_design)
        tables = core.aig.output_table()
        # f1 = x[1] ^ y[1] ^ x[2]
        names = core.aig.input_names
        idx = {n: i for i, n in enumerate(names)}
        x1 = TruthTable.input_var(len(names), idx["x[1]"])
        y1 = TruthTable.input_var(len(names), idx["y[1]"])
        x2 = TruthTable.input_var(len(names), idx["x[2]"])
        assert tables["f1"] == (x1 ^ y1 ^ x2)


@pytest.mark.parametrize("arch,libfn", [
    ("lut", lut_plb_library), ("granular", granular_plb_library),
])
class TestMapping:
    def test_sequential_equivalence(self, arch, libfn):
        src = make_ripple_design(width=5)
        mapped = map_core(optimized_core(src), arch, libfn())
        check(mapped)
        assert outputs_equal(src, mapped, n_cycles=4)

    def test_combinational_equivalence(self, arch, libfn, comb_design):
        mapped = map_core(optimized_core(comb_design), arch, libfn())
        check(mapped)
        assert outputs_equal(comb_design, mapped)

    def test_only_library_cells_used(self, arch, libfn, comb_design):
        library = libfn()
        mapped = map_core(optimized_core(comb_design), arch, library)
        for inst in mapped.instances.values():
            assert inst.cell.name in library or inst.cell.name.startswith("CAPTIE")

    def test_output_names_preserved(self, arch, libfn, comb_design):
        mapped = map_core(optimized_core(comb_design), arch, libfn())
        assert sorted(mapped.outputs) == sorted(comb_design.outputs)
        assert sorted(mapped.inputs) == sorted(comb_design.inputs)

    def test_compaction_structures_mode(self, arch, libfn, comb_design):
        mapped = map_core(
            optimized_core(comb_design), arch, libfn(),
            use_compaction_structures=True,
        )
        check(mapped)
        assert outputs_equal(comb_design, mapped)


@pytest.mark.parametrize("arch,libfn", [
    ("lut", lut_plb_library), ("granular", granular_plb_library),
])
class TestCompaction:
    def test_equivalence_and_never_regresses(self, arch, libfn):
        src = make_ripple_design(width=6)
        library = libfn()
        mapped = map_core(optimized_core(src, effort=2), arch, library)
        compacted, report = compact(mapped, library)
        check(compacted)
        assert outputs_equal(src, compacted, n_cycles=4)
        assert report.area_after <= report.area_before
        assert report.reduction >= 0.0

    def test_report_consistency(self, arch, libfn, comb_design):
        library = libfn()
        mapped = map_core(optimized_core(comb_design), arch, library)
        compacted, report = compact(mapped, library)
        if report.applied:
            assert report.area_after == pytest.approx(total_area(compacted))
            assert report.supernodes_collapsed > 0
            assert report.structure_histogram
        else:
            assert report.area_after == report.area_before

    def test_dffs_preserved(self, arch, libfn):
        src = make_ripple_design(width=4)
        library = libfn()
        mapped = map_core(optimized_core(src), arch, library)
        n_dff = gather(mapped).n_sequential
        compacted, _report = compact(mapped, library)
        assert gather(compacted).n_sequential == n_dff


class TestCompactionEffect:
    def test_granular_finds_supernodes_on_adders(self):
        # The adder-heavy design exercises NDMX/XOAMX collapsing.
        src = make_ripple_design(width=8)
        library = granular_plb_library()
        mapped = map_core(optimized_core(src), "granular", library)
        compacted, report = compact(mapped, library)
        assert report.applied
        assert report.reduction > 0.0
