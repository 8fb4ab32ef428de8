"""Tests for fixpoint compaction."""

import pytest

from repro.cells.library import granular_plb_library, lut_plb_library
from repro.netlist.simulate import outputs_equal
from repro.netlist.stats import total_area
from repro.netlist.validate import check
from repro.synth.compaction import compact, compact_to_fixpoint
from repro.synth.from_netlist import extract_core
from repro.synth.techmap import map_core

from conftest import make_ripple_design


@pytest.mark.parametrize("arch,libfn", [
    ("lut", lut_plb_library), ("granular", granular_plb_library),
])
class TestFixpoint:
    def test_at_least_single_pass(self, arch, libfn):
        src = make_ripple_design(width=6)
        library = libfn()
        mapped = map_core(extract_core(src), arch, library)
        _single, single_report = compact(mapped, library)
        multi, multi_report = compact_to_fixpoint(mapped, library)
        assert multi_report.area_after <= single_report.area_after
        assert multi_report.reduction >= single_report.reduction

    def test_equivalence_preserved(self, arch, libfn):
        src = make_ripple_design(width=6)
        library = libfn()
        mapped = map_core(extract_core(src), arch, library)
        compacted, report = compact_to_fixpoint(mapped, library)
        check(compacted)
        assert outputs_equal(src, compacted, n_cycles=4)
        assert report.area_after == pytest.approx(total_area(compacted)) or (
            not report.applied
        )

    def test_converges(self, arch, libfn):
        src = make_ripple_design(width=5)
        library = libfn()
        mapped = map_core(extract_core(src), arch, library)
        once, _ = compact_to_fixpoint(mapped, library, max_passes=5)
        again, report = compact_to_fixpoint(once, library, max_passes=5)
        # A converged netlist does not improve further.
        assert not report.applied or report.reduction < 0.02
