"""The paper's claims, asserted at the scale their results files state.

The ``results/*.txt`` files are generated once per session through
:data:`repro.flow.results.ARTIFACTS`, the mapping ``repro results``
writes them from, and must equal the committed files.  Each claim is
then asserted on the same runs: Tables 1 and 2, compaction, power and
via sites on the shared matrix (``BENCH``, scale 0.6); the ablations and
the domain-specific sweep at ``ABLATION`` (scale 0.4, effort 0.1).
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.core.adder import granular_full_adder, lut_full_adder
from repro.core.explorer import CandidatePLB, GranularityExplorer
from repro.core.plb import granular_plb, lut_plb
from repro.flow import results
from repro.flow.experiments import (
    run_compaction_summary,
    run_figure2,
    run_table1,
    run_table2,
)
from repro.flow.results import (
    ARTIFACTS,
    BENCH,
    Claim,
    Runs,
    artifact_header,
    render_artifact,
    run_compaction_ablation,
    run_domain_exploration,
    run_power,
    run_routing_sweep,
    section2_claims,
    splice_block,
    table1_claims,
)
from repro.pack.quadrisection import pack
from repro.pack.resources import min_plbs
from repro.place.grid import grid_for_netlist
from repro.place.sa import AnnealingPlacer

REPO = Path(__file__).resolve().parent.parent
RESULTS = [key for key in ARTIFACTS if key.startswith("results/")]


@pytest.fixture(scope="session")
def runs():
    return Runs()


@pytest.fixture(scope="session")
def generated(runs):
    return {key: render_artifact(key, runs) for key in RESULTS}


@pytest.fixture(scope="session")
def bench(runs):
    return runs.matrix(BENCH)


class TestGeneratedFiles:
    @pytest.mark.parametrize("key", RESULTS)
    def test_committed_file_equals_generated(self, key, generated):
        assert (REPO / key).read_text() == generated[key], (
            f"{key} is stale: rerun `repro results`"
        )

    def test_every_results_file_has_a_generator(self):
        committed = {f"results/{p.name}"
                     for p in (REPO / "results").glob("*.txt")}
        assert committed == set(RESULTS)

    @pytest.mark.parametrize("key", [k for k in ARTIFACTS if "#" in k])
    def test_each_block_is_marked_once_with_its_setting(self, key):
        path, _, block = key.partition("#")
        setting, _render = ARTIFACTS[key]
        text = (REPO / path).read_text()
        assert text.count(f"<!-- {block}: ") == 1
        assert text.count(f"<!-- end {block} -->") == 1
        assert f"<!-- {block}: {artifact_header(setting)} -->" in text

    def test_fullscale_header(self):
        setting, _render = ARTIFACTS["results_fullscale.txt"]
        first = (REPO / "results_fullscale.txt").read_text().splitlines()[0]
        assert first == f"# {artifact_header(setting)}"

    def test_splice_replaces_exactly_one_block(self):
        doc = "a\n<!-- t: old -->\nstale\n<!-- end t -->\nb\n"
        new = splice_block(doc, "t", "fresh", None)
        assert new == (f"a\n<!-- t: {artifact_header(None)} -->\nfresh\n"
                       "<!-- end t -->\nb\n")
        assert splice_block(new, "t", "fresh", None) == new
        with pytest.raises(ValueError, match="one generated block"):
            splice_block(doc, "missing", "x", None)

    def test_cli_writes_files_and_blocks(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.setattr(results, "ARTIFACTS", {
            "results/x.txt": (None, lambda runs: "body"),
            "DOC.md#blk": (BENCH, lambda runs: "new"),
        })
        (tmp_path / "DOC.md").write_text("<!-- blk: -->\nold\n"
                                         "<!-- end blk -->\n")
        monkeypatch.chdir(tmp_path)
        assert main(["-q", "results"]) == 0
        assert (tmp_path / "results/x.txt").read_text() == (
            f"# {artifact_header(None)}\nbody\n"
        )
        assert (tmp_path / "DOC.md").read_text() == (
            f"<!-- blk: {artifact_header(BENCH)} -->\nnew\n<!-- end blk -->\n"
        )


class TestVerdicts:
    def test_verdict_follows_direction(self):
        assert Claim("x", "s", "p", "m", True).verdict == "reproduced"
        assert Claim("x", "s", "p", "m", False).verdict == "not reproduced"

    def test_section2_claims_hold(self):
        claims = section2_claims(run_figure2())
        assert {"F2", "F3", "F5"} <= {c.id for c in claims}
        assert all(c.holds for c in claims), [c for c in claims
                                              if not c.holds]


class TestTable1:
    def test_die_area_claims(self, bench):
        table = run_table1(bench)
        assert table.datapath_average_reduction > 0.15, "T1-a"
        assert table.fpu_reduction > 0.25, "T1-b"
        assert table.firewire_reduction < 0.0, "T1-c"
        assert table.datapath_overhead_reduction > 0.0, "T1-d"
        # The Firewire inversion tracks the PLB area ratio (both
        # architectures are DFF-bound).
        assert -0.35 < table.firewire_reduction < -0.05
        assert all(claim.holds for claim in table1_claims(table))

    def test_flow_b_exceeds_flow_a_on_datapath(self, bench):
        """Packing a regular array always costs area over flow a."""
        table = run_table1(bench)
        for design in ("alu", "fpu", "netswitch"):
            row = table.rows[design]
            assert row.granular_flow_b > row.granular_flow_a
            assert row.lut_flow_b > row.lut_flow_a

    def test_domain_crossover(self, bench):
        """Granular wins datapath, loses the sequential-dominated design."""
        table = run_table1(bench)
        assert table.rows["fpu"].granular_reduction > 0
        assert table.rows["alu"].granular_reduction > 0
        assert table.rows["firewire"].granular_reduction < 0


class TestTable2:
    def test_path_slack_claims(self, bench):
        table = run_table2(bench)
        assert table.period == 0.5  # the paper's cycle target
        for design in ("alu", "fpu", "netswitch"):
            assert table.rows[design].slack_improvement > 0.05, design
        assert table.average_slack_improvement > 0.05, "T2-a"
        assert table.degradation_reduction > 0.0, "T2-b"

    def test_fpu_is_among_biggest_timing_wins(self, bench):
        table = run_table2(bench)
        others = [row.slack_improvement for name, row in table.rows.items()
                  if name not in ("fpu", "firewire")]
        assert table.rows["fpu"].slack_improvement >= 0.6 * max(others)

    def test_flow_a_faster_than_flow_b(self, bench):
        """Packing perturbs placement, so flow b can only be slower."""
        for row in run_table2(bench).rows.values():
            assert row.granular_flow_a >= row.granular_flow_b - 1e-9
            assert row.lut_flow_a >= row.lut_flow_b - 1e-9


class TestCompaction:
    def test_helps_on_average_and_never_regresses(self, bench):
        summary = run_compaction_summary(bench)
        assert summary.average > 0.02, "C-a"
        assert all(v >= 0.0 for v in summary.reductions.values())


class TestPower:
    def test_granular_no_hungrier_on_datapath(self, bench):
        rows = run_power(bench).rows
        for design in ("alu", "fpu"):
            assert rows[(design, "granular")].total < (
                rows[(design, "lut")].total * 1.10
            ), design


class TestAblations:
    def test_compaction_never_hurts(self):
        ablation = run_compaction_ablation()
        with_c, without = ablation.with_compaction, ablation.without
        assert (with_c.synthesis.stats.total_area
                <= without.synthesis.stats.total_area)
        assert with_c.flow_b.die_area <= without.flow_b.die_area * 1.10

    def test_more_tracks_only_reduce_overuse(self):
        flow_b = run_routing_sweep().flow_b
        overuse = [flow_b[t].routing.overused_edges for t in (6, 12, 28)]
        assert overuse[0] >= overuse[1] >= overuse[2]
        assert flow_b[28].routing.success

    def test_domain_specific_crossover(self):
        """Granular-class PLBs win the datapath; the DFF-heavy variant
        wins the sequential-dominated controller."""
        exploration = run_domain_exploration()
        assert exploration.best("alu") != "seq_heavy"
        assert exploration.best("firewire") == "seq_heavy"


class TestExplorerAxes:
    def test_mux_count_sweep(self):
        """More muxes help up to the point where coverage stops improving."""
        explorer = GranularityExplorer()
        metrics = {}
        for n_mux in (1, 2, 3, 4):
            slots = {"MUX2": max(0, n_mux - 1), "XOA": min(1, n_mux),
                     "ND3WI": 1, "DFF": 1}
            metrics[n_mux] = explorer.evaluate(
                CandidatePLB(f"mux{n_mux}", slots)
            )
        coverages = [metrics[n].lut_free_coverage for n in (1, 2, 3, 4)]
        assert coverages == sorted(coverages)
        # Two muxes already cover everything (XOAMX + composites)...
        assert metrics[2].lut_free_coverage == 256
        # ...but full-adder packing needs the third mux.
        assert not metrics[2].full_adder_in_one_plb
        assert metrics[3].full_adder_in_one_plb

    def test_dff_ratio_axis(self):
        """A seq-heavy PLB trades area for DFF capacity: the Firewire fix
        the paper proposes."""
        explorer = GranularityExplorer()
        base = explorer.evaluate(
            CandidatePLB("base", {"MUX2": 2, "XOA": 1, "ND3WI": 1, "DFF": 1})
        )
        seq = explorer.evaluate(
            CandidatePLB("seq", {"MUX2": 2, "XOA": 1, "ND3WI": 1, "DFF": 3})
        )
        assert seq.total_area > base.total_area
        assert seq.dff_count == 3
        assert seq.sequential_fraction > base.sequential_fraction


def _pack_adder(netlist, arch, cols, rows):
    grid = grid_for_netlist(netlist)
    placement = AnnealingPlacer(netlist, grid, seed=0, effort=0.05).place()
    return pack(netlist, placement, arch, cols, rows)


class TestFullAdderPacking:
    """Section 2.2, through the real packer: one granular PLB, two LUT
    PLBs (the sum is a 3-input XOR and the carry the majority, neither
    of which an ND3WI can produce)."""

    def test_granular_adder_fits_one_plb(self):
        netlist, arch = granular_full_adder(), granular_plb()
        assert min_plbs(arch, netlist) == 1
        result = _pack_adder(netlist, arch, 1, 1)
        assert len({a.plb for a in result.assignments.values()}) == 1
        # The paper's component mix: three muxes (2 plain + XOA), one
        # ND3WI, inverters on free buffers.
        by_slot = Counter(a.slot for a in result.assignments.values())
        assert by_slot["MUX2"] == 2
        assert by_slot["XOA"] == 1
        assert by_slot["ND3WI"] == 1
        assert by_slot["POLBUF"] >= 1

    def test_lut_adder_needs_two_plbs(self):
        netlist, arch = lut_full_adder(), lut_plb()
        assert min_plbs(arch, netlist) == 2
        result = _pack_adder(netlist, arch, 2, 1)
        assert len({a.plb for a in result.assignments.values()}) == 2
