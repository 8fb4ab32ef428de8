"""Deeper coverage: FlowMap stress, packing loop details, experiment
helpers, and failure injection."""


import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.synth.flowmap import FlowMap

from conftest import make_ripple_design


class TestFlowMapStress:
    def _random_dag(self, seed, n_sources=4, n_nodes=30):
        import random

        rng = random.Random(seed)
        fanins = {f"s{i}": () for i in range(n_sources)}
        names = list(fanins)
        for i in range(n_nodes):
            k = rng.randint(1, 3)
            node = f"n{i}"
            fanins[node] = tuple(rng.sample(names, min(k, len(names))))
            names.append(node)
        return fanins

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_random_dags_have_valid_cuts(self, seed):
        fanins = self._random_dag(seed)
        result = FlowMap(fanins, k=3).compute()
        for node, fs in fanins.items():
            if not fs:
                assert result.labels[node] == 0
                continue
            cut = result.cuts[node]
            assert 1 <= len(cut) <= 3
            # The cut separates node from the sources.
            stack = list(fs)
            while stack:
                current = stack.pop()
                if current in cut:
                    continue
                assert fanins[current], f"escaped at {current}"
                stack.extend(fanins[current])
            # Height property: leaves' labels are strictly below the node's.
            assert all(result.labels[leaf] < result.labels[node] for leaf in cut)

    def test_cone_cap_stays_safe(self):
        # A deep chain with a tiny cone cap: labels become conservative
        # (possibly larger) but cuts stay valid.
        fanins = {"s": ()}
        prev = "s"
        for i in range(40):
            fanins[f"n{i}"] = (prev,)
            prev = f"n{i}"
        capped = FlowMap(fanins, k=2, cone_cap=5).compute()
        full = FlowMap(fanins, k=2).compute()
        assert capped.labels[prev] >= full.labels[prev]

    def test_k1_degenerates_to_chains(self):
        fanins = {"a": (), "b": (), "n": ("a", "b")}
        result = FlowMap(fanins, k=1).compute()
        # A 2-input node can never have a 1-feasible nontrivial cut.
        assert result.cuts["n"] == frozenset({"a", "b"})


class TestPackingLoopDetails:
    def test_rebuffering_keeps_equivalence(self, gran_arch, gran_lib, gran_timing):
        from repro.netlist.build import NetlistBuilder
        from repro.netlist.simulate import outputs_equal
        from repro.pack.iterative import run_packing_loop
        from repro.place.grid import grid_for_netlist
        from repro.place.sa import AnnealingPlacer
        from repro.synth.from_netlist import extract_core
        from repro.synth.techmap import map_core

        # A very high fanout net forces re-buffering inside the loop.
        b = NetlistBuilder("fan")
        x = b.input("x")
        y = b.input("y")
        hot = b.XOR(x, y)
        for i in range(30):
            b.output(b.DFF(b.AND(hot, x)), f"q{i}")
        src = b.netlist
        mapped = map_core(extract_core(src), "granular", gran_lib)
        placement = AnnealingPlacer(
            mapped, grid_for_netlist(mapped), seed=0, effort=0.05
        ).place()
        packed = run_packing_loop(
            mapped, placement, gran_arch, gran_lib, gran_timing,
            period=0.5, iterations=3,
        )
        assert outputs_equal(src, packed.netlist, n_cycles=3)

    def test_pad_ring_positions(self, gran_arch):
        from repro.pack.quadrisection import _ring_positions

        pads = _ring_positions(["a", "b", "c", "d"], 100.0, 50.0)
        for x, y in pads.values():
            assert 0 <= x <= 100 and 0 <= y <= 50
            on_edge = x in (0.0, 100.0) or y in (0.0, 50.0)
            assert on_edge

    def test_ring_enumeration_stays_in_bounds(self):
        from repro.pack.quadrisection import _ring

        for radius in range(1, 6):
            for plb in _ring((1, 1), radius, 4, 4):
                assert 0 <= plb[0] < 4 and 0 <= plb[1] < 4


class TestExperimentHelpers:
    @pytest.mark.parametrize(
        "scale", [0.0, -1.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_build_design_rejects_bad_scale(self, scale):
        from repro.flow.experiments import build_design

        with pytest.raises(ValueError, match="finite number > 0"):
            build_design("alu", scale)

    @pytest.mark.parametrize("argv", [
        ["flow", "alu", "--scale", "0"],
        ["run", "alu", "--scale", "-1"],
        ["flow", "alu", "--scale", "nan"],
        ["check", "alu", "--scale", "inf"],
        ["tables", "--scale", "-0.5"],
        ["submit", "alu", "--scale", "nan"],
    ])
    def test_cli_scale_is_a_usage_error(self, argv, tmp_path, monkeypatch,
                                         capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(["-q"] + argv)
        assert exc.value.code == 2
        assert "--scale: design scale must be a finite number > 0" in (
            capsys.readouterr().err
        )

    #: Efforts that are not a finite number > 0 (``1e999`` reads as inf).
    BAD_EFFORTS = [float("nan"), float("1e999"), "high", -3]

    @pytest.mark.parametrize("effort", BAD_EFFORTS)
    def test_flow_options_reject_bad_effort(self, effort):
        from repro.flow.options import FlowOptions

        with pytest.raises(ValueError, match="finite number > 0"):
            FlowOptions(place_effort=effort)
        with pytest.raises(ValueError, match="finite number > 0"):
            FlowOptions.from_dict({"place_effort": effort})

    @pytest.mark.parametrize("argv", [
        ["flow", "alu", "--effort", "nan"],
        ["run", "alu", "--effort", "1e999"],
        ["check", "alu", "--effort", "high"],
        ["submit", "alu", "--effort", "-3"],
    ])
    def test_cli_effort_is_a_usage_error(self, argv, tmp_path, monkeypatch,
                                         capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(["-q"] + argv)
        assert exc.value.code == 2
        assert "--effort:" in capsys.readouterr().err

    def test_table_formats_are_strings(self):
        from repro.flow.experiments import run_figure2

        assert isinstance(run_figure2().format(), str)


class TestSTAEdgeCases:
    def test_combinational_only_design(self, comb_design, gran_timing):
        from repro.timing.sta import analyze

        report = analyze(comb_design, gran_timing, period=1.0)
        assert set(report.endpoint_slack) == set(comb_design.outputs)
        assert report.worst_slack < 1.0

    def test_top_n_larger_than_endpoints(self, comb_design, gran_timing):
        from repro.timing.sta import analyze

        report = analyze(comb_design, gran_timing, top_n=1000)
        assert len(report.paths) == len(comb_design.outputs)

    def test_period_shifts_slack_uniformly(self, gran_timing):
        from repro.timing.sta import analyze

        design = make_ripple_design(width=3)
        fast = analyze(design, gran_timing, period=0.5)
        slow = analyze(design, gran_timing, period=1.5)
        for key in fast.endpoint_slack:
            assert slow.endpoint_slack[key] == pytest.approx(
                fast.endpoint_slack[key] + 1.0
            )


class TestFailureInjection:
    def test_techmap_missing_cell(self, comb_design):
        from repro.cells.celltypes import make_inv, make_dff, make_buf
        from repro.cells.library import Library
        from repro.synth.from_netlist import extract_core
        from repro.synth.techmap import TechmapError, map_core

        # A library without any 2-input gate cannot realize anything.
        crippled = Library("crippled", [make_inv(), make_buf(), make_dff()])
        with pytest.raises(TechmapError):
            map_core(extract_core(comb_design), "granular", crippled)

    def test_router_unreachable_target(self):
        from repro.route.grid import RoutingGrid
        from repro.route.pathfinder import PathFinderRouter

        grid = RoutingGrid(cols=2, rows=2, bin_pitch=1.0)
        router = PathFinderRouter(grid)
        with pytest.raises(RuntimeError):
            router._astar({(0, 0)}, (5, 5), 1.0)

    def test_packing_impossible_cell(self, gran_arch, comb_design):
        from repro.pack.resources import PackingError, min_plbs

        # comb_design uses capture cells the architecture cannot host.
        with pytest.raises(PackingError):
            min_plbs(gran_arch, comb_design)
