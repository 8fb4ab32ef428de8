"""Integration tests: observability wired through the CAD flow.

The load-bearing contract: observation never changes results.  Traced
and untraced runs must produce bit-identical placements and routes, a
traced ``run_design`` writes one journal, and tracing across pool
workers leaves the matrix results unchanged (the merged matrix journal's
shape is covered in ``test_scheduler.py``).
"""

import json


from repro.flow.flow import run_design
from repro.flow.options import FlowOptions
from repro.flow.parallel import run_cells
from repro.obs import export, journal

from conftest import make_ripple_design

FAST = FlowOptions(
    place_effort=0.05, place_iterations=1, pack_iterations=1, seed=11
)

MATRIX_CELLS = [("alu", "granular"), ("alu", "lut")]


class TestObservationIsInert:
    def test_traced_run_bit_identical_to_untraced(self, tmp_path, monkeypatch):
        """Placements and routes must not move when tracing is on."""
        from dataclasses import replace

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        src = make_ripple_design(width=5, name="obsidentical")
        options = replace(FAST, use_cache=False)  # force full recompute
        plain = run_design(src.copy(), "granular", options)
        traced = run_design(
            src.copy(), "granular", replace(options, observe=True)
        )
        # Bit-identical placement: every instance on the same site.
        assert traced.physical.placement.sites == plain.physical.placement.sites
        # Bit-identical routing: same tree edge-for-edge on both flows.
        for flow in ("flow_a", "flow_b"):
            a = getattr(plain, flow).routing
            b = getattr(traced, flow).routing
            assert a.lengths() == b.lengths()
            assert {n: r.edges for n, r in a.nets.items()} == \
                   {n: r.edges for n, r in b.nets.items()}
        assert traced.flow_a.die_area == plain.flow_a.die_area
        assert traced.flow_b.average_slack == plain.flow_b.average_slack
        assert plain.journal_path is None
        assert traced.journal_path is not None

    def test_env_var_enables_tracing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE", "1")
        src = make_ripple_design(width=4, name="obsenv")
        run = run_design(src.copy(), "granular", FAST)
        assert run.journal_path is not None


class TestRunDesignJournal:
    def test_traced_run_writes_complete_journal(self, tmp_path, monkeypatch):
        from dataclasses import replace

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        src = make_ripple_design(width=5, name="obsjournal")
        run = run_design(src.copy(), "granular", replace(FAST, observe=True))
        events = journal.read_journal(run.journal_path)

        kinds = {e["ev"] for e in events}
        assert {"meta", "span", "point", "counter", "hist"} <= kinds

        meta = events[0]
        assert meta["ev"] == "meta"
        assert "python" in meta["attrs"]  # environment fingerprint

        spans = {e["name"] for e in events if e["ev"] == "span"}
        assert "run_design" in spans
        assert {"flow.synthesis", "flow.physical", "flow.route_a",
                "flow.packing", "flow.route_b"} <= spans
        assert {"sa.place", "pathfinder.route",
                "synth.map", "synth.compact"} <= spans

        # SA per-temperature and router per-iteration stats made it in.
        points = {e["name"] for e in events if e["ev"] == "point"}
        assert {"sa.temperature", "pathfinder.iteration", "cache"} <= points
        counters = {
            e["name"]: e["value"] for e in events if e["ev"] == "counter"
        }
        # 5 stage misses (plus realization-table misses if the table
        # memo was cold in this process).
        assert counters["cache.miss"] >= 5
        assert counters["sa.placements"] >= 1
        assert counters["pathfinder.routes"] >= 2  # flow a + flow b
        hists = export.merge_histograms(events)
        assert {"stage.seconds.synthesis", "sa.accept_rate",
                "pathfinder.overused_edges"} <= set(hists)

    def test_realization_table_span_recorded(self):
        """Table build/load is traced (behind the in-process lru_cache,
        so the memo must be cleared to see it fire)."""
        from repro.obs import core
        from repro.synth.realize import compaction_table, table_for_cells

        # Warm the *stage cache* under the current cache dir (the memo
        # may hold a table persisted under an earlier test's dir).
        table_for_cells.cache_clear()
        compaction_table("granular")
        table_for_cells.cache_clear()
        core.begin()
        compaction_table("granular")
        events = core.drain()
        spans = [
            e for e in events
            if e["ev"] == "span" and e["name"] == "realize.table"
        ]
        assert len(spans) == 1
        assert spans[0]["attrs"]["loaded"] is True
        assert spans[0]["attrs"]["entries"] > 0
        counters = {
            e["name"]: e["value"] for e in events if e["ev"] == "counter"
        }
        assert counters["realize.table.loads"] == 1

    def test_cache_hits_recorded_on_warm_run(self, tmp_path, monkeypatch):
        from dataclasses import replace

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        src = make_ripple_design(width=5, name="obswarm")
        run_design(src.copy(), "granular", FAST)  # populate cache
        warm = run_design(src.copy(), "granular", replace(FAST, observe=True))
        events = journal.read_journal(warm.journal_path)
        counters = {
            e["name"]: e["value"] for e in events if e["ev"] == "counter"
        }
        assert counters["cache.hit"] == len(warm.stage_cached)
        assert "cache.miss" not in counters
        cached_flags = [
            e["attrs"]["cached"]
            for e in events
            if e["ev"] == "span" and e["name"].startswith("flow.")
        ]
        assert cached_flags and all(cached_flags)

    def test_summary_is_json_ready(self, tmp_path, monkeypatch):
        from dataclasses import replace

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        src = make_ripple_design(width=4, name="obssummary")
        run = run_design(src.copy(), "granular", replace(FAST, observe=True))
        summary = json.loads(json.dumps(run.summary(), default=str))
        assert summary["design"] == "obssummary"
        assert summary["arch"] == "granular"
        assert set(summary["stage_seconds"]) == set(summary["stage_cached"])
        assert summary["flow_b"]["plbs_used"] > 0
        assert summary["journal"] is not None
        assert summary["cache"]["misses"] >= 0


class TestParallelMergedJournal:
    def test_parallel_results_identical_with_observation(
        self, tmp_path, monkeypatch
    ):
        """Tracing across pool workers never changes the matrix results."""
        from dataclasses import replace

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path / "journals"))
        cells = MATRIX_CELLS
        options = replace(FAST, use_cache=False)
        plain = run_cells(cells, 0.2, options, jobs=2)
        traced = run_cells(cells, 0.2, replace(options, observe=True), jobs=2)
        for cell in cells:
            assert traced[cell].physical.placement.sites == \
                   plain[cell].physical.placement.sites
            assert traced[cell].flow_a.routing.lengths() == \
                   plain[cell].flow_a.routing.lengths()
            assert traced[cell].flow_b.die_area == plain[cell].flow_b.die_area


class TestCLI:
    def _flow_args(self, design="alu"):
        return [design, "--scale", "0.2", "--effort", "0.05"]

    def test_run_json_parses(self, capsys):
        from repro.cli import main

        assert main(["run"] + self._flow_args() + ["--json"]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out)  # stdout must be pure JSON
        assert summary["design"] == "alu"
        assert summary["flow_a"]["die_area_um2"] > 0

    def test_flow_and_run_are_aliases(self):
        from repro.cli import build_parser

        parser = build_parser()
        a = parser.parse_args(["flow", "alu", "--json"])
        b = parser.parse_args(["run", "alu", "--json"])
        assert a.json and b.json
        assert a.design == b.design == "alu"

    def test_quiet_suppresses_narration(self, capsys):
        from repro.cli import main

        assert main(["-q", "flow"] + self._flow_args()) == 0
        out = capsys.readouterr().out
        assert "Running" not in out
        assert "flow a" in out and "flow b" in out  # results still print

    def test_trace_and_stats_roundtrip(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path / "journals"))
        chrome_path = tmp_path / "chrome.json"
        assert main(["run"] + self._flow_args() + ["--trace"]) == 0
        capsys.readouterr()

        assert main(["trace", "--chrome", str(chrome_path)]) == 0
        out = capsys.readouterr().out
        assert "run_design" in out and "flow.synthesis" in out
        doc = json.loads(chrome_path.read_text())
        assert doc["traceEvents"]

        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out and "histograms:" in out

        assert main(["stats", "--prometheus"]) == 0
        assert "# TYPE" in capsys.readouterr().out

    def test_trace_without_journal_fails_cleanly(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path / "empty"))
        assert main(["trace"]) == 1
        assert "no journals" in capsys.readouterr().err

    def test_trace_explicit_missing_path(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 1
        assert "no journal at" in capsys.readouterr().err
