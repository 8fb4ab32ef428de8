"""Tests for the parallel matrix runner and the content-addressed cache.

Covers the performance layer's correctness contract: worker count never
changes results, a cache hit is value-equal to a cold computation, and a
corrupted cache entry is detected and recomputed rather than trusted.
"""

import hashlib
import os

import pytest

from repro.flow.cache import (
    CacheStats,
    NullCache,
    canonical_netlist,
    stable_hash,
)
from repro.flow.experiments import Matrix, run_table1, run_table2
from repro.flow.flow import run_design
from repro.flow.options import FlowOptions
from repro.flow.parallel import resolve_jobs, run_cells

from conftest import make_ripple_design

FAST = FlowOptions(
    place_effort=0.05, place_iterations=1, pack_iterations=1, seed=11
)
CELLS = (("alu", "granular"), ("alu", "lut"))
SCALE = 0.2


def _table_text(runs) -> str:
    """Full-precision dump of both tables' rows (alu-only matrices can't
    use Table.format(), which expects all four designs)."""
    matrix = Matrix(runs=dict(runs))
    t1 = run_table1(matrix)
    t2 = run_table2(matrix)
    return "\n".join(
        [repr(t1.rows[d]) for d in sorted(t1.rows)]
        + [repr(t2.rows[d]) for d in sorted(t2.rows)]
    )


class TestCanonicalForm:
    def test_construction_order_irrelevant(self):
        a = canonical_netlist(make_ripple_design(width=3))
        b = canonical_netlist(make_ripple_design(width=3))
        assert a == b

    def test_distinguishes_netlists(self):
        a = canonical_netlist(make_ripple_design(width=3))
        b = canonical_netlist(make_ripple_design(width=4))
        assert a != b

    def test_stable_hash_order_sensitive(self):
        assert stable_hash("a", "b") != stable_hash("b", "a")
        assert stable_hash("a", "b") == stable_hash("a", "b")


class TestResolveJobs:
    def test_default_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(3) == 3

    def test_negative_means_all_cpus(self):
        assert resolve_jobs(-1) >= 1

    def test_negative_follows_cpu_affinity(self, monkeypatch):
        """``--jobs -1`` under ``taskset -c 0`` starts one worker, not one
        per CPU of the machine."""
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_jobs(-1) == 1

    def test_negative_without_affinity_uses_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert resolve_jobs(-1) == 3


class TestSerialParallelIdentical:
    def test_tables_identical_for_any_worker_count(self, tmp_path, monkeypatch):
        # Cache off so the parallel run actually recomputes everything;
        # any divergence between worker processes would show up in the
        # formatted tables.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        options = FlowOptions(
            place_effort=0.05, place_iterations=1, pack_iterations=1,
            seed=11, use_cache=False,
        )
        serial = run_cells(CELLS, SCALE, options, jobs=1)
        parallel = run_cells(CELLS, SCALE, options, jobs=2)
        assert list(serial) == list(parallel)
        assert _table_text(serial) == _table_text(parallel)


class TestStageCache:
    def test_hit_equals_cold_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        src = make_ripple_design(width=5, name="cachetest")
        cold = run_design(src.copy(), "granular", FAST)
        assert not any(cold.stage_cached.values())
        assert cold.cache_stats.misses > 0

        warm = run_design(src.copy(), "granular", FAST)
        assert all(warm.stage_cached.values())
        assert warm.cache_stats.hits == len(warm.stage_cached)
        assert warm.flow_a.die_area == cold.flow_a.die_area
        assert warm.flow_b.die_area == cold.flow_b.die_area
        assert warm.flow_a.average_slack == cold.flow_a.average_slack
        assert warm.flow_b.average_slack == cold.flow_b.average_slack
        assert warm.flow_b.plbs_used == cold.flow_b.plbs_used
        assert warm.synthesis.stats.total_area == cold.synthesis.stats.total_area

    def test_option_change_invalidates_downstream(self, tmp_path, monkeypatch):
        from dataclasses import replace

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        src = make_ripple_design(width=5, name="cachetest2")
        run_design(src.copy(), "granular", FAST)
        reseeded = run_design(src.copy(), "granular", replace(FAST, seed=99))
        # Synthesis is seed-independent and reused; everything placed or
        # packed depends on the seed and must recompute.
        assert reseeded.stage_cached["synthesis"]
        assert not reseeded.stage_cached["physical"]
        assert not reseeded.stage_cached["route_a"]

    def test_corrupt_entry_detected_and_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        src = make_ripple_design(width=5, name="corrupttest")
        cold = run_design(src.copy(), "granular", FAST)

        entries = list(tmp_path.rglob("*.pkl"))
        assert entries
        for path in entries:
            raw = bytearray(path.read_bytes())
            raw[-1] ^= 0xFF  # flip one payload byte; digest no longer matches
            path.write_bytes(bytes(raw))

        redo = run_design(src.copy(), "granular", FAST)
        assert not any(redo.stage_cached.values())
        assert redo.cache_stats.corrupt == len(redo.stage_cached)
        assert redo.flow_a.average_slack == cold.flow_a.average_slack
        assert redo.flow_b.die_area == cold.flow_b.die_area
        # The corrupt entries were dropped and rewritten with good data.
        rerun = run_design(src.copy(), "granular", FAST)
        assert all(rerun.stage_cached.values())

    @pytest.mark.parametrize(
        "mangle",
        [
            pytest.param(lambda raw: raw[: len(raw) // 2], id="truncated"),
            pytest.param(lambda raw: b"", id="empty"),
            pytest.param(
                lambda raw: raw.partition(b"\n")[0] + b"\n", id="no-payload"
            ),
            pytest.param(
                lambda raw: hashlib.sha256(b"not a pickle").hexdigest().encode()
                + b"\nnot a pickle",
                id="digest-valid-not-a-pickle",
            ),
        ],
    )
    def test_truncated_entry_detected_and_recomputed(
        self, tmp_path, monkeypatch, mangle
    ):
        """Truncated entries (torn write, full disk) and payloads that do
        not unpickle recompute, never crash."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        src = make_ripple_design(width=5, name="trunctest")
        cold = run_design(src.copy(), "granular", FAST)

        entries = list(tmp_path.rglob("*.pkl"))
        assert entries
        for path in entries:
            path.write_bytes(mangle(path.read_bytes()))

        redo = run_design(src.copy(), "granular", FAST)
        assert not any(redo.stage_cached.values())
        assert redo.cache_stats.corrupt == len(redo.stage_cached)
        assert redo.flow_a.average_slack == cold.flow_a.average_slack
        assert redo.flow_b.die_area == cold.flow_b.die_area
        rerun = run_design(src.copy(), "granular", FAST)
        assert all(rerun.stage_cached.values())

    def test_corruption_increments_journal_counter(self, tmp_path, monkeypatch):
        """With observation on, corrupt reads surface as ``cache.corrupt``."""
        from dataclasses import replace

        from repro.obs import journal as obs_journal

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        src = make_ripple_design(width=5, name="corruptobs")
        run_design(src.copy(), "granular", FAST)
        for path in tmp_path.rglob("*.pkl"):
            path.write_bytes(path.read_bytes()[:10])

        observed = replace(FAST, observe=True)
        redo = run_design(src.copy(), "granular", observed)
        assert redo.journal_path is not None
        events = obs_journal.read_journal(redo.journal_path)
        counters = {
            e["name"]: e["value"] for e in events if e["ev"] == "counter"
        }
        assert counters["cache.corrupt"] == len(redo.stage_cached)
        outcomes = [
            e["attrs"]["outcome"]
            for e in events
            if e["ev"] == "point" and e["name"] == "cache"
        ]
        assert outcomes.count("corrupt") == len(redo.stage_cached)

    def test_disabled_cache_writes_nothing(self, tmp_path, monkeypatch):
        from dataclasses import replace

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        src = make_ripple_design(width=4, name="nocache")
        run_design(src.copy(), "granular", replace(FAST, use_cache=False))
        assert not list(tmp_path.rglob("*.pkl"))

    def test_null_cache_is_inert(self):
        cache = NullCache()
        cache.put("stage", "key", {"x": 1})
        assert cache.get("stage", "key") is None
        assert cache.stats.hits == 0

    def test_stats_merge(self):
        a = CacheStats(hits=1, misses=2, corrupt=0, bytes_read=10, bytes_written=20)
        b = CacheStats(hits=3, misses=1, corrupt=1, bytes_read=5, bytes_written=2)
        a.merge(b)
        assert (a.hits, a.misses, a.corrupt) == (4, 3, 1)
        assert "4 hits" in a.format()


class TestPerformanceReport:
    def test_design_run_reports_stages(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        src = make_ripple_design(width=4, name="perfreport")
        run = run_design(src.copy(), "granular", FAST)
        report = run.performance_report()
        for stage in ("synthesis", "physical", "route_a", "packing", "route_b"):
            assert stage in report
        assert "cache:" in report
        assert run.total_seconds > 0

