"""Tests for stage-cache maintenance: stats, LRU gc, and the cache CLI.

The eviction contract: ``get`` refreshes an entry's mtime, so mtime order
is LRU order; ``collect_garbage`` removes by age first, then oldest-first
until under the size budget, and never lets a single bad entry abort the
pass (corruption tolerance mirrors the read path).
"""

import json
import os

import pytest

from repro.flow.cache import (
    StageCache,
    collect_garbage,
    iter_entries,
    parse_age,
    parse_size,
    usage_summary,
)


def _put(cache, stage, key, payload, mtime=None):
    cache.put(stage, key, payload)
    path = cache._path(stage, key)
    if mtime is not None:
        os.utime(path, (mtime, mtime))
    return path


class TestParsers:
    def test_parse_size_units(self):
        assert parse_size("1024") == 1024
        assert parse_size("1K") == 1024
        assert parse_size("2M") == 2 * 1024**2
        assert parse_size("1.5G") == int(1.5 * 1024**3)
        assert parse_size("1T") == 1024**4
        assert parse_size(" 3k ") == 3 * 1024

    def test_parse_size_rejects_junk(self):
        for junk in ("lots", "inf", "1e400", "nan", "-inf", "1e308T"):
            with pytest.raises(ValueError, match="unparsable size"):
                parse_size(junk)
        with pytest.raises(ValueError, match="negative size"):
            parse_size("-5M")

    def test_parse_age_units(self):
        assert parse_age("45") == 45.0
        assert parse_age("45s") == 45.0
        assert parse_age("30m") == 1800.0
        assert parse_age("12h") == 43200.0
        assert parse_age("7d") == 7 * 86400.0
        assert parse_age("2w") == 2 * 604800.0

    def test_parse_age_rejects_junk(self):
        for junk in ("soon", "nan", "inf", "1e400", "nanw", "1e308w"):
            with pytest.raises(ValueError, match="unparsable age"):
                parse_age(junk)
        with pytest.raises(ValueError, match="negative age"):
            parse_age("-1d")


class TestIterAndSummary:
    def test_entries_sorted_oldest_first(self, tmp_path):
        cache = StageCache(root=tmp_path)
        _put(cache, "synthesis", "newer", b"x" * 10, mtime=2000.0)
        _put(cache, "physical", "oldest", b"x" * 20, mtime=1000.0)
        _put(cache, "route_a", "middle", b"x" * 30, mtime=1500.0)
        entries = iter_entries(tmp_path)
        assert [e.stage for e in entries] == ["physical", "route_a",
                                             "synthesis"]
        assert [e.mtime for e in entries] == [1000.0, 1500.0, 2000.0]

    def test_missing_root_is_empty(self, tmp_path):
        assert iter_entries(tmp_path / "nope") == []

    def test_strays_ignored(self, tmp_path):
        cache = StageCache(root=tmp_path)
        _put(cache, "synthesis", "real", b"payload")
        (tmp_path / "synthesis" / "notes.txt").write_text("not an entry")
        (tmp_path / "toplevel.pkl").write_bytes(b"wrong level")
        entries = iter_entries(tmp_path)
        assert [e.stage for e in entries] == ["synthesis"]

    def test_usage_summary_buckets_by_stage(self, tmp_path):
        cache = StageCache(root=tmp_path)
        _put(cache, "synthesis", "a", b"x" * 100)
        _put(cache, "synthesis", "b", b"x" * 100)
        _put(cache, "packing", "c", b"x" * 100)
        summary = usage_summary(tmp_path)
        assert summary["entries"] == 3
        assert summary["stages"]["synthesis"]["entries"] == 2
        assert summary["stages"]["packing"]["entries"] == 1
        assert summary["bytes"] == sum(
            b["bytes"] for b in summary["stages"].values()
        )
        assert summary["oldest_mtime"] <= summary["newest_mtime"]


class TestEvictionOrdering:
    def test_size_gc_evicts_least_recently_used_first(self, tmp_path):
        cache = StageCache(root=tmp_path)
        old = _put(cache, "synthesis", "old", b"x" * 50, mtime=1000.0)
        mid = _put(cache, "synthesis", "mid", b"x" * 50, mtime=2000.0)
        new = _put(cache, "synthesis", "new", b"x" * 50, mtime=3000.0)
        entry_size = old.stat().st_size
        report = collect_garbage(tmp_path, max_bytes=2 * entry_size)
        assert report.removed == 1
        assert report.removed_paths == [str(old)]
        assert not old.exists() and mid.exists() and new.exists()
        assert report.kept == 2
        assert report.freed_bytes == entry_size

    def test_hit_refreshes_recency(self, tmp_path):
        """A get() promotes the entry: the *other* one is evicted."""
        cache = StageCache(root=tmp_path)
        a = _put(cache, "synthesis", "a", b"x" * 50, mtime=1000.0)
        b = _put(cache, "synthesis", "b", b"x" * 50, mtime=2000.0)
        assert cache.get("synthesis", "a") is not None  # touch the LRU one
        assert a.stat().st_mtime > b.stat().st_mtime
        report = collect_garbage(tmp_path, max_bytes=a.stat().st_size)
        assert report.removed == 1
        assert a.exists() and not b.exists()

    def test_age_gc_uses_cutoff(self, tmp_path):
        cache = StageCache(root=tmp_path)
        stale = _put(cache, "synthesis", "stale", b"x", mtime=1000.0)
        fresh = _put(cache, "synthesis", "fresh", b"x", mtime=9000.0)
        report = collect_garbage(
            tmp_path, max_age_seconds=5000.0, now=10000.0
        )
        assert report.removed == 1
        assert not stale.exists() and fresh.exists()

    def test_age_and_size_compose(self, tmp_path):
        """Age pass first, then LRU size pass over the survivors."""
        cache = StageCache(root=tmp_path)
        ancient = _put(cache, "synthesis", "ancient", b"x" * 50, mtime=100.0)
        older = _put(cache, "synthesis", "older", b"x" * 50, mtime=6000.0)
        newer = _put(cache, "synthesis", "newer", b"x" * 50, mtime=9000.0)
        report = collect_garbage(
            tmp_path,
            max_bytes=older.stat().st_size,
            max_age_seconds=5000.0,
            now=10000.0,
        )
        # ancient by age; older by size; newer survives.
        assert report.removed == 2
        assert not ancient.exists() and not older.exists()
        assert newer.exists()

    def test_dry_run_removes_nothing(self, tmp_path):
        cache = StageCache(root=tmp_path)
        path = _put(cache, "synthesis", "a", b"x" * 50)
        report = collect_garbage(tmp_path, max_bytes=0, dry_run=True)
        assert report.dry_run
        assert report.removed == 1  # reported...
        assert path.exists()        # ...but untouched
        assert "would remove" in report.format()

    def test_noop_when_under_budget(self, tmp_path):
        cache = StageCache(root=tmp_path)
        _put(cache, "synthesis", "a", b"x")
        report = collect_garbage(tmp_path, max_bytes=10**9,
                                 max_age_seconds=10**9)
        assert report.removed == 0
        assert report.kept == 1


class TestCorruptionTolerantGc:
    def test_unremovable_entry_counted_not_fatal(self, tmp_path):
        """A directory masquerading as an entry can't be unlink()ed: gc
        counts the error, keeps going, and still evicts the rest."""
        cache = StageCache(root=tmp_path)
        victim = _put(cache, "synthesis", "victim", b"x" * 50, mtime=1000.0)
        bogus = tmp_path / "synthesis" / "bogus.pkl"
        bogus.mkdir()
        os.utime(bogus, (500.0, 500.0))  # oldest: first eviction candidate
        report = collect_garbage(tmp_path, max_bytes=0)
        assert report.errors == 1
        assert report.removed >= 1
        assert not victim.exists()
        assert bogus.exists()
        assert "1 errors" in report.format()

    def test_racing_deletion_is_not_an_error(self, tmp_path, monkeypatch):
        """An entry deleted between scan and unlink counts as removed."""
        from pathlib import Path

        cache = StageCache(root=tmp_path)
        a = _put(cache, "synthesis", "a", b"x" * 50, mtime=1000.0)

        real_unlink = Path.unlink

        def racing_unlink(self, *args, **kwargs):
            if self == a:
                real_unlink(self)  # someone else got there first
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", racing_unlink)
        report = collect_garbage(tmp_path, max_bytes=0)
        assert report.errors == 0
        assert report.removed == 1
        assert not a.exists()

    def test_corrupt_payloads_still_evictable(self, tmp_path):
        """gc never reads payloads, so corrupt entries evict like any
        other file."""
        cache = StageCache(root=tmp_path)
        path = _put(cache, "synthesis", "corrupt", b"x" * 50, mtime=1000.0)
        path.write_bytes(b"garbage, not digest-framed pickle")
        report = collect_garbage(tmp_path, max_bytes=0)
        assert report.removed == 1
        assert report.errors == 0
        assert not path.exists()


class TestCacheCli:
    def _populate(self, root):
        cache = StageCache(root=root)
        _put(cache, "synthesis", "a", b"x" * 100, mtime=1000.0)
        _put(cache, "physical", "b", b"x" * 200, mtime=2000.0)
        return cache

    def test_stats_json(self, tmp_path, capsys):
        from repro.cli import main

        self._populate(tmp_path)
        assert main(["cache", "--dir", str(tmp_path), "stats",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 2
        assert set(payload["stages"]) == {"synthesis", "physical"}

    def test_stats_respects_cache_dir_env(self, tmp_path, monkeypatch,
                                          capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        self._populate(tmp_path)
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "2 entries" in out

    def test_gc_json_and_eviction(self, tmp_path, capsys):
        from repro.cli import main

        self._populate(tmp_path)
        assert main(["cache", "--dir", str(tmp_path), "gc",
                     "--max-size", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["removed"] == 2
        assert payload["errors"] == 0
        assert not payload["dry_run"]
        assert usage_summary(tmp_path)["entries"] == 0

    def test_gc_dry_run_keeps_entries(self, tmp_path, capsys):
        from repro.cli import main

        self._populate(tmp_path)
        assert main(["cache", "--dir", str(tmp_path), "gc",
                     "--max-age", "0s", "--dry-run"]) == 0
        assert "would remove 2" in capsys.readouterr().out
        assert usage_summary(tmp_path)["entries"] == 2

    def test_gc_without_budget_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "--dir", str(tmp_path), "gc"]) == 2
        assert "--max-size" in capsys.readouterr().err

    def test_gc_bad_size_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "--dir", str(tmp_path), "gc",
                     "--max-size", "plenty"]) == 2
        assert "unparsable size" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, what", [
        ("--max-size", "inf", "size"),
        ("--max-size", "1e400", "size"),
        ("--max-size", "nan", "size"),
        ("--max-age", "nan", "age"),
        ("--max-age", "inf", "age"),
    ])
    def test_gc_non_finite_budget_is_an_error(
        self, tmp_path, capsys, flag, value, what
    ):
        from repro.cli import main

        self._populate(tmp_path)
        assert main(["cache", "--dir", str(tmp_path), "gc",
                     flag, value]) == 2
        assert f"unparsable {what}" in capsys.readouterr().err
        assert usage_summary(tmp_path)["entries"] == 2


class TestConcurrentAccess:
    """gc racing live ``get``/``put`` traffic must never corrupt or
    crash — the serve executor collects garbage while jobs run."""

    def test_gc_racing_get_and_put(self, tmp_path):
        import threading

        cache = StageCache(root=tmp_path, enabled=True)
        payload = {"vector": list(range(256))}
        stop = threading.Event()
        failures = []

        def churn(worker: int) -> None:
            try:
                n = 0
                while not stop.is_set():
                    key = cache.key("synthesis", "churn", worker, n % 17)
                    cache.put("synthesis", key, payload)
                    got = cache.get("synthesis", key)
                    # Eviction between put and get is legal; a value,
                    # when present, must be intact.
                    if got is not None and got != payload:
                        failures.append((worker, n, got))
                    n += 1
            except Exception as exc:  # noqa: BLE001 - record, don't hang
                failures.append((worker, "exception", repr(exc)))

        threads = [
            threading.Thread(target=churn, args=(w,)) for w in range(3)
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in range(25):
                report = collect_garbage(root=tmp_path, max_bytes=4096)
                assert report.errors == 0
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert failures == []
        # The cache stays fully usable after the churn.
        key = cache.key("synthesis", "after")
        cache.put("synthesis", key, payload)
        assert cache.get("synthesis", key) == payload

    def test_gc_subprocess_racing_writer(self, tmp_path):
        """A real ``repro cache gc`` process racing in-process writes."""
        import subprocess
        import sys
        import threading
        from pathlib import Path

        cache = StageCache(root=tmp_path, enabled=True)
        stop = threading.Event()
        failures = []

        def churn() -> None:
            try:
                n = 0
                while not stop.is_set():
                    key = cache.key("physical", "sub", n % 13)
                    cache.put("physical", key, n)
                    value = cache.get("physical", key)
                    if value is not None and value != n:
                        failures.append((n, value))
                    n += 1
            except Exception as exc:  # noqa: BLE001
                failures.append(("exception", repr(exc)))

        writer = threading.Thread(target=churn)
        writer.start()
        try:
            env = dict(os.environ)
            src = str(Path(__file__).resolve().parents[1] / "src")
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            for _ in range(3):
                proc = subprocess.run(
                    [sys.executable, "-m", "repro", "cache",
                     "--dir", str(tmp_path), "gc", "--max-size", "2K",
                     "--json"],
                    capture_output=True, text=True, env=env, timeout=120,
                )
                assert proc.returncode == 0, proc.stderr
                report = json.loads(proc.stdout)
                assert report["errors"] == 0
        finally:
            stop.set()
            writer.join(timeout=30)
        assert failures == []
