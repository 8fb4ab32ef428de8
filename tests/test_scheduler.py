"""Tests for the stage DAG (``repro.flow.scheduler``), the one code path
that runs flow stages.

Five contracts:

* **Structure** — the task DAG mirrors ``STAGE_INPUTS`` exactly, dedups
  nodes on (stage, key), and orders ready tasks critical-path-first.
* **Determinism** — the in-process executor (``jobs=1``) and the worker
  pool produce bit-identical tables at any ``--jobs``; ``use_cache=False``
  and ``REPRO_NO_CACHE`` persist nothing, and no artifact outlives its
  run.
* **One owner of the cache** — the calling process does every cache
  read and write, so ``check`` audits cached stages, cache traffic and
  the bytes of every entry are the same at every job count and on a
  partly warm cache, and evicting entries mid-run cannot change a pool
  run.
* **Failure isolation and cancellation, at every job count** — a raising
  stage task, or one whose artifact cannot be pickled, fails only the
  cells that transitively depend on it, surfaces the original traceback,
  and leaves every other cell's finished result intact; ``cancel`` stops
  a run before its next stage.  ``TestFailureIsolation`` and
  ``TestInterruption`` run at ``jobs=2``; their ``InProcess`` subclasses
  rerun every test at ``jobs=1``.  A pool worker that dies costs the
  tasks that were on its pool one rerun on a fresh pool from the same
  input pickles; a task lost twice fails as a ``StageFailure``
  (``TestKilledWorker``, ``jobs=2``).
* **Collector scope** — loaded artifacts are frozen out of the cyclic
  collector while their run lasts and never after it, however it ends.
"""

import gc
import hashlib
import os
import shutil
import time
from dataclasses import replace

import pytest

from repro.flow.cache import StageCache, collect_garbage
from repro.flow.experiments import Matrix, build_design
from repro.flow.flow import STAGE_INPUTS, STAGES, architecture_of, stage_keys
from repro.flow.options import FlowOptions
from repro.flow.parallel import run_cells
from repro.flow.scheduler import (
    STAGE_WEIGHTS,
    FlowCancelled,
    StageFailure,
    build_task_graph,
    run_stage_graph,
)
from repro.pack.quadrisection import SlotAssignment

from test_parallel_cache import _table_text
from test_work_counts import work_counts

FAST = FlowOptions(
    place_effort=0.05, place_iterations=1, pack_iterations=1, seed=11
)
CELLS = [("alu", "granular"), ("alu", "lut")]
SCALE = 0.15


def _entries(root):
    """The sha256 of every stage entry under the cache ``root``."""
    return {
        f"{stage}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for stage in STAGES
        for path in sorted((root / stage).glob("*.pkl"))
    }


def _keys_for(cells, tag=""):
    """Synthetic per-cell stage-key chains (unique unless cells repeat)."""
    return {
        cell: {stage: f"{tag}{cell[0]}-{cell[1]}-{stage}" for stage in STAGES}
        for cell in cells
    }


class TestTaskGraph:
    def test_full_matrix_is_forty_tasks(self):
        cells = [(d, a) for d in ("alu", "firewire", "fpu", "netswitch")
                 for a in ("granular", "lut")]
        tasks = build_task_graph(cells, _keys_for(cells))
        assert len(tasks) == 40
        assert all(t.state == "pending" for t in tasks)

    def test_edges_mirror_stage_inputs(self):
        cells = CELLS[:1]
        tasks = build_task_graph(cells, _keys_for(cells))
        by_stage = {t.stage: t for t in tasks}
        for stage, parents in STAGE_INPUTS.items():
            assert by_stage[stage].deps == {
                by_stage[p].tid for p in parents
            }
        for stage in STAGES:
            assert by_stage[stage].waiting == len(STAGE_INPUTS[stage])

    def test_duplicate_cells_collapse(self):
        cells = [("alu", "granular"), ("alu", "granular2")]
        keys = _keys_for(cells)
        # Same design + options -> identical chains for both cells.
        keys[cells[1]] = keys[cells[0]]
        tasks = build_task_graph(cells, keys)
        assert len(tasks) == len(STAGES)
        assert all(t.cells == cells for t in tasks)

    def test_priorities_are_critical_path_first(self):
        cells = CELLS[:1]
        tasks = build_task_graph(cells, _keys_for(cells))
        prio = {t.stage: t.priority for t in tasks}
        # Leaves carry their own weight; interior nodes add the heaviest
        # downstream path.
        assert prio["route_b"] == STAGE_WEIGHTS["route_b"]
        assert prio["route_a"] == STAGE_WEIGHTS["route_a"]
        assert prio["packing"] == pytest.approx(
            STAGE_WEIGHTS["packing"] + prio["route_b"]
        )
        assert prio["physical"] == pytest.approx(
            STAGE_WEIGHTS["physical"] + max(prio["route_a"], prio["packing"])
        )
        assert prio["synthesis"] == pytest.approx(
            STAGE_WEIGHTS["synthesis"] + prio["physical"]
        )
        assert (
            prio["synthesis"] > prio["physical"] > prio["packing"]
            > prio["route_a"]
        )


class TestBitIdenticalSchedules:
    def test_all_schedules_identical_at_all_job_counts(
        self, tmp_path, monkeypatch
    ):
        """In-process (jobs=1) vs the pool at jobs 2/4: same bytes.

        Cache off, so every run recomputes every stage from scratch —
        any drift between the executors would change the full-precision
        table text.
        """
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        options = replace(FAST, use_cache=False)
        inline = _table_text(run_cells(CELLS, SCALE, options, jobs=1))
        for jobs in (2, 4):
            runs = run_cells(CELLS, SCALE, options, jobs=jobs)
            assert list(runs) == CELLS, jobs
            assert _table_text(runs) == inline, jobs

    def test_stage_runs_report_all_stages(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runs = run_cells(CELLS, SCALE, FAST, jobs=2)
        for cell in CELLS:
            run = runs[cell]
            assert set(run.stage_seconds) == set(STAGES)
            assert set(run.stage_cached) == set(STAGES)
            assert run.cache_stats is not None
            assert "total" in run.performance_report()

    def test_warm_cache_collapses_every_task(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cold = run_cells(CELLS, SCALE, FAST, jobs=2)
        warm = run_cells(CELLS, SCALE, FAST, jobs=2)
        for cell in CELLS:
            assert all(warm[cell].stage_cached.values())
            assert not any(cold[cell].stage_cached.values())
            assert warm[cell].flow_b.die_area == cold[cell].flow_b.die_area
            assert (
                warm[cell].flow_a.average_slack
                == cold[cell].flow_a.average_slack
            )

    def test_transport_mode_persists_nothing(self, tmp_path, monkeypatch):
        """use_cache=False still runs the pool but leaves zero files."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runs = run_cells(
            CELLS, SCALE, replace(FAST, use_cache=False), jobs=2
        )
        assert list(runs) == CELLS
        assert not list(tmp_path.rglob("*.pkl"))

    def test_no_cache_env_uses_transport(self, tmp_path, monkeypatch):
        """REPRO_NO_CACHE=1 must not break a pool run."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        runs = run_cells(CELLS, SCALE, FAST, jobs=2)
        assert list(runs) == CELLS
        assert not list(tmp_path.rglob("*.pkl"))

    def test_no_artifact_outlives_its_run(self, tmp_path, monkeypatch):
        """An in-process run leaves nothing in a process global for the
        forked workers of a later pool run: with the cache off, that run
        computes every stage."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_cells(CELLS, SCALE, FAST, jobs=1)
        runs = run_cells(CELLS, SCALE, replace(FAST, use_cache=False), jobs=2)
        for cell in CELLS:
            assert not any(runs[cell].stage_cached.values()), cell


class TestParentOwnsCache:
    """The calling process does every cache read and write at every job
    count; a pool worker computes from the artifacts shipped to it."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_check_audits_cached_stages(self, jobs, tmp_path, monkeypatch):
        """A digest-valid but illegal cached packing fails its audit."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        (cell,) = CELLS[:1]
        run_cells([cell], SCALE, FAST, jobs=1)
        cache = StageCache()
        key = stage_keys(
            cache, build_design(cell[0], SCALE), FAST.with_arch(cell[1])
        )["packing"]
        packed = cache.get("packing", key)
        packing = packed.packing
        name, slot = min(packing.assignments.items())
        packing.assignments[name] = SlotAssignment(
            plb=(packing.cols + 5, 0), slot=slot.slot,
        )
        cache.put("packing", key, packed)
        with pytest.raises(StageFailure) as excinfo:
            run_cells([cell], SCALE, replace(FAST, check=True), jobs=jobs)
        assert excinfo.value.stage == "packing"
        assert "PK003" in excinfo.value.traceback_text

    def test_cache_traffic_does_not_depend_on_jobs(
        self, tmp_path, monkeypatch
    ):
        """Cold then warm, each job count on a fresh cache: the same
        hits, misses and bytes, the same stages reported cached, and
        entries with the same bytes."""
        traffic, entries = {}, {}
        for jobs in (1, 2):
            root = tmp_path / f"j{jobs}"
            monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
            traffic[jobs] = []
            for _pass in ("cold", "warm"):
                runs = run_cells(CELLS, SCALE, FAST, jobs=jobs)
                traffic[jobs].append((
                    Matrix(runs=runs).aggregate_cache_stats(),
                    {cell: run.stage_cached for cell, run in runs.items()},
                ))
            entries[jobs] = _entries(root)
        assert traffic[1] == traffic[2]
        (cold_stats, _), (warm_stats, _) = traffic[2]
        assert (cold_stats.hits, cold_stats.misses) == (0, 10)
        assert (warm_stats.hits, warm_stats.misses) == (10, 0)
        assert len(entries[1]) == 10
        assert entries[1] == entries[2]

        # A cache holding only the cold run's synthesis entries: the
        # stages computed from the loaded synthesis write the same bytes.
        partly = tmp_path / "synthesis-only"
        shutil.copytree(tmp_path / "j1" / "synthesis", partly / "synthesis")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(partly))
        runs = run_cells(CELLS, SCALE, FAST, jobs=1)
        assert all(run.stage_cached["synthesis"] for run in runs.values())
        assert _entries(partly) == entries[1]

    def test_eviction_mid_run_cannot_affect_pool_run(
        self, tmp_path, monkeypatch
    ):
        """``repro cache gc`` emptying the cache before every task: the
        pool run recomputes every stage and its tables do not change."""
        root = tmp_path / "evicted"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))

        def evict():
            collect_garbage(root, max_bytes=0)
            return False

        runs = run_cells(CELLS, SCALE, FAST, jobs=2, cancel=evict)
        for cell in CELLS:
            assert not any(runs[cell].stage_cached.values()), cell
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "undisturbed"))
        undisturbed = run_cells(CELLS, SCALE, FAST, jobs=2)
        assert _table_text(runs) == _table_text(undisturbed)

    @staticmethod
    def _flag_start(monkeypatch, name, marker):
        """Touch ``marker`` when the flow function ``name`` starts; pool
        workers are forked after the patch, so they inherit it."""
        from repro.flow import flow as flow_mod

        real = getattr(flow_mod, name)

        def flagged(*args):
            marker.touch()
            return real(*args)

        monkeypatch.setattr(flow_mod, name, flagged)

    def test_interrupt_stores_what_is_in_flight(self, tmp_path, monkeypatch):
        """The parent stores what the running task returns before a
        KeyboardInterrupt propagates, and starts nothing new."""
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        started = tmp_path / "synthesis-started"
        self._flag_start(monkeypatch, "synthesize", started)

        def interrupt_once_started():
            if started.exists():
                raise KeyboardInterrupt
            return False

        with pytest.raises(KeyboardInterrupt):
            run_cells(CELLS[:1], SCALE, FAST, jobs=2,
                      cancel=interrupt_once_started)
        assert len(list((cache / "synthesis").glob("*.pkl"))) == 1
        assert not (cache / "physical").exists()

    def test_cancel_once_the_last_task_runs_completes(
        self, tmp_path, monkeypatch
    ):
        """A cancel that arrives after the last task started stores what
        it returns and ends the run normally."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        started = tmp_path / "route_b-started"
        self._flag_start(monkeypatch, "_flow_b_result", started)
        runs = run_cells(CELLS[:1], SCALE, FAST, jobs=2,
                         cancel=started.exists)
        assert started.exists()
        assert not any(runs[CELLS[0]].stage_cached.values())


def _inject_lut_packing_fault(monkeypatch):
    """Make the packing stage raise for the LUT architecture only.

    Patches the module-global the stage registry dispatches through;
    pool workers are forked after the patch, so they inherit it.
    """
    from repro.flow import flow as flow_mod

    real = flow_mod._pack_stage

    def boom(synthesis, physical, options):
        # The packing slice has no ``arch``; the artifact carries it.
        if synthesis.arch.name == "lut":
            raise RuntimeError("injected packing fault")
        return real(synthesis, physical, options)

    monkeypatch.setattr(flow_mod, "_pack_stage", boom)


def _inject_unpicklable_route_a(monkeypatch):
    """Give the granular cell's route_a routing an attribute that pickle
    rejects; forked pool workers inherit the patch."""
    from repro.flow import scheduler

    real = scheduler.compute_stage

    def unpicklable(stage, options, artifacts, netlist=None):
        artifact = real(stage, options, artifacts, netlist=netlist)
        if stage == "route_a":
            if artifacts["synthesis"].arch.name == "granular":
                artifact.routing.probe = lambda: None
        return artifact

    monkeypatch.setattr(scheduler, "compute_stage", unpicklable)


class TestFailureIsolation:
    jobs = 2

    def test_stage_failure_fails_only_dependent_cells(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        _inject_lut_packing_fault(monkeypatch)
        with pytest.raises(StageFailure) as excinfo:
            run_cells(CELLS, SCALE, FAST, jobs=self.jobs)
        failure = excinfo.value
        assert failure.cell == ("alu", "lut")
        assert failure.stage == "packing"
        # The original traceback is surfaced, both as a field and in the
        # exception text.
        assert "injected packing fault" in failure.traceback_text
        assert "RuntimeError" in failure.traceback_text
        assert "injected packing fault" in str(failure)
        # Only packing and its dependent route_b were lost, only for lut.
        assert set(failure.failed) == {
            (("alu", "lut"), "packing"),
            (("alu", "lut"), "route_b"),
        }
        # The unaffected cell finished with a complete result.
        assert set(failure.completed) == {("alu", "granular")}
        survivor = failure.completed[("alu", "granular")]
        assert survivor.flow_b.die_area > 0
        assert set(survivor.stage_seconds) == set(STAGES)

    def test_completed_cell_matches_clean_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "clean"))
        clean = run_cells(CELLS[:1], SCALE, FAST, jobs=self.jobs)[
            ("alu", "granular")
        ]

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "faulty"))
        _inject_lut_packing_fault(monkeypatch)
        with pytest.raises(StageFailure) as excinfo:
            run_cells(CELLS, SCALE, FAST, jobs=self.jobs)
        survivor = excinfo.value.completed[("alu", "granular")]
        assert survivor.flow_b.die_area == clean.flow_b.die_area
        assert survivor.flow_a.average_slack == clean.flow_a.average_slack

    def test_unpicklable_artifact_fails_its_task(self, tmp_path, monkeypatch):
        """Pickling an artifact, for the pool's return trip or for the
        cache, fails that task like a raising stage would."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        _inject_unpicklable_route_a(monkeypatch)
        with pytest.raises(StageFailure) as excinfo:
            run_cells(CELLS, SCALE, FAST, jobs=self.jobs)
        failure = excinfo.value
        assert failure.cell == ("alu", "granular")
        assert failure.failed == [(("alu", "granular"), "route_a")]
        assert "pickle" in failure.traceback_text
        assert set(failure.completed) == {("alu", "lut")}
        assert failure.completed[("alu", "lut")].flow_b.die_area > 0


class TestFailureIsolationInProcess(TestFailureIsolation):
    jobs = 1


def _outcome(run):
    """What a cell's run produced, without its timings."""
    return (
        list(run.physical.placement.sites.items()),
        [
            (flow.die_area, flow.average_slack, flow.worst_slack,
             flow.plbs_used, flow.packing_displacement)
            for flow in (run.flow_a, run.flow_b)
        ],
    )


class TestKilledWorker:
    """A pool worker that dies costs the tasks it took down with it one
    rerun on a fresh pool; a task lost twice fails as a ``StageFailure``,
    and every other cell still completes."""

    def test_killed_worker_fails_only_its_cell(self, tmp_path, monkeypatch):
        from repro.flow import flow as flow_mod

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "clean"))
        clean = run_cells(CELLS[:1], SCALE, FAST, jobs=2)[CELLS[0]]

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "faulty"))
        release = tmp_path / "release"
        real = flow_mod._pack_stage
        parent = os.getpid()

        def die(synthesis, physical, options):
            # Forked workers inherit the patch.  The LUT cell's packing
            # worker exits once every other task has been stored, so no
            # task of the granular cell is on the pool when it dies.
            if synthesis.arch.name == "lut" and os.getpid() != parent:
                deadline = time.monotonic() + 60
                while not release.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                os._exit(9)
            return real(synthesis, physical, options)

        monkeypatch.setattr(flow_mod, "_pack_stage", die)
        stored = []

        def progress(stage, cache_hit, seconds):
            stored.append(stage)
            if len(stored) == 2 * len(STAGES) - 2:
                release.touch()

        with pytest.raises(StageFailure) as excinfo:
            run_stage_graph(CELLS, SCALE, FAST, jobs=2, progress=progress)
        failure = excinfo.value
        assert failure.cell == ("alu", "lut")
        assert failure.stage == "packing"
        assert "BrokenProcessPool" in failure.traceback_text
        assert set(failure.failed) == {
            (("alu", "lut"), "packing"),
            (("alu", "lut"), "route_b"),
        }
        assert set(failure.completed) == {("alu", "granular")}
        survivor = failure.completed[("alu", "granular")]
        assert _outcome(survivor) == _outcome(clean)

    def test_broken_pool_is_replaced(self, tmp_path, monkeypatch):
        """A pool found broken when a task is handed over: the task it
        held reruns on a fresh pool, with the handed-over task, and
        both cells end as in a clean run."""
        from repro.flow import scheduler

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "clean"))
        clean = run_cells(CELLS, SCALE, FAST, jobs=2)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "faulty"))
        # Workers fork with a copy of ``held``: the first pool's hold
        # their synthesis task until they die, the fresh pool's do not.
        held = {"synthesis": True}
        real = scheduler.compute_stage

        def hold(stage, options, artifacts, netlist=None):
            deadline = time.monotonic() + 60
            while held.get(stage) and time.monotonic() < deadline:
                time.sleep(0.01)
            return real(stage, options, artifacts, netlist=netlist)

        pools = []

        class BreakOnSecondSubmit(scheduler.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)
                self.cells = []

            def submit(self, fn, *args, **kwargs):
                self.cells.append(args[1])
                if len(pools) == 1 and len(self.cells) == 2:
                    # A worker dies while the first task is held.
                    killer = super().submit(os._exit, 9)
                    assert killer.exception(timeout=60) is not None
                    held.clear()
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(scheduler, "compute_stage", hold)
        monkeypatch.setattr(scheduler, "ProcessPoolExecutor",
                            BreakOnSecondSubmit)
        runs = run_stage_graph(CELLS, SCALE, FAST, jobs=2)
        held_cell, handed_over = pools[0].cells
        assert len(pools) == 2
        assert pools[1].cells[:2] == [held_cell, handed_over]
        for cell in CELLS:
            assert _outcome(runs[cell]) == _outcome(clean[cell]), cell

    def test_worker_killed_once_is_rerun(self, tmp_path, monkeypatch):
        """The LUT cell's packing worker dies once: every task that was
        on its pool reruns on a fresh pool, and the run ends with the
        tables and cache entries of a clean run."""
        from repro.flow import flow as flow_mod

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "clean"))
        clean = run_cells(CELLS, SCALE, FAST, jobs=2)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "faulty"))
        died = tmp_path / "died"
        real = flow_mod._pack_stage
        parent = os.getpid()

        def die_once(synthesis, physical, options):
            if (synthesis.arch.name == "lut" and os.getpid() != parent
                    and not died.exists()):
                died.touch()
                os._exit(9)
            return real(synthesis, physical, options)

        monkeypatch.setattr(flow_mod, "_pack_stage", die_once)
        runs = run_cells(CELLS, SCALE, FAST, jobs=2)
        assert died.exists()
        assert _table_text(runs) == _table_text(clean)
        assert _entries(tmp_path / "faulty") == _entries(tmp_path / "clean")


class TestStageModeJournal:
    def test_matrix_produces_one_merged_journal(self, tmp_path, monkeypatch):
        from repro.obs import export, journal

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path / "journals"))
        runs = run_cells(CELLS, SCALE, replace(FAST, observe=True), jobs=2)
        assert list(runs) == CELLS

        journals = list((tmp_path / "journals").glob("*.jsonl"))
        assert len(journals) == 1, "workers must not write their own journals"
        events = journal.read_journal(journals[0])

        run_cells_spans = [
            e for e in events
            if e["ev"] == "span" and e["name"] == "run_cells"
        ]
        assert len(run_cells_spans) == 1
        assert run_cells_spans[0]["attrs"]["jobs"] == 2
        graph_spans = [
            e for e in events
            if e["ev"] == "span" and e["name"] == "sched.graph"
        ]
        assert len(graph_spans) == 1
        assert graph_spans[0]["attrs"]["tasks"] == len(CELLS) * len(STAGES)
        assert graph_spans[0]["attrs"]["precached"] == 0

        # One flow.<stage> span per (cell, stage) task, worker-recorded.
        task_spans = [
            e for e in events
            if e["ev"] == "span"
            and e["name"].startswith("flow.")
            and (e.get("attrs") or {}).get("sched") == "stage"
        ]
        assert len(task_spans) == len(CELLS) * len(STAGES)
        # ...on the pool: span ids embed the recording pid.
        span_pids = {int(e["sid"].split(":")[0]) for e in task_spans}
        assert span_pids - {os.getpid()}, "no stage ran on a worker"

        # Scheduler dispatch/completion points for every task.
        points = [e for e in events if e["ev"] == "point"]
        names = [e["name"] for e in points]
        assert names.count("sched.dispatch") == len(CELLS) * len(STAGES)
        assert names.count("sched.task") == len(CELLS) * len(STAGES)
        outcomes = {
            e["attrs"]["outcome"]
            for e in points
            if e["name"] == "sched.task"
        }
        assert outcomes == {"ok"}

        # The parent counts its own collections per generation.
        counters = export.merge_counters(events)
        for gen in range(3):
            assert f"gc.collections.gen{gen}" in counters, gen

        # The journal renders as a Gantt with one bar per task.
        gantt = export.format_gantt(events)
        assert f"{len(CELLS) * len(STAGES)} stage tasks" in gantt
        assert "alu/granular:physical" in gantt

        # Worker counters merge into the same work as one process does.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-1"))
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path / "journals-1"))
        run_cells(CELLS, SCALE, replace(FAST, observe=True), jobs=1)
        (inline,) = (tmp_path / "journals-1").glob("*.jsonl")
        pooled = work_counts(events)
        assert pooled["sa.evaluated"] > 0 and pooled["synth.cuts"] > 0
        assert pooled == work_counts(journal.read_journal(inline))

    def test_gantt_on_sched_free_journal_hints(self):
        from repro.obs import export

        assert "no scheduler task spans" in export.format_gantt([])


class TestInterruption:
    """Graceful interruption: the ``cancel`` hook stops a run before its
    next stage at every job count, and at ``jobs=2`` both it and
    KeyboardInterrupt store what the in-flight pool tasks return and shut
    the pool down in order.  Either way the run leaves a loadable entry
    per completed task, no temporary file and nothing frozen (the serve
    executor's cancellation path rides on this)."""

    jobs = 2

    def test_cancel_hook_interrupts_serial_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        with pytest.raises(FlowCancelled, match="0 task"):
            run_cells(CELLS, SCALE, FAST, jobs=self.jobs, cancel=lambda: True)

    def test_cancel_after_first_cell_reports_progress(
        self, tmp_path, monkeypatch
    ):
        """One finished task is reported (one cell, so a second worker
        has nothing to race the cancellation with)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        polls = iter([False, True, True, True])
        with pytest.raises(FlowCancelled) as err:
            run_cells(CELLS[:1], SCALE, FAST, jobs=self.jobs,
                      cancel=lambda: next(polls))
        assert "1 task(s) completed" in str(err.value)

    def test_cancel_hook_interrupts_stage_graph(self, tmp_path, monkeypatch):
        """The exception names the first stage that never ran."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        with pytest.raises(FlowCancelled) as err:
            run_cells(CELLS, SCALE, FAST, jobs=self.jobs, cancel=lambda: True)
        assert err.value.next_stage == "synthesis"
        assert "cancelled before stage 'synthesis'" in str(err.value)
        assert (err.value.done, err.value.pending) == (
            0, len(CELLS) * len(STAGES)
        )

    def test_cancel_stops_one_cell_between_stages(
        self, tmp_path, monkeypatch
    ):
        """A one-cell run (``fpu_full``, a serve ``flow`` job) stops at its
        next stage boundary, not at the end of the cell."""
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))

        def synthesized():
            return any((cache / "synthesis").glob("*.pkl"))

        with pytest.raises(FlowCancelled) as err:
            run_cells(CELLS[:1], SCALE, FAST, jobs=self.jobs,
                      cancel=synthesized)
        assert err.value.cell == CELLS[0]
        assert err.value.next_stage == "physical"
        assert err.value.done == 1
        assert not (cache / "physical").exists()

    def _assert_orderly_leftovers(self, cache, done=None):
        """What an interrupted run must leave behind: an entry for each
        completed task that loads cleanly, no temporary file, and no
        object frozen out of the collector."""
        assert gc.get_freeze_count() == 0
        assert list(cache.rglob("*.tmp")) == []
        store = StageCache(cache)
        expected = {
            (stage, key)
            for design, arch in CELLS
            for stage, key in stage_keys(
                store, build_design(design, SCALE), FAST.with_arch(arch)
            ).items()
        }
        entries = [
            (stage, path.stem)
            for stage in STAGES
            for path in sorted((cache / stage).glob("*.pkl"))
        ]
        assert entries and set(entries) <= expected
        if done is not None:
            assert len(entries) == done
        for stage, key in entries:
            assert store.get(stage, key) is not None, (stage, key)
        assert store.stats.corrupt == 0

    def test_cancel_leaves_loadable_entries_and_no_tmp(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        polls = iter([False] * 3 + [True] * 200)
        with pytest.raises(FlowCancelled) as err:
            run_cells(CELLS, SCALE, FAST, jobs=self.jobs,
                      cancel=lambda: next(polls))
        self._assert_orderly_leftovers(cache, done=err.value.done)

    def test_keyboard_interrupt_takes_orderly_path(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        polls = iter([False] * 3)

        def interrupted():
            if next(polls, None) is None:
                raise KeyboardInterrupt
            return False

        with pytest.raises(KeyboardInterrupt):
            run_cells(CELLS, SCALE, FAST, jobs=self.jobs,
                      cancel=interrupted)
        self._assert_orderly_leftovers(cache)

    def test_partial_results_resume_warm(self, tmp_path, monkeypatch):
        """A cancelled matrix rerun reuses every completed stage."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        polls = iter([False] * 3 + [True] * 200)
        with pytest.raises(FlowCancelled):
            run_cells(CELLS, SCALE, FAST, jobs=self.jobs,
                      cancel=lambda: next(polls))
        runs = run_cells(CELLS, SCALE, FAST, jobs=1)
        hits = sum(
            sum(run.stage_cached.values()) for run in runs.values()
        )
        assert hits >= 2, "interrupted progress must persist in the cache"


class TestInterruptionInProcess(TestInterruption):
    jobs = 1


@pytest.fixture(scope="module")
def one_cell_cache(tmp_path_factory):
    """A stage cache holding every stage of ``CELLS[0]``."""
    root = tmp_path_factory.mktemp("one-cell-cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(root))
        run_cells(CELLS[:1], SCALE, FAST, jobs=1)
    return root


def test_loaded_artifacts_share_the_library(
    tmp_path, monkeypatch, one_cell_cache
):
    """Component cells and the built-in architectures pickle as references,
    so every artifact loaded from the cache uses this process's objects."""
    shutil.copytree(one_cell_cache, tmp_path / "cache")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    run = run_cells(CELLS[:1], SCALE, FAST, jobs=1)[CELLS[0]]
    assert all(run.stage_cached.values())
    arch = architecture_of(CELLS[0][1])
    assert run.synthesis.arch is arch
    for netlist in (
        run.synthesis.netlist, run.physical.netlist, run.packed.netlist
    ):
        for inst in netlist.instances.values():
            assert inst.cell is arch.library.cell(inst.cell.name)


@pytest.mark.parametrize("jobs", [1, 2])
class TestCollectorScope:
    """Artifacts loaded from the cache or returned by the pool are frozen
    out of the cyclic collector while their run lasts.  However the run
    ends, nothing stays frozen, and the collector is left enabled or
    disabled as the caller had it."""

    @pytest.fixture(autouse=True)
    def warm(self, tmp_path, monkeypatch, one_cell_cache):
        """Each test runs on its own copy of the one-cell cache."""
        cache = tmp_path / "cache"
        shutil.copytree(one_cell_cache, cache)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))

    @pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
    def collector(self, request):
        """The collector state the caller sets before the run."""
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("ending, raised", [
        ("returns", None),
        ("fails", StageFailure),
        ("is-cancelled", FlowCancelled),
        ("is-interrupted", KeyboardInterrupt),
    ])
    def test_nothing_stays_frozen(
        self, jobs, ending, raised, collector, monkeypatch
    ):
        cells, polls = CELLS[:1], iter([False, False])

        def cancel():
            """Let the first two tasks start, then end the run."""
            if not next(polls, True):
                return False
            if ending == "is-interrupted":
                raise KeyboardInterrupt
            return ending == "is-cancelled"

        if ending == "fails":
            # The cached cell loads; the other one fails in packing.
            _inject_lut_packing_fault(monkeypatch)
            cells = CELLS
        if raised is None:
            run_cells(cells, SCALE, FAST, jobs=jobs, cancel=cancel)
        else:
            with pytest.raises(raised):
                run_cells(cells, SCALE, FAST, jobs=jobs, cancel=cancel)
        assert gc.get_freeze_count() == 0
        assert gc.isenabled() is collector

    def test_loaded_artifacts_are_frozen_during_the_run(self, jobs):
        """From the first cache hit on, every finished task sees frozen
        objects: cached stages of the first cell, then (at ``jobs=2``
        returned from the pool) the second cell's computed stages."""
        frozen = {}

        def progress(stage, cache_hit, _seconds):
            frozen.setdefault(cache_hit, []).append(gc.get_freeze_count())

        run_stage_graph(CELLS, SCALE, FAST, jobs, progress=progress)
        assert sorted(frozen) == [False, True]
        assert len(frozen[True]) == len(STAGES)
        assert min(frozen[True] + frozen[False]) > 0
        assert gc.get_freeze_count() == 0
