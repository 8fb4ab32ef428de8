"""The stage DAG: the one code path that runs flow stages.

Every flow run — one cell (:func:`repro.flow.flow.run_design`) or the
evaluation matrix (:func:`repro.flow.parallel.run_cells`) at any job
count — is decomposed into an explicit task DAG of (cell, stage) nodes
(40 tasks for the paper's full 8-cell matrix) whose edges come straight
from the ``inputs`` of the stage records
(:data:`repro.flow.flow.PIPELINE`), the same relation the sha256
cache-key chain mirrors.  Nodes whose (stage, key) another node already
claimed collapse onto it, so duplicate cells share one computation.

One dispatch loop runs the DAG at every job count, and the calling
process owns the stage cache (:mod:`repro.flow.cache`) throughout.  When
a task leaves the ready heap the loop does its one cache ``get``; a hit
finishes the task on the spot (audited here when ``check`` is on), so a
warm matrix runs no stage at all.  A miss computes the stage:

* **jobs=1: in the calling process.**  The ready heap pops in task-id
  order, which is cell-major (one cell's five stages, then the next
  cell's), as a loop over cells would run.
* **jobs>1: on a pool of worker processes**, critical-path task first:
  the heap pops the stage of greatest height (the longest chain of
  stages from it to the end of the pipeline, itself included), then the
  lowest task id.  Every cell's synthesis is issued before any physical
  stage, so cell B's synthesis overlaps cell A's physical stage and the
  wall-clock approaches ``max(critical_path, total_work / jobs)``.
  Plain task-id order here measured slower on a cold 2-worker matrix.
  A worker never opens the cache.

An artifact is its pickle, made once where its stage ran: that pickle is
the cache entry, written as it is, and what the pool receives for each
dependent.  Every stage computes from its inputs as loaded from their
own pickles, in this process too, so the pickles it makes, and every
cache entry, have the same bytes however its inputs arrived and at any
job count.  The loop keeps every loaded artifact, by task, until each
cell's :class:`~repro.flow.flow.DesignRun` is assembled, in input order.
Stages are pure per (inputs, options slice, seed), so results, like
cache traffic, are bit-identical at any job count; ``use_cache=False``
persists nothing.

Artifacts are loaded with the cyclic collector paused.  A cache hit or a
pool task's result is then frozen (:func:`gc.freeze`) until the run
ends, however it ends: it lives that long and holds no garbage cycles,
so the collector could only waste time rescanning it.  An artifact
computed in this process is not frozen, as that would freeze the garbage
its stage left too; a young-generation collection before its load frees
the last of that garbage for the load to reuse.  Traced runs count this
process's collections per generation as ``gc.collections.gen0`` /
``gen1`` / ``gen2``.

The failure and cancellation contract is the same at every job count.
A stage that raises, or whose artifact cannot be pickled, fails only the
cells that depend on it: the run ends with :class:`StageFailure` carrying
the original traceback and every completed cell's result.  A pool worker
that dies (killed, or ``os._exit``) breaks its pool; every task on it
reruns once on a fresh pool from the same input pickles, and fails as
above, with the ``BrokenProcessPool`` traceback, if that pool breaks
too.  Once the ``cancel`` hook, polled before each task starts, returns
True, the run starts nothing new, stores what the pool tasks in flight
return and raises :class:`FlowCancelled`; a rerun resumes warm.
"""

from __future__ import annotations

import gc
import heapq
import pickle
import sys
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..netlist.core import Netlist
from ..obs import core as _obs
from .cache import CacheStats, NullCache, StageCache
from .flow import (
    _RECURSION_LIMIT,
    PIPELINE,
    STAGE_RECORDS,
    STAGES,
    DesignRun,
    compute_stage,
    guard_stage,
    stage_keys,
)
from .options import FlowOptions

Cell = Tuple[str, str]


def _heights() -> Dict[str, int]:
    """Each stage's height: the longest chain of stages from it to the
    end of the pipeline, itself included (synthesis 4 ... route_b 1)."""
    height: Dict[str, int] = {}
    for stage in reversed(PIPELINE):
        height[stage.name] = 1 + max(
            (height[s.name] for s in PIPELINE if stage.name in s.inputs),
            default=0,
        )
    return height


#: Stage name -> height, the pool's dispatch priority.  Only the *order*
#: of ready tasks depends on it; results never do.
HEIGHTS = _heights()


class FlowCancelled(RuntimeError):
    """The ``cancel`` hook stopped a run before its DAG drained.

    ``cell``/``next_stage`` name the first task that never ran, ``done``
    counts tasks that completed (their artifacts are in the stage cache,
    so the same request resubmitted later resumes warm from them) and
    ``pending`` counts tasks that never ran.
    """

    def __init__(self, cell: Cell, next_stage: str, done: int, pending: int):
        self.cell = cell
        self.next_stage = next_stage
        self.done = done
        self.pending = pending
        super().__init__(
            f"flow cancelled before stage {next_stage!r} of "
            f"{cell[0]}/{cell[1]}: {done} task(s) completed, "
            f"{pending} cancelled before running"
        )


class StageFailure(RuntimeError):
    """A stage task raised; only its dependent cells were lost.

    ``cell``/``stage`` locate the first failing task, ``traceback_text``
    is the original traceback (worker-side for a pool task), ``failed``
    lists every (cell, stage) pair that failed or was skipped because an
    upstream task failed, and ``completed`` maps every unaffected cell to
    its finished :class:`~repro.flow.flow.DesignRun`.  When the failing
    task ran in this process the original exception is also chained as
    ``__cause__``.
    """

    def __init__(
        self,
        cell: Cell,
        stage: str,
        traceback_text: str,
        failed: List[Tuple[Cell, str]],
        completed: Dict[Cell, DesignRun],
    ):
        self.cell = cell
        self.stage = stage
        self.traceback_text = traceback_text
        self.failed = failed
        self.completed = completed
        lost = sorted({f"{c[0]}/{c[1]}" for c, _stage in failed})
        super().__init__(
            f"stage task {stage} failed for cell {cell[0]}/{cell[1]} "
            f"(cells lost: {', '.join(lost)}; "
            f"{len(completed)} cell(s) completed)\n"
            f"--- original worker traceback ---\n{traceback_text}"
        )


@dataclass
class _Task:
    """One (cell, stage) node of the task DAG."""

    tid: int
    cell: Cell                    # primary cell (first to claim the key)
    stage: str
    key: str
    deps: Set[int] = field(default_factory=set)
    dependents: List[int] = field(default_factory=list)
    cells: List[Cell] = field(default_factory=list)  # all attached cells
    #: pending -> running -> done | failed | skipped
    state: str = "pending"
    waiting: int = 0              # unfinished dependency count
    hit: bool = False
    elapsed: float = 0.0
    stats: CacheStats = field(default_factory=CacheStats)
    events: Optional[List[dict]] = None
    error: Optional[str] = None
    exc: Optional[Exception] = None  # run in this process, or lost with a pool


# ----------------------------------------------------------------------
# DAG construction
# ----------------------------------------------------------------------

def build_task_graph(
    cells: Sequence[Cell],
    cell_keys: Dict[Cell, Dict[str, str]],
) -> List[_Task]:
    """The task DAG for ``cells`` given each cell's stage-key chain.

    Pure data transformation (no I/O) so tests can drive it directly:
    nodes dedup on (stage, key) — a later cell whose stage resolves to
    an already-claimed key attaches to the existing node.  Dependency
    edges mirror each stage record's ``inputs``.
    """
    tasks: List[_Task] = []
    by_key: Dict[Tuple[str, str], int] = {}
    for cell in cells:
        mine: Dict[str, int] = {}
        for stage in STAGES:
            key = cell_keys[cell][stage]
            existing = by_key.get((stage, key))
            if existing is not None:
                tasks[existing].cells.append(cell)
                mine[stage] = existing
                continue
            tid = len(tasks)
            task = _Task(tid=tid, cell=cell, stage=stage, key=key)
            task.cells.append(cell)
            for parent in STAGE_RECORDS[stage].inputs:
                task.deps.add(mine[parent])
                tasks[mine[parent]].dependents.append(tid)
            task.waiting = len(task.deps)
            tasks.append(task)
            by_key[(stage, key)] = tid
            mine[stage] = tid
    return tasks


def ready_order(task: _Task, jobs: int) -> Tuple[int, ...]:
    """``task``'s place in the ready heap, its task id last: task-id
    order in process, the greatest height first on the pool."""
    if jobs <= 1:
        return (task.tid,)
    return (-HEIGHTS[task.stage], task.tid)


# ----------------------------------------------------------------------
# One stage, in this process or a pool worker
# ----------------------------------------------------------------------

def _run_stage(
    stage: str,
    cell: Cell,
    options: FlowOptions,
    upstream: Dict[str, object],
    netlist: Optional[Netlist],
    cached: object = None,
) -> Tuple[Optional[bytes], float, Optional[Exception]]:
    """Compute one stage unless its ``cached`` artifact is given; audit it.

    Returns ``(pickle, seconds, exc)``: the pickle of the artifact this
    call computed, which is freed on return, and what the compute, the
    audit or the pickling raised.  An artifact that fails its audit is
    still pickled, to be stored like a cached one.  Never raises.
    """
    artifact, exc = cached, None
    start = time.perf_counter()  # check: allow(DT002) stage timing report only
    try:
        with _obs.span(
            f"flow.{stage}", stage=stage, design=cell[0], arch=cell[1],
            sched="stage", cached=cached is not None,
        ):
            if cached is None:
                artifact = compute_stage(
                    stage, options, upstream, netlist=netlist
                )
            guard_stage(
                stage, options, {**upstream, stage: artifact},
                f"{cell[0]}/{cell[1]}",
            )
    except Exception as err:
        exc = err
    elapsed = time.perf_counter() - start  # check: allow(DT002) stage timing report only
    _obs.observe(f"stage.seconds.{stage}", elapsed)
    blob = None
    if cached is None and artifact is not None:
        try:
            with _obs.span("sched.pickle", stage=stage) as span:
                blob = pickle.dumps(artifact, pickle.HIGHEST_PROTOCOL)
                span.set(bytes=len(blob))
        except Exception as err:  # an artifact that cannot be pickled
            exc = exc or err
    return blob, elapsed, exc


def _loads(blob: bytes, freeze: bool) -> object:
    """``pickle.loads(blob)`` with the collector paused, then frozen if
    ``freeze``; a caller that disabled the collector keeps it disabled
    (see the module docstring)."""
    enabled = gc.isenabled()
    if enabled and not freeze:
        gc.collect(0)
    gc.disable()
    try:
        artifact = pickle.loads(blob)
        if freeze:
            gc.freeze()
        return artifact
    finally:
        if enabled:
            gc.enable()


def _format(exc: Exception) -> str:
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )


def _pool_task(
    stage: str,
    cell: Cell,
    options: FlowOptions,
    inputs: Dict[str, bytes],
    netlist: Optional[Netlist],
    observe: bool,
) -> tuple:
    """Worker body: compute and audit one stage from its inputs' pickles.

    Returns ``(artifact pickle, seconds, events, error)`` and never
    raises: a failure comes back as its formatted traceback, so the
    parent fails exactly the dependent cells and keeps the rest of the
    matrix running.
    """
    if sys.getrecursionlimit() < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
    own_trace = observe and _obs.begin()
    upstream = {name: pickle.loads(blob) for name, blob in inputs.items()}
    blob, elapsed, exc = _run_stage(stage, cell, options, upstream, netlist)
    events = _obs.drain() if own_trace else None
    return blob, elapsed, events, None if exc is None else _format(exc)


def _warm_tables(arch_names: Sequence[str]) -> None:
    """Load the realization tables before the pool forks its workers.

    The tables are persisted through the content-addressed stage cache
    (see :func:`repro.synth.realize.table_for_cells`) and memoized per
    process, so forked workers inherit them instead of each loading (or,
    on a truly cold cache, building) them inside a synthesis task.
    Custom architectures without a table of their own are skipped.
    """
    from ..synth.realize import baseline_table, compaction_table

    for arch in arch_names:
        try:
            baseline_table(arch)
            compaction_table(arch)
        except ValueError:
            continue


# ----------------------------------------------------------------------
# The dispatch loop
# ----------------------------------------------------------------------

def run_stage_graph(
    cells: Sequence[Cell],
    scale: float = 1.0,
    options: FlowOptions = FlowOptions(),
    jobs: int = 1,
    cancel: Optional[Callable[[], bool]] = None,
    netlists: Optional[Dict[str, Netlist]] = None,
    cache: Optional[StageCache] = None,
    progress: Optional[Callable[[str, bool, float], None]] = None,
) -> Dict[Cell, DesignRun]:
    """Run ``cells`` as a (cell, stage) task DAG on ``jobs`` workers.

    The result dict is keyed by cell in input order and is bit-identical
    for any ``jobs``.  Raises :class:`StageFailure` when any task fails
    (after every unaffected cell has completed) and
    :class:`FlowCancelled` once ``cancel`` returns True.  A
    ``KeyboardInterrupt`` stores what the in-flight pool tasks return,
    shuts the pool down in order and is re-raised.  Artifacts loaded
    from the cache or the pool are frozen out of the cyclic collector
    until it returns or raises (see the module docstring).

    ``cache`` overrides the stage cache chosen from ``options.use_cache``.
    Two hooks serve :func:`~repro.flow.flow.run_design`: ``netlists``
    supplies source netlists by design name instead of building them at
    ``scale``, and ``progress`` is called with
    ``(stage, cache_hit, seconds)`` after each task that succeeds.
    """
    from .experiments import build_design

    collections = [gen["collections"] for gen in gc.get_stats()]
    cells = list(dict.fromkeys(cells))
    if cache is None:
        cache = StageCache() if options.use_cache else NullCache()
    designs = dict(netlists or {})
    for design, _arch in cells:
        if design not in designs:
            designs[design] = build_design(design, scale)
    names = {design: netlist.name for design, netlist in designs.items()}
    cell_options = {cell: options.with_arch(cell[1]) for cell in cells}
    cell_keys = {
        cell: stage_keys(cache, designs[cell[0]], cell_options[cell])
        for cell in cells
    }
    tasks = build_task_graph(cells, cell_keys)
    cell_tasks: Dict[Cell, Dict[str, _Task]] = {cell: {} for cell in cells}
    for task in tasks:
        for cell in task.cells:
            cell_tasks[cell][task.stage] = task

    with _obs.span(
        "sched.graph", cells=len(cells), tasks=len(tasks), jobs=jobs,
    ) as graph:
        try:
            artifacts = _dispatch(
                tasks, cell_tasks, designs, cell_options, cache, jobs,
                cancel, progress,
            )
        finally:
            gc.unfreeze()
            for gen, stats in enumerate(gc.get_stats()):
                _obs.counter(
                    f"gc.collections.gen{gen}",
                    stats["collections"] - collections[gen],
                )
        graph.set(precached=sum(task.hit for task in tasks))
        # Merge worker trace fragments in task order — deterministic for
        # any worker count or completion order.
        for task in tasks:
            if task.events:
                _obs.absorb(task.events)

        failed: List[Tuple[Cell, str]] = []
        lost_cells: Set[Cell] = set()
        for task in tasks:
            if task.state in ("failed", "skipped"):
                for cell in task.cells:
                    failed.append((cell, task.stage))
                    lost_cells.add(cell)
        runs = {
            cell: _design_run(
                cell, names[cell[0]], cell_tasks[cell], artifacts
            )
            for cell in cells
            if cell not in lost_cells
        }

    if failed:
        first = min(
            (t for t in tasks if t.state == "failed"), key=lambda t: t.tid
        )
        raise StageFailure(
            cell=first.cell, stage=first.stage,
            traceback_text=first.error or "",
            failed=failed, completed=runs,
        ) from first.exc
    return runs


def _skip_dependents(tasks: List[_Task], tid: int) -> None:
    stack = list(tasks[tid].dependents)
    while stack:
        dependent = tasks[stack.pop()]
        if dependent.state in ("skipped", "failed"):
            continue
        dependent.state = "skipped"
        stack.extend(dependent.dependents)


def _cancelled(tasks: List[_Task]) -> FlowCancelled:
    """Mark every unrun task skipped; the exception describing that."""
    unrun = [t for t in tasks if t.state in ("pending", "running")]
    for task in unrun:
        task.state = "skipped"
    done = sum(1 for t in tasks if t.state == "done")
    pending = sum(1 for t in tasks if t.state == "skipped")
    _obs.point("sched.interrupted", done=done, skipped=pending)
    return FlowCancelled(unrun[0].cell, unrun[0].stage, done, pending)


def _dispatch(
    tasks: List[_Task],
    cell_tasks: Dict[Cell, Dict[str, _Task]],
    designs: Dict[str, Netlist],
    cell_options: Dict[Cell, FlowOptions],
    cache: StageCache,
    jobs: int,
    cancel: Optional[Callable[[], bool]],
    progress: Optional[Callable[[str, bool, float], None]],
) -> Dict[int, object]:
    """Run every task until the DAG drains; the artifacts by task id.

    Only synthesis reads a source netlist, so each is dropped from
    ``designs`` once its design's last synthesis task has started.  With
    a pool, an artifact's pickle is kept until its last dependent has
    started; in process none is kept.
    """
    artifacts: Dict[int, object] = {}
    pickles: Dict[int, bytes] = {}

    ready = [ready_order(t, jobs) for t in tasks if t.waiting == 0]
    heapq.heapify(ready)
    last_reader = {t.cell[0]: t for t in tasks if t.stage == "synthesis"}
    workers = max(1, min(jobs, len(tasks)))
    pool: Optional[ProcessPoolExecutor] = None
    inflight: Dict[object, Tuple[int, tuple]] = {}
    retried: Set[int] = set()

    def charge(task: _Task, call: Callable, *args):
        """One cache call on ``task``'s entry, its traffic charged to it."""
        before = replace(cache.stats)
        result = call(task.stage, task.key, *args)
        task.stats.merge(cache.stats.since(before))
        return result

    def finish(
        task: _Task, artifact, blob: Optional[bytes], elapsed: float,
        error: Optional[str] = None, exc: Optional[Exception] = None,
    ) -> None:
        """Store a computed artifact's pickle; then fail the task
        (``error`` is a pool task's traceback, ``exc`` an in-process
        exception) or release its dependents."""
        task.elapsed = elapsed
        if blob is not None and not task.hit:
            charge(task, cache.put, artifact, blob)
        if exc is not None:
            error = _format(exc)
        if error is not None:
            task.state, task.error, task.exc = "failed", error, exc
            _skip_dependents(tasks, task.tid)
            return
        task.state = "done"
        artifacts[task.tid] = artifact
        if jobs > 1 and task.dependents:
            pickles[task.tid] = blob
        for did in task.dependents:
            dependent = tasks[did]
            dependent.waiting -= 1
            if dependent.waiting == 0:
                heapq.heappush(ready, ready_order(dependent, jobs))
        if progress is not None:
            progress(task.stage, task.hit, elapsed)

    def start(task: _Task) -> None:
        """Finish a hit or an in-process task; hand a pool task over."""
        task.state = "running"
        clock = time.perf_counter()  # check: allow(DT002) stage timing report only
        # A hit is its artifact, loaded and frozen, and its pickle.
        cached = charge(
            task, cache.get, lambda blob: (_loads(blob, True), blob)
        )
        read = time.perf_counter() - clock  # check: allow(DT002) stage timing report only
        task.hit = cached is not None
        design = task.cell[0]
        netlist = designs[design] if task.stage == "synthesis" else None
        if last_reader[design] is task:
            del designs[design]
        upstream, inputs = {}, {}
        for parent in STAGE_RECORDS[task.stage].inputs:
            up = cell_tasks[task.cell][parent]
            upstream[parent] = artifacts[up.tid]
            inputs[parent] = pickles.get(up.tid)
            if all(tasks[d].state != "pending" for d in up.dependents):
                pickles.pop(up.tid, None)
        options = cell_options[task.cell]
        if task.hit or jobs <= 1:
            artifact, blob = cached or (None, None)
            computed, elapsed, exc = _run_stage(
                task.stage, task.cell, options, upstream, netlist, artifact,
            )
            if computed is not None:
                with _obs.span(
                    "sched.load", stage=task.stage, bytes=len(computed)
                ):
                    artifact = _loads(computed, freeze=False)
                blob = computed
            finish(task, artifact, blob, read + elapsed, exc=exc)
        else:
            _obs.point(
                "sched.dispatch", task=task.tid, stage=task.stage,
                design=task.cell[0], arch=task.cell[1],
                height=HEIGHTS[task.stage],
            )
            submit(task.tid, (
                _pool_task, task.stage, task.cell, options, inputs, netlist,
                _obs.active(),
            ))

    def open_pool() -> ProcessPoolExecutor:
        """The pool; a new one (forked after the realization tables are
        loaded, so its workers inherit them) when there is none."""
        nonlocal pool
        if pool is None:
            _warm_tables(list(dict.fromkeys(a for _d, a in cell_tasks)))
            pool = ProcessPoolExecutor(max_workers=workers)
        return pool

    def submit(tid: int, work: tuple) -> None:
        try:
            future = open_pool().submit(*work)
        except BrokenProcessPool as broken:
            abandon(broken)
            future = open_pool().submit(*work)
        inflight[future] = tid, work

    def abandon(broken: BrokenProcessPool) -> None:
        """A worker died (``os._exit``, a signal, the OOM killer): store
        what finished before it did and hand every other task that was
        on the pool to a fresh one, once; a task lost twice fails."""
        nonlocal pool
        pool.shutdown(wait=True, cancel_futures=True)
        pool = None
        lost = []
        for future in list(inflight):
            if not future.cancelled() and future.exception() is None:
                collect(future)
            else:
                lost.append(inflight.pop(future))
        for tid, work in lost:
            if tid in retried:
                finish(tasks[tid], None, None, 0.0, exc=broken)
            else:
                retried.add(tid)
                _obs.point("sched.retry", task=tid, stage=tasks[tid].stage)
                submit(tid, work)

    def collect(future) -> None:
        task = tasks[inflight[future][0]]
        try:
            blob, elapsed, task.events, error = future.result()
        except BrokenProcessPool as broken:
            abandon(broken)
            return
        del inflight[future]
        artifact = None if blob is None else _loads(blob, freeze=True)
        _obs.point(
            "sched.task", task=task.tid, stage=task.stage,
            design=task.cell[0], arch=task.cell[1], cached=False,
            seconds=elapsed, outcome="error" if error else "ok",
        )
        finish(task, artifact, blob, elapsed, error)

    def drain() -> None:
        """Start nothing new; store what the in-flight tasks return."""
        if pool is None:
            return
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # a dead worker must not mask the interrupt
            pass
        for future in list(inflight):
            if not future.cancelled() and future.exception() is None:
                collect(future)

    try:
        while ready or inflight:
            if cancel is not None and cancel():
                drain()
                if all(t.state not in ("pending", "running") for t in tasks):
                    break  # the tasks in flight were the last ones
                raise _cancelled(tasks)
            running = sum(not future.done() for future in inflight)
            if ready and running < workers:
                start(tasks[heapq.heappop(ready)[-1]])
                continue
            # A worker that finished gets its next task before the parent
            # stores what it returned.
            done = [future for future in inflight if future.done()]
            if not done:
                wait(inflight, return_when=FIRST_COMPLETED)
                continue
            collect(done[0])
    except KeyboardInterrupt:
        # Ctrl-C mid-matrix (or a worker-side interrupt surfaced by
        # future.result()): keep what finished, then let it propagate.
        drain()
        raise
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    return artifacts


def _design_run(
    cell: Cell,
    design: str,
    stage_tasks: Dict[str, _Task],
    artifacts: Dict[int, object],
) -> DesignRun:
    """One cell's DesignRun from its stage tasks and their artifacts."""
    stats = CacheStats()
    for task in stage_tasks.values():
        # A task's cache traffic is attributed to its primary cell only,
        # so dedup never double-counts volume.
        if task.cell == cell:
            stats.merge(task.stats)
    artifact = {stage: artifacts[t.tid] for stage, t in stage_tasks.items()}
    return DesignRun(
        design=design,
        arch_name=cell[1],
        synthesis=artifact["synthesis"],
        physical=artifact["physical"],
        flow_a=artifact["route_a"],
        flow_b=artifact["route_b"],
        packed=artifact["packing"],
        stage_seconds={
            stage: stage_tasks[stage].elapsed for stage in STAGES
        },
        stage_cached={stage: stage_tasks[stage].hit for stage in STAGES},
        cache_stats=stats,
    )
