"""The stage DAG: the one code path that runs flow stages.

Every flow run — one cell (:func:`repro.flow.flow.run_design`) or the
evaluation matrix (:func:`repro.flow.parallel.run_cells`) at any job
count — is decomposed into an explicit task DAG of (cell, stage) nodes
(40 tasks for the paper's full 8-cell matrix) whose edges come straight
from :data:`repro.flow.flow.STAGE_INPUTS`, the same relation the sha256
cache-key chain mirrors.  Only the worker count decides how the DAG
executes:

* **jobs=1: in the calling process**, in task-id order.  That order is
  cell-major (one cell's five stages, then the next cell's), which is
  the order a loop over cells would take; critical-path priority only
  matters with more than one worker.  There is no pool and no transport
  directory: artifacts pass in memory, each cached stage costs one cache
  ``get`` and each computed stage one ``put``, and the finished
  :class:`~repro.flow.flow.DesignRun` holds the very objects computed.
* **jobs>1: on a pool of warm worker processes** with critical-path-first
  priority, so cell B's synthesis overlaps cell A's physical stage and
  the wall-clock approaches ``max(critical_path, total_work / jobs)``.
  Tasks communicate through the content-addressed stage cache
  (:mod:`repro.flow.cache`): a task writes its artifact under its stage
  key and dependents read it in their own worker, so only small
  task-spec/result tuples cross the executor.  With caching disabled a
  private *transport* cache in a temporary directory stands in and is
  deleted when the run ends, so ``use_cache=False`` still recomputes
  everything and persists nothing.  Each worker keeps its last few
  deserialized artifacts in an LRU, so a worker that runs consecutive
  stages of one cell never re-reads the pickle.

DAG nodes whose (stage, key) another node already claimed collapse onto
it (duplicate cells share one computation); in the pool, nodes whose key
is already cached are marked done before any worker sees them, so a warm
matrix dispatches zero tasks.

Results are bit-identical at any job count: stages are pure functions of
(inputs, options slice, seed), and assembly walks cells in input order.

The failure and cancellation contract is the same at every job count.
A stage that raises fails only the cells that transitively depend on it;
unaffected cells complete, and the run ends with :class:`StageFailure`
carrying the original traceback and every completed cell's result.  The
``cancel`` hook is polled before every task (jobs=1) or every dispatch
(jobs>1); once it returns True the run stops starting tasks and raises
:class:`FlowCancelled`.  Finished stages are already in the stage cache,
so a rerun resumes warm.
"""

from __future__ import annotations

import heapq
import sys
import tempfile
import time
import traceback
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..netlist.core import Netlist
from ..obs import core as _obs
from .cache import CacheStats, NullCache, StageCache
from .flow import (
    _RECURSION_LIMIT,
    STAGE_INPUTS,
    STAGES,
    DesignRun,
    compute_stage,
    guard_stage,
    stage_keys,
)
from .options import FlowOptions

Cell = Tuple[str, str]

#: Relative stage cost weights for critical-path-first priorities,
#: from the measured full-scale profile (DESIGN.md section 6: physical
#: dominates, synthesis and packing follow, routing is cheap).  Only the
#: *ordering* of ready tasks depends on these; results never do.
STAGE_WEIGHTS: Dict[str, float] = {
    "synthesis": 3.0,
    "physical": 6.0,
    "route_a": 1.0,
    "packing": 2.0,
    "route_b": 1.0,
}


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
    is the original traceback (worker-side at jobs>1), ``failed`` lists
    every (cell, stage) pair that failed or was skipped because an
    upstream task failed, and ``completed`` maps every unaffected cell to
    its finished :class:`~repro.flow.flow.DesignRun`.  At jobs=1 the
    original exception is also chained as ``__cause__``.
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
    priority: float = 0.0
    #: pending -> running -> done | failed | skipped; "cached" tasks are
    #: born done (their key was already in the cache).
    state: str = "pending"
    waiting: int = 0              # unfinished dependency count
    hit: bool = False
    elapsed: float = 0.0
    stats: Optional[CacheStats] = None
    events: Optional[List[dict]] = None
    error: Optional[str] = None
    exc: Optional[Exception] = None  # in-process runs only


@dataclass(frozen=True)
class _TaskSpec:
    """The picklable description a worker needs to run one task."""

    tid: int
    design: str
    arch: str
    stage: str
    scale: float
    key: str
    input_keys: Tuple[Tuple[str, str], ...]  # ((stage, key), ...)
    cache_root: str
    options: FlowOptions
    observe: bool


# ----------------------------------------------------------------------
# DAG construction
# ----------------------------------------------------------------------

def build_task_graph(
    cells: Sequence[Cell],
    cell_keys: Dict[Cell, Dict[str, str]],
    cached: Optional[Set[Tuple[str, str]]] = None,
) -> List[_Task]:
    """The task DAG for ``cells`` given each cell's stage-key chain.

    Pure data transformation (no I/O) so tests can drive it directly:
    nodes dedup on (stage, key) — a later cell whose stage resolves to
    an already-claimed key attaches to the existing node — and nodes
    whose key appears in ``cached`` are born ``state="cached"`` with a
    hit recorded.  Dependency edges mirror
    :data:`repro.flow.flow.STAGE_INPUTS`; priorities are
    critical-path-first (a node's priority is its own weight plus the
    heaviest path below it), tie-broken by task id so the ready order
    is deterministic.
    """
    cached = cached or set()
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
            if (stage, key) in cached:
                task.state = "cached"
                task.hit = True
            else:
                for parent in STAGE_INPUTS[stage]:
                    dep = mine[parent]
                    if tasks[dep].state != "cached":
                        task.deps.add(dep)
                        tasks[dep].dependents.append(tid)
            task.waiting = len(task.deps)
            tasks.append(task)
            by_key[(stage, key)] = tid
            mine[stage] = tid
    # Critical-path priorities: dependents always carry larger ids (a
    # node's deps exist before it), so one reverse sweep suffices.
    for task in reversed(tasks):
        below = max(
            (tasks[d].priority for d in task.dependents), default=0.0
        )
        task.priority = STAGE_WEIGHTS.get(task.stage, 1.0) + below
    return tasks


# ----------------------------------------------------------------------
# One stage, in either executor
# ----------------------------------------------------------------------

def _run_task(
    stage: str,
    key: str,
    cell: Cell,
    options: FlowOptions,
    cache: StageCache,
    fetch: Callable[[str, str], object],
    inputs: Callable[[], Dict[str, object]],
    netlist: Callable[[], Netlist],
) -> Tuple[object, bool, float]:
    """Load one stage artifact, or compute and store it on a miss.

    ``fetch`` reads an artifact by (stage, key), ``inputs`` supplies the
    upstream artifacts and ``netlist`` the source netlist; the latter two
    are called only when needed.  Returns ``(artifact, hit, seconds)``.
    """
    start = time.perf_counter()  # check: allow(DT002) stage timing report only
    with _obs.span(
        f"flow.{stage}", stage=stage, design=cell[0], arch=cell[1],
        sched="stage",
    ) as sp:
        artifact = fetch(stage, key)
        hit = artifact is not None
        upstream = inputs() if not hit or options.check else {}
        if not hit:
            artifact = compute_stage(
                stage, options, upstream,
                netlist=netlist() if stage == "synthesis" else None,
            )
            cache.put(stage, key, artifact)
        guard_stage(
            stage, options, {**upstream, stage: artifact},
            f"{cell[0]}/{cell[1]}",
        )
        sp.set(cached=hit)
    elapsed = time.perf_counter() - start  # check: allow(DT002) stage timing report only
    _obs.observe(f"stage.seconds.{stage}", elapsed)
    return artifact, hit, elapsed


# ----------------------------------------------------------------------
# Worker side (jobs > 1)
# ----------------------------------------------------------------------

#: Worker-local artifact LRU keyed by (stage, key).  A worker that runs
#: consecutive stages of one cell hits this and never re-deserializes;
#: sized to hold a full cell's artifacts plus a neighbor's.  Only pool
#: workers touch it, so no artifact outlives the pool that loaded it.
_LRU: "OrderedDict[Tuple[str, str], object]" = OrderedDict()
_LRU_CAPACITY = 8


def _lru_put(entry: Tuple[str, str], artifact) -> None:
    _LRU[entry] = artifact
    _LRU.move_to_end(entry)
    while len(_LRU) > _LRU_CAPACITY:
        _LRU.popitem(last=False)


def _fetch(cache: StageCache, stage: str, key: str):
    """LRU -> cache lookup for one artifact (None on miss)."""
    artifact = _LRU.get((stage, key))
    if artifact is not None:
        _LRU.move_to_end((stage, key))
        _obs.counter("sched.lru.hit")
        return artifact
    artifact = cache.get(stage, key)
    if artifact is not None:
        _lru_put((stage, key), artifact)
    return artifact


def _build(spec: _TaskSpec) -> Netlist:
    from .experiments import build_design

    return build_design(spec.design, spec.scale)


def _resolve(
    cache: StageCache, spec: _TaskSpec, stage: str, keys: Dict[str, str]
):
    """Load one artifact by key, recomputing its chain if it is gone.

    The normal path is a single cache read (the upstream task wrote the
    artifact before this task was scheduled).  If the entry has been
    evicted or corrupted in between, the worker self-heals by
    recomputing the missing prefix locally — slower, never wrong.
    """
    artifact = _fetch(cache, stage, keys[stage])
    if artifact is not None:
        return artifact
    _obs.counter("sched.input_recompute")
    inputs = {
        parent: _resolve(cache, spec, parent, keys)
        for parent in STAGE_INPUTS[stage]
    }
    netlist = _build(spec) if stage == "synthesis" else None
    artifact = compute_stage(stage, spec.options, inputs, netlist=netlist)
    cache.put(stage, keys[stage], artifact)
    _lru_put((stage, keys[stage]), artifact)
    return artifact


def _run_stage_task(spec: _TaskSpec) -> tuple:
    """Worker body: ensure one stage artifact exists under its key.

    Returns ``(tid, hit, elapsed, cache_stats, events, error)`` — never
    raises: a failure is captured as its formatted traceback so the
    parent can fail exactly the dependent cells and keep the rest of
    the matrix running.
    """
    if sys.getrecursionlimit() < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
    own_trace = spec.observe and _obs.begin()
    cache = StageCache(root=Path(spec.cache_root), respect_env=False)
    keys = dict(spec.input_keys)
    keys[spec.stage] = spec.key
    error: Optional[str] = None
    hit, elapsed = False, 0.0
    try:
        artifact, hit, elapsed = _run_task(
            spec.stage, spec.key, (spec.design, spec.arch), spec.options,
            cache,
            fetch=lambda stage, key: _fetch(cache, stage, key),
            inputs=lambda: {
                parent: _resolve(cache, spec, parent, keys)
                for parent in STAGE_INPUTS[spec.stage]
            },
            netlist=lambda: _build(spec),
        )
        _lru_put((spec.stage, spec.key), artifact)
    except Exception:
        error = traceback.format_exc()
    events = _obs.drain() if own_trace else None
    return spec.tid, hit, elapsed, cache.stats, events, error


def _warm_worker(arch_names: Tuple[str, ...]) -> None:
    """Pool initializer: preload realization tables in each worker.

    The tables are persisted through the content-addressed stage cache
    (see :func:`repro.synth.realize.table_for_cells`), so a worker loads
    the finished pickle — or, on a truly cold cache, builds and persists
    it — before its first task instead of paying the derivation inside a
    synthesis task.  Best-effort: custom architectures registered only
    in the parent are skipped.
    """
    from ..synth.realize import baseline_table, compaction_table

    for arch in arch_names:
        try:
            baseline_table(arch)
            compaction_table(arch)
        except ValueError:
            continue


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

def run_stage_graph(
    cells: Sequence[Cell],
    scale: Optional[float],
    options: FlowOptions,
    jobs: int,
    cancel: Optional[Callable[[], bool]] = None,
    netlists: Optional[Dict[str, Netlist]] = None,
    cache: Optional[StageCache] = None,
    progress: Optional[Callable[[str, bool, float], None]] = None,
) -> Dict[Cell, DesignRun]:
    """Run ``cells`` as a (cell, stage) task DAG; ``jobs`` picks the executor.

    The result dict is keyed by cell in input order and is bit-identical
    for any ``jobs``.  Raises :class:`StageFailure` when any task fails
    (after every unaffected cell has completed) and
    :class:`FlowCancelled` once ``cancel`` returns True.  A
    ``KeyboardInterrupt`` at jobs>1 shuts the pool down in order and is
    re-raised; the transport directory is always cleaned up.

    ``cache`` overrides the stage cache chosen from
    ``options.use_cache``.  Two hooks serve
    :func:`~repro.flow.flow.run_design` and need ``jobs=1``:
    ``netlists`` supplies source netlists by design name instead of
    building them at ``scale`` (pool workers build by name, so a
    supplied netlist would not be the one its key hashes), and
    ``progress`` is called with ``(stage, cache_hit, seconds)`` after
    each task.
    """
    from .experiments import build_design

    if (netlists or progress) and jobs > 1:
        raise ValueError("netlists and progress need jobs=1")
    cells = list(dict.fromkeys(cells))
    if cache is None:
        cache = StageCache() if options.use_cache else NullCache()
    designs = dict(netlists or {})
    for design, _arch in cells:
        if design not in designs:
            designs[design] = build_design(design, scale)
    transport: Optional[tempfile.TemporaryDirectory] = None
    if jobs > 1 and not cache.enabled:
        transport = tempfile.TemporaryDirectory(prefix="repro-stage-ipc-")
        cache = StageCache(root=Path(transport.name), respect_env=False)
    try:
        return _run_graph(cells, designs, scale, options, jobs, cache,
                          cancel, progress)
    finally:
        if transport is not None:
            transport.cleanup()


def _run_graph(
    cells: List[Cell],
    designs: Dict[str, Netlist],
    scale: Optional[float],
    options: FlowOptions,
    jobs: int,
    cache: StageCache,
    cancel: Optional[Callable[[], bool]],
    progress: Optional[Callable[[str, bool, float], None]],
) -> Dict[Cell, DesignRun]:
    cell_options = {cell: options.with_arch(cell[1]) for cell in cells}
    cell_keys = {
        cell: stage_keys(cache, designs[cell[0]], cell_options[cell])
        for cell in cells
    }
    # In-process every task reads its own key anyway, so only the pool
    # collapses cached keys up front.
    cached_keys = set() if jobs <= 1 else {
        (stage, keys[stage])
        for keys in cell_keys.values()
        for stage in STAGES
        if cache.has(stage, keys[stage])
    }
    tasks = build_task_graph(cells, cell_keys, cached=cached_keys)
    cell_tasks: Dict[Cell, Dict[str, _Task]] = {cell: {} for cell in cells}
    for task in tasks:
        for cell in task.cells:
            cell_tasks[cell][task.stage] = task

    names = {design: netlist.name for design, netlist in designs.items()}
    runnable = [t for t in tasks if t.state == "pending"]
    with _obs.span(
        "sched.graph", cells=len(cells), tasks=len(tasks),
        precached=len(tasks) - len(runnable), jobs=jobs,
    ):
        if jobs <= 1:
            artifacts = _run_inline(
                tasks, cell_tasks, designs, cell_options, cache, cancel,
                progress,
            )
        elif runnable:
            _execute(tasks, runnable, cells, cell_options, cell_keys,
                     scale, cache, jobs, cancel)
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

        runs: Dict[Cell, DesignRun] = {}
        for cell in cells:
            if cell in lost_cells:
                continue
            if jobs <= 1:
                runs[cell] = _design_run(
                    cell, names[cell[0]], cell_tasks[cell],
                    {s: artifacts[t.tid] for s, t in cell_tasks[cell].items()},
                    CacheStats(),
                )
            else:
                runs[cell] = _assemble(
                    cell, designs[cell[0]], cell_options[cell],
                    cell_keys[cell], cell_tasks[cell], cache,
                )

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
    done = sum(1 for t in tasks if t.state in ("done", "cached"))
    pending = sum(1 for t in tasks if t.state == "skipped")
    _obs.point("sched.interrupted", done=done, skipped=pending)
    return FlowCancelled(unrun[0].cell, unrun[0].stage, done, pending)


def _run_inline(
    tasks: List[_Task],
    cell_tasks: Dict[Cell, Dict[str, _Task]],
    designs: Dict[str, Netlist],
    cell_options: Dict[Cell, FlowOptions],
    cache: StageCache,
    cancel: Optional[Callable[[], bool]],
    progress: Optional[Callable[[str, bool, float], None]],
) -> Dict[int, object]:
    """Run every task in this process, in task order; artifacts by tid.

    Only synthesis reads a source netlist, so each is dropped from
    ``designs`` after its design's last synthesis task, as a loop over
    cells would.
    """
    artifacts: Dict[int, object] = {}
    last_reader = {t.cell[0]: t for t in tasks if t.stage == "synthesis"}
    for task in tasks:
        if task.state != "pending":  # skipped: an upstream task failed
            continue
        if cancel is not None and cancel():
            raise _cancelled(tasks)
        mine = cell_tasks[task.cell]
        before = replace(cache.stats)
        try:
            artifact, task.hit, task.elapsed = _run_task(
                task.stage, task.key, task.cell, cell_options[task.cell],
                cache,
                fetch=cache.get,
                inputs=lambda: {
                    parent: artifacts[mine[parent].tid]
                    for parent in STAGE_INPUTS[task.stage]
                },
                netlist=lambda: designs[task.cell[0]],
            )
        except Exception as exc:
            task.state, task.error, task.exc = (
                "failed", traceback.format_exc(), exc
            )
            _skip_dependents(tasks, task.tid)
            continue
        finally:
            task.stats = cache.stats.since(before)
            if last_reader[task.cell[0]] is task:
                del designs[task.cell[0]]
        task.state = "done"
        artifacts[task.tid] = artifact
        if progress is not None:
            progress(task.stage, task.hit, task.elapsed)
    return artifacts


def _execute(
    tasks: List[_Task],
    runnable: List[_Task],
    cells: List[Cell],
    cell_options: Dict[Cell, FlowOptions],
    cell_keys: Dict[Cell, Dict[str, str]],
    scale: Optional[float],
    cache: StageCache,
    jobs: int,
    cancel: Optional[Callable[[], bool]],
) -> None:
    """Drive the pool: highest-priority ready task first, until drained."""
    ready: List[Tuple[float, int]] = [
        (-t.priority, t.tid) for t in runnable if t.waiting == 0
    ]
    heapq.heapify(ready)
    arch_names = tuple(dict.fromkeys(arch for _design, arch in cells))
    workers = max(1, min(jobs, len(runnable)))
    inflight: Dict[object, int] = {}

    def spec_for(task: _Task) -> _TaskSpec:
        cell = task.cell
        keys = cell_keys[cell]
        return _TaskSpec(
            tid=task.tid, design=cell[0], arch=cell[1], stage=task.stage,
            scale=scale, key=task.key,
            input_keys=tuple(
                (parent, keys[parent])
                for parent in STAGE_INPUTS[task.stage]
            ),
            cache_root=str(cache.root), options=cell_options[cell],
            observe=_obs.active(),
        )

    def shut_down(pool) -> None:
        """Orderly shutdown: drain the heap, cancel queued futures and
        let in-flight tasks finish (their artifacts are already headed
        for the cache)."""
        ready.clear()
        for future in list(inflight):
            future.cancel()
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # a dead worker must not mask the interrupt
            pass

    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_warm_worker,
        initargs=(arch_names,),
    ) as pool:
        try:
            while ready or inflight:
                if cancel is not None and cancel():
                    shut_down(pool)
                    raise _cancelled(tasks)
                while ready and len(inflight) < workers:
                    _neg, tid = heapq.heappop(ready)
                    task = tasks[tid]
                    if task.state != "pending":  # skipped while queued
                        continue
                    task.state = "running"
                    _obs.point(
                        "sched.dispatch", task=tid, stage=task.stage,
                        design=task.cell[0], arch=task.cell[1],
                        priority=task.priority,
                    )
                    inflight[pool.submit(_run_stage_task, spec_for(task))] = tid
                if not inflight:
                    continue
                done, _pending = wait(inflight, return_when=FIRST_COMPLETED)
                for future in done:
                    tid = inflight.pop(future)
                    task = tasks[tid]
                    _tid, hit, elapsed, stats, events, error = future.result()
                    task.hit = hit
                    task.elapsed = elapsed
                    task.stats = stats
                    task.events = events
                    _obs.point(
                        "sched.task", task=tid, stage=task.stage,
                        design=task.cell[0], arch=task.cell[1],
                        cached=hit, seconds=elapsed,
                        outcome="error" if error else "ok",
                    )
                    if error is not None:
                        task.state = "failed"
                        task.error = error
                        _skip_dependents(tasks, tid)
                        continue
                    task.state = "done"
                    for did in task.dependents:
                        dependent = tasks[did]
                        if dependent.state != "pending":
                            continue
                        dependent.waiting -= 1
                        if dependent.waiting == 0:
                            heapq.heappush(
                                ready, (-dependent.priority, dependent.tid)
                            )
        except KeyboardInterrupt:
            # Ctrl-C mid-matrix (or a worker-side interrupt surfaced by
            # future.result()): take the same orderly path, then let the
            # interrupt propagate — run_stage_graph's finally still
            # removes the transport directory.
            shut_down(pool)
            raise


def _design_run(
    cell: Cell,
    design: str,
    stage_tasks: Dict[str, _Task],
    artifacts: Dict[str, object],
    stats: CacheStats,
) -> DesignRun:
    """One cell's DesignRun from its stage artifacts and tasks."""
    for task in stage_tasks.values():
        # A task's cache traffic is attributed to its primary cell only,
        # so dedup never double-counts volume.
        if task.stats is not None and task.cell == cell:
            stats.merge(task.stats)
    return DesignRun(
        design=design,
        arch_name=cell[1],
        synthesis=artifacts["synthesis"],
        physical=artifacts["physical"],
        flow_a=artifacts["route_a"],
        flow_b=artifacts["route_b"],
        packed=artifacts["packing"],
        stage_seconds={
            stage: stage_tasks[stage].elapsed for stage in STAGES
        },
        stage_cached={stage: stage_tasks[stage].hit for stage in STAGES},
        cache_stats=stats,
    )


def _assemble(
    cell: Cell,
    netlist: Netlist,
    options: FlowOptions,
    keys: Dict[str, str],
    stage_tasks: Dict[str, _Task],
    cache: StageCache,
) -> DesignRun:
    """Read one pool-run cell's artifacts back from the stage cache.

    Reads through a private cache handle so per-cell read stats stay
    separable; if any artifact fails to load (evicted or corrupted
    after its task ran), falls back to :func:`repro.flow.flow.run_design`
    on the same cache, which recomputes exactly the missing stages.
    """
    reader = StageCache(root=cache.root, respect_env=False)
    reader.enabled = cache.enabled
    artifacts: Dict[str, object] = {}
    for stage in STAGES:
        artifact = reader.get(stage, keys[stage])
        if artifact is None:
            from .flow import run_design

            _obs.counter("sched.assembly_recompute")
            return run_design(netlist, cell[1], options, cache=reader)
        artifacts[stage] = artifact
    return _design_run(
        cell, netlist.name, stage_tasks, artifacts, reader.stats
    )
