"""The stage DAG: the one code path that runs flow stages.

Every flow run — one cell (:func:`repro.flow.flow.run_design`) or the
evaluation matrix (:func:`repro.flow.parallel.run_cells`) at any job
count — is decomposed into an explicit task DAG of (cell, stage) nodes
(40 tasks for the paper's full 8-cell matrix) whose edges come straight
from :data:`repro.flow.flow.STAGE_INPUTS`, the same relation the sha256
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
* **jobs>1: on a pool of worker processes**, critical-path task first,
  so cell B's synthesis overlaps cell A's physical stage and the
  wall-clock approaches ``max(critical_path, total_work / jobs)``.  A
  worker receives the task's upstream artifacts (and, for synthesis, its
  source netlist), computes and audits the stage, and returns the
  artifact with its trace fragment; it never opens the cache.

Either way the loop ``put``\\ s each computed artifact and keeps every
artifact in one in-memory store by task, from which the finished
:class:`~repro.flow.flow.DesignRun` of each cell is assembled.  So cache
traffic, like the results, does not depend on the job count, and
``use_cache=False`` persists nothing at any job count.

Results are bit-identical at any job count: stages are pure functions of
(inputs, options slice, seed), and assembly walks cells in input order.

Every artifact the loop deserializes (a cache hit, or a pool task's
result) is loaded with the cyclic garbage collector paused and then
moved into its permanent generation with :func:`gc.freeze`.  Artifacts
live until the run ends and hold no garbage cycles, so the collector
could only waste time rescanning them; on a warm matrix its full
collections would cost about as much as the loads themselves.  The run
unfreezes them when it ends, however it ends.  Outside those load
windows the collector runs as usual, so the garbage that computing a
stage makes is still collected; cycles that already exist at a load stay
uncollected until the run ends.  While tracing, the run counts the
collections the collector made in this process, per generation, as
``gc.collections.gen0`` / ``gen1`` / ``gen2``.

The failure and cancellation contract is the same at every job count.
A stage that raises, or whose artifact cannot be pickled, fails only the
cells that transitively depend on it; unaffected cells complete, and the
run ends with :class:`StageFailure` carrying the original traceback and
every completed cell's result.  The ``cancel`` hook is polled before
every task leaves the ready heap; once it returns True the run starts
nothing new, stores what the in-flight pool tasks return, and raises
:class:`FlowCancelled`.  Finished stages are then in the stage cache, so
a rerun resumes warm.
"""

from __future__ import annotations

import gc
import heapq
import io
import pickle
import sys
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
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
    priority: float = 0.0
    #: pending -> running -> done | failed | skipped
    state: str = "pending"
    waiting: int = 0              # unfinished dependency count
    hit: bool = False
    elapsed: float = 0.0
    stats: CacheStats = field(default_factory=CacheStats)
    events: Optional[List[dict]] = None
    error: Optional[str] = None
    exc: Optional[Exception] = None  # tasks run in this process only


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
    edges mirror :data:`repro.flow.flow.STAGE_INPUTS`; priorities are
    critical-path-first (a node's priority is its own weight plus the
    heaviest path below it), tie-broken by task id so the ready order
    is deterministic.
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
            for parent in STAGE_INPUTS[stage]:
                task.deps.add(mine[parent])
                tasks[mine[parent]].dependents.append(tid)
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
# One stage, in this process or a pool worker
# ----------------------------------------------------------------------

def _run_stage(
    stage: str,
    cell: Cell,
    options: FlowOptions,
    upstream: Dict[str, object],
    netlist: Optional[Netlist],
    artifact: object = None,
) -> Tuple[object, float, Optional[Exception]]:
    """Compute one stage unless its cached ``artifact`` is given; audit it.

    Returns ``(artifact, seconds, exc)``.  ``exc`` is what the compute or
    the audit raised; ``artifact`` is None only when the compute raised,
    so an artifact that fails its audit is still stored, like a cached
    one.  Never raises.
    """
    hit = artifact is not None
    exc: Optional[Exception] = None
    start = time.perf_counter()  # check: allow(DT002) stage timing report only
    try:
        with _obs.span(
            f"flow.{stage}", stage=stage, design=cell[0], arch=cell[1],
            sched="stage", cached=hit,
        ):
            if not hit:
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
    return artifact, elapsed, exc


def _load(read: Callable[..., object], *args) -> object:
    """``read(*args)`` with the cyclic collector paused; what it loads is
    then frozen (see the module docstring).

    A miss (``None``) freezes nothing, so the garbage of stages this
    process computed stays collectable.  The collector's enabled state
    is restored, so a caller that disabled it keeps it disabled.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        loaded = read(*args)
        if loaded is not None:
            gc.freeze()
        return loaded
    finally:
        if enabled:
            gc.enable()


def _format(exc: Exception) -> str:
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )


# A pool task's inputs travel as one pickle.  When a dependent will
# receive the task's artifact together with one of those inputs (packing
# gets physical with synthesis, route_b gets packing with synthesis), the
# artifact comes back pickled with each object it shares with its inputs
# written as that object's index in the inputs' pickle memo, which the
# parent resolves to its own object.  Those inputs then share what they
# would share in one process, so every artifact computed from them, and
# its cache entry, is the same at every job count.  Other artifacts come
# back as plain pickles.

def _ship(
    upstream: Dict[str, object], netlist: Optional[Netlist]
) -> Tuple[bytes, pickle.Pickler]:
    """A task's inputs pickled, and the pickler holding their memo."""
    out = io.BytesIO()
    pickler = pickle.Pickler(out, pickle.HIGHEST_PROTOCOL)
    pickler.dump((upstream, netlist))
    return out.getvalue(), pickler


class _ArtifactPickler(pickle.Pickler):
    """Writes each object a worker received as its memo index."""

    def __init__(self, out: io.BytesIO, received: Dict[int, object]):
        super().__init__(out, pickle.HIGHEST_PROTOCOL)
        self.received = received  # keeps every id below unique
        self.index = dict(zip(map(id, received.values()), received))

    def persistent_id(self, obj):
        return self.index.get(id(obj))


class _ArtifactUnpickler(pickle.Unpickler):
    """Resolves each memo index to the object the parent shipped."""

    def __init__(self, blob: bytes, shipped: Dict[int, object]):
        super().__init__(io.BytesIO(blob))
        self.shipped = shipped

    def persistent_load(self, pid):
        return self.shipped[pid]


def _pool_task(
    stage: str,
    cell: Cell,
    options: FlowOptions,
    inputs: bytes,
    linked: bool,
    observe: bool,
) -> tuple:
    """Worker body: compute and audit one stage from its shipped inputs.

    Returns ``(artifact pickle, seconds, events, error)`` and never
    raises: a failure comes back as its formatted traceback, so the
    parent fails exactly the dependent cells and keeps the rest of the
    matrix running.  A ``linked`` artifact is pickled with references
    to the inputs it shares objects with.
    """
    if sys.getrecursionlimit() < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
    own_trace = observe and _obs.begin()
    unpickler = pickle.Unpickler(io.BytesIO(inputs))
    upstream, netlist = unpickler.load()
    received = unpickler.memo.copy() if linked else {}
    artifact, elapsed, exc = _run_stage(stage, cell, options, upstream, netlist)
    blob = None
    try:
        if artifact is not None and linked:
            out = io.BytesIO()
            _ArtifactPickler(out, received).dump(artifact)
            blob = out.getvalue()
        elif artifact is not None:
            blob = pickle.dumps(artifact, pickle.HIGHEST_PROTOCOL)
    except Exception as err:  # an artifact that cannot be pickled
        blob, exc = None, exc or err
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
    scale: Optional[float],
    options: FlowOptions,
    jobs: int,
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
    during the run are frozen out of the cyclic collector until it
    returns or raises (see the module docstring).

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
    ``designs`` once its design's last synthesis task has started.
    """
    artifacts: Dict[int, object] = {}

    def order(task: _Task) -> float:
        """In process the heap pops in task-id order; the pool pops the
        critical path first."""
        return task.tid if jobs <= 1 else -task.priority

    ready = [(order(t), t.tid) for t in tasks if t.waiting == 0]
    heapq.heapify(ready)
    last_reader = {t.cell[0]: t for t in tasks if t.stage == "synthesis"}
    workers = max(1, min(jobs, len(tasks)))
    pool: Optional[ProcessPoolExecutor] = None
    inflight: Dict[object, Tuple[int, Optional[pickle.Pickler]]] = {}

    def charge(task: _Task, call: Callable, *args):
        """One cache call on ``task``'s entry, its traffic charged to it."""
        before = replace(cache.stats)
        result = call(task.stage, task.key, *args)
        task.stats.merge(cache.stats.since(before))
        return result

    def finish(
        task: _Task, artifact, elapsed: float,
        error: Optional[str] = None, exc: Optional[Exception] = None,
    ) -> None:
        """Store a computed artifact; then fail the task (``error`` is a
        pool task's traceback, ``exc`` an in-process exception) or release
        its dependents."""
        task.elapsed = elapsed
        if artifact is not None and not task.hit:
            try:
                charge(task, cache.put, artifact)
            except Exception as err:  # an artifact that cannot be pickled
                if exc is None and error is None:
                    exc = err
        if exc is not None:
            error = _format(exc)
        if error is not None:
            task.state, task.error, task.exc = "failed", error, exc
            _skip_dependents(tasks, task.tid)
            return
        task.state = "done"
        artifacts[task.tid] = artifact
        for did in task.dependents:
            dependent = tasks[did]
            dependent.waiting -= 1
            if dependent.waiting == 0:
                heapq.heappush(ready, (order(dependent), did))
        if progress is not None:
            progress(task.stage, task.hit, elapsed)

    def start(task: _Task) -> None:
        """Finish a hit or an in-process task; hand a pool task over."""
        nonlocal pool
        task.state = "running"
        clock = time.perf_counter()  # check: allow(DT002) stage timing report only
        cached = _load(charge, task, cache.get)
        read = time.perf_counter() - clock  # check: allow(DT002) stage timing report only
        task.hit = cached is not None
        design = task.cell[0]
        netlist = designs[design] if task.stage == "synthesis" else None
        if last_reader[design] is task:
            del designs[design]
        mine = cell_tasks[task.cell]
        upstream = {
            parent: artifacts[mine[parent].tid]
            for parent in STAGE_INPUTS[task.stage]
        }
        if task.hit or jobs <= 1:
            artifact, elapsed, exc = _run_stage(
                task.stage, task.cell, cell_options[task.cell], upstream,
                netlist, cached,
            )
            finish(task, artifact, read + elapsed, exc=exc)
            return
        if pool is None:
            _warm_tables(list(dict.fromkeys(a for _d, a in cell_tasks)))
            pool = ProcessPoolExecutor(max_workers=workers)
        _obs.point(
            "sched.dispatch", task=task.tid, stage=task.stage,
            design=task.cell[0], arch=task.cell[1], priority=task.priority,
        )
        linked = any(
            set(STAGE_INPUTS[tasks[d].stage]) & set(STAGE_INPUTS[task.stage])
            for d in task.dependents
        )
        inputs, pickler = _ship(upstream, netlist)
        future = pool.submit(
            _pool_task, task.stage, task.cell, cell_options[task.cell],
            inputs, linked, _obs.active(),
        )
        inflight[future] = task.tid, pickler if linked else None

    def collect(future) -> None:
        tid, pickler = inflight.pop(future)
        task = tasks[tid]
        blob, elapsed, task.events, error = future.result()
        artifact = None
        if blob is not None and pickler is not None:
            shipped = dict(pickler.memo.copy().values())  # index -> object
            artifact = _load(_ArtifactUnpickler(blob, shipped).load)
        elif blob is not None:
            artifact = _load(pickle.loads, blob)
        _obs.point(
            "sched.task", task=task.tid, stage=task.stage,
            design=task.cell[0], arch=task.cell[1], cached=False,
            seconds=elapsed, outcome="error" if error else "ok",
        )
        finish(task, artifact, elapsed, error)

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
                start(tasks[heapq.heappop(ready)[1]])
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
