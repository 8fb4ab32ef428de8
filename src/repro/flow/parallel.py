"""Evaluation-matrix runner.

The paper's whole evaluation is a 4-designs x 2-PLB-architectures matrix
(each cell runs flows a and b).  :func:`run_cells` hands the cells to the
stage DAG (:mod:`repro.flow.scheduler`), which runs them in this process
at ``jobs=1`` and on a worker pool otherwise.  Every stochastic stage
takes an explicit per-run seed and no state is shared between cells, so
any job count produces bit-identical tables.

When observation is on (``FlowOptions.observe`` / ``REPRO_TRACE``) the
whole matrix produces *one* journal: pool workers ship their event
fragments back to the parent, which merges them in task order and writes
the journal at the end.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..obs import core as _obs
from ..obs import journal as _journal
from .flow import DesignRun
from .options import FlowOptions
from .scheduler import run_stage_graph


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` -> 1, negatives -> CPUs.

    "CPUs" are the ones this process may run on: its affinity mask where
    the OS has one (``taskset``, cgroup cpusets), else ``os.cpu_count()``.
    """
    if jobs is None or jobs == 0:
        return 1
    if jobs < 0:
        if hasattr(os, "sched_getaffinity"):
            return max(1, len(os.sched_getaffinity(0)))
        return max(1, os.cpu_count() or 1)
    return jobs


def run_cells(
    cells: Sequence[Tuple[str, str]],
    scale: float,
    options: FlowOptions,
    jobs: Optional[int] = None,
    cancel: Optional[Callable[[], bool]] = None,
) -> Dict[Tuple[str, str], DesignRun]:
    """Run every (design, arch) cell through the stage DAG.

    The result dict is keyed by cell in the order given, regardless of
    worker completion order, so downstream table formatting is identical
    for any job count.  A failing stage raises
    :class:`~repro.flow.scheduler.StageFailure` carrying every unaffected
    cell's result.  ``cancel`` is polled before every stage task; once it
    returns True the run raises
    :class:`~repro.flow.scheduler.FlowCancelled`.  Completed stages are
    already in the stage cache, so a rerun of the same matrix resumes
    warm.
    """
    jobs = resolve_jobs(jobs)
    own_trace = (options.observe or _obs.env_requested()) and _obs.begin()
    try:
        with _obs.span("run_cells", cells=len(cells), jobs=jobs):
            runs = run_stage_graph(cells, scale, options, jobs,
                                   cancel=cancel)
    finally:
        # Finalize even on a failed run so partial traces (e.g. a
        # StageFailure with some cells completed) still yield a journal.
        if own_trace:
            _journal.finalize(f"matrix-{len(cells)}cells")
    return {cell: runs[cell] for cell in cells}
