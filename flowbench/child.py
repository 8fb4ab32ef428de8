"""One benchmark pass, run in a fresh interpreter by ``harness.py``.

Usage (the harness builds the spec; nobody runs this by hand)::

    python flowbench/child.py SPEC_JSON RESULT_PATH

``SPEC_JSON`` is a JSON object:

* ``mode``: ``"seed"`` derives the realization tables into the (empty)
  ``$REPRO_CACHE_DIR`` and checks the Figure-2 function counts;
  ``"pass"`` sets up and runs one timed evaluation-matrix pass;
  ``"setup"`` stops after set-up.
* ``cells``, ``scale``, ``options`` (``FlowOptions`` fields, ``jobs``
  included): what the pass runs.
* ``journal``: when set, the child records itself with ``repro.obs`` (the
  pass runs with ``observe=True``) and writes every event to this path as
  JSON lines.  That is the flow's own journal: stage, synthesis, SA and
  routing spans, counters, and the fragments of pool workers.  The child
  adds only what obs does not record (see :func:`instrument`).

The result JSON carries the child's own clocks: ``ready`` is the
system-wide monotonic time at which set-up finished (the parent subtracts
its spawn time to get ``setup_s``), ``pass_s`` the wall time of the
``run_cells`` call plus table rendering.
"""

import functools
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from repro.obs import core as obs

#: Figure 2 / Section 2.1 function counts: 196 S3-feasible, the other 60
#: in five categories, all 256 covered by the modified S3.
FIGURE2 = (196, 60, 5, 256)


def instrument():
    """Span the calls obs does not time, and count optimized AIG nodes.

    ``stage_keys`` becomes ``cache.key``, ``StageCache.get/put`` become
    ``cache.get``/``cache.put`` and ``build_design`` becomes
    ``designs.build``.  Each ``optimize`` call inside ``synthesize``
    records a ``synth.aig`` point with the optimized AIG's AND count.
    Forked pool workers inherit the wrappers and ship the events back
    with the rest of their trace.
    """
    from repro.flow import experiments, flow, scheduler
    from repro.flow.cache import StageCache

    def spanned(owner, attr, name, **describe):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def call(*args, **kwargs):
            attrs = {k: args[i] for k, i in describe.items() if i < len(args)}
            with obs.span(name, **attrs):
                return original(*args, **kwargs)

        setattr(owner, attr, call)

    for module in (flow, scheduler):
        spanned(module, "stage_keys", "cache.key")
    spanned(StageCache, "get", "cache.get", stage=1)
    spanned(StageCache, "put", "cache.put", stage=1)
    spanned(experiments, "build_design", "designs.build", design=0)

    optimize = flow.optimize

    @functools.wraps(optimize)
    def counted(*args, **kwargs):
        aig = optimize(*args, **kwargs)
        obs.point("synth.aig", ands=aig.n_ands())
        return aig

    flow.optimize = counted


def render_tables(runs):
    """The text a ``repro tables`` run prints for these cells.

    Table 1/2 need both architectures of a design; a partial matrix
    (the single full-scale cell) renders the compaction summary only.
    """
    from repro.flow.experiments import (
        ARCHES, Matrix, run_compaction_summary, run_table1, run_table2,
    )

    matrix = Matrix(runs=runs)
    designs = {design for design, _arch in runs}
    parts = []
    if all((d, a) in runs for d in designs for a in ARCHES):
        parts += [run_table1(matrix).format(), run_table2(matrix).format()]
    parts.append(run_compaction_summary(matrix).format())
    return "\n\n".join(parts) + "\n"


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def seed_tables(spec):
    """Derive every realization table into the empty cache; check F2."""
    from repro.flow.experiments import run_figure2
    from repro.synth.realize import baseline_table, compaction_table

    for arch in dict.fromkeys(arch for _design, arch in spec["cells"]):
        baseline_table(arch)
        compaction_table(arch)
    figure2 = run_figure2()
    found = (figure2.s3_feasible, figure2.s3_infeasible,
             len(figure2.category_counts), figure2.modified_s3_coverage)
    if found != FIGURE2:
        raise RuntimeError(f"Figure 2 counts {found} != expected {FIGURE2}")
    return {}


def result_counts(runs):
    """Counts read off the pass's artifacts, summed over cells."""
    synth = [run.synthesis for run in runs.values()]
    flows = [f for run in runs.values() for f in (run.flow_a, run.flow_b)]
    return {
        "synth.mapped_instances":
            sum(s.pre_compaction_stats.n_instances for s in synth),
        "synth.compacted_instances": sum(s.stats.n_instances for s in synth),
        "synth.supernodes_collapsed":
            sum(s.compaction.supernodes_collapsed for s in synth),
        "route.iterations": sum(f.routing.iterations for f in flows),
        "route.overused_edges": sum(f.routing.overused_edges for f in flows),
        "route.wirelength_um":
            sum(f.routing.total_wirelength() for f in flows),
        "pack.plbs_used": sum(run.flow_b.plbs_used for run in runs.values()),
        "pack.displacement_um":
            sum(run.flow_b.packing_displacement for run in runs.values()),
    }


def run_pass(spec):
    """Set up (``mode="setup"`` stops there), then one timed pass."""
    from repro.cells.characterize import characterize_library
    from repro.flow.experiments import Matrix
    from repro.flow.flow import architecture_of
    from repro.flow.options import FlowOptions
    from repro.flow.parallel import run_cells
    from repro.synth.realize import baseline_table, compaction_table

    cells = [tuple(cell) for cell in spec["cells"]]
    for arch in dict.fromkeys(arch for _design, arch in cells):
        with obs.span("cells.characterize", arch=arch):
            characterize_library(architecture_of(arch).library)
        baseline_table(arch)
        compaction_table(arch)
    options = FlowOptions(**spec["options"], observe=obs.active())
    ready = time.monotonic()
    if spec["mode"] == "setup":
        return {"ready": ready}

    start = time.perf_counter()
    runs = run_cells(cells, spec["scale"], options, jobs=options.jobs)
    with obs.span("experiments.render"):
        tables = render_tables(runs)
    pass_s = time.perf_counter() - start

    maxrss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    maxrss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {f"{d}/{a}": run.metrics() for (d, a), run in runs.items()}
    cache = Matrix(runs=runs).aggregate_cache_stats()
    return {
        "ready": ready,
        "pass_s": pass_s,
        "metrics_sha256": sha256(json.dumps(metrics, sort_keys=True)),
        "tables_sha256": sha256(tables),
        "peak_rss_mb": (maxrss_self + maxrss_children) / 1024.0,
        "counts": result_counts(runs),
        "cache": {
            "hits": cache.hits, "misses": cache.misses,
            "bytes_read": cache.bytes_read,
            "bytes_written": cache.bytes_written,
        },
    }


def main(argv):
    spec = json.loads(argv[1])
    journal = spec.get("journal")
    if journal:
        obs.begin()
        instrument()
    if spec["mode"] == "seed":
        result = seed_tables(spec)
    else:
        result = run_pass(spec)
    if journal:
        with open(journal, "w", encoding="utf-8") as handle:
            for event in obs.drain():
                handle.write(json.dumps(event, sort_keys=True, default=str))
                handle.write("\n")
    Path(argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
