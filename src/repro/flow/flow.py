"""The VPGA design flow (paper Figure 6).

::

    RTL (design generators)
      |  synthesis + technology mapping        (repro.synth.techmap)
      |  regularity-driven logic compaction    (repro.synth.compaction)
      |  physical synthesis + ASIC placement   (repro.place)
      |-- flow a: ASIC routing + extraction + STA          -> FlowResult
      |-- flow b: packing into the PLB array (quadrisection,
      |           iterative with physical synthesis), then
      |           ASIC-style routing over the array + STA  -> FlowResult

    "Flow a is obtained if we skip the Packing step ... essentially the
    standard cell ASIC flow using a library which comprises of cells that
    make up each PLB.  Flow b ... produces a regular PLB array with
    ASIC-style custom routing."

The flow is decomposed into content-addressed stages (synthesis,
physical synthesis, flow-a routing/STA, packing, flow-b routing/STA);
:func:`run_design` keys each stage by a stable hash of its inputs and
runs it on the stage DAG (:mod:`repro.flow.scheduler`), which consults a
:class:`~repro.flow.cache.StageCache` so repeated invocations skip every
unchanged prefix of the pipeline.  Per-stage wall times and
cache events are recorded on the returned :class:`DesignRun`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from ..cells.characterize import TimingLibrary, characterize_library
from ..obs import core as _obs
from ..obs import journal as _journal
from ..cells.library import Library
from ..core.plb import PLBArchitecture, granular_plb, lut_plb
from ..netlist.core import Netlist
from ..netlist.stats import NetlistStats, gather
from ..pack.iterative import PackedDesign, run_packing_loop
from ..place.physical_synthesis import PhysicalResult, run_physical_synthesis
from ..route.extract import route_and_extract
from ..route.grid import RoutingGrid
from ..route.pathfinder import RoutingResult
from ..synth.compaction import CompactionReport, compact_to_fixpoint
from ..synth.from_netlist import CombCore, extract_core
from ..synth.optimize import optimize
from ..synth.techmap import map_core
from ..timing.sta import TimingReport, analyze
from .cache import (
    CacheStats,
    StageCache,
    canonical_netlist,
    stable_hash,
)
from .options import (
    FlowOptions,
    PackingOptions,
    PhysicalOptions,
    RouteAOptions,
    RouteBOptions,
    SynthesisOptions,
)

#: Deep mapped netlists recurse through reconstruction helpers.
_RECURSION_LIMIT = 100_000

#: Names of the paper's two architectures, reserved in the registry.
_BUILTIN_NAMES = ("lut", "granular")

#: Custom architectures registered for flow runs, by name.
_CUSTOM_ARCHITECTURES: Dict[str, PLBArchitecture] = {}


def register_architecture(arch: PLBArchitecture) -> PLBArchitecture:
    """Make a custom PLB architecture resolvable by name in the flow.

    Together with :func:`repro.core.plb.custom_plb` this enables the
    paper's proposed future work: pushing arbitrary PLB candidates
    through the complete Figure-6 flow.  The built-in names ``lut`` and
    ``granular`` are reserved: a custom architecture registered under
    one would never be resolved, so it raises :class:`ValueError`.
    """
    if arch.name in _BUILTIN_NAMES:
        raise ValueError(
            f"architecture name {arch.name!r} is reserved for the built-in "
            f"PLB; register the custom architecture under another name"
        )
    _CUSTOM_ARCHITECTURES[arch.name] = arch
    return arch


def architecture_of(name) -> PLBArchitecture:
    if isinstance(name, PLBArchitecture):
        return name
    if name == "lut":
        return lut_plb()
    if name == "granular":
        return granular_plb()
    # The registry read is ambient state in stage-reachable code, but it
    # is cache-coherent by construction: the synthesis key embeds
    # repr(architecture) — the resolved *content*, not the name — so two
    # registrations of different archs under one name cannot collide.
    if name in _CUSTOM_ARCHITECTURES:  # check: allow(CK003)
        return _CUSTOM_ARCHITECTURES[name]  # check: allow(CK003)
    raise ValueError(f"unknown architecture {name!r}")


@dataclass
class SynthesisResult:
    """Mapped + compacted netlist and its provenance."""

    netlist: Netlist
    arch: PLBArchitecture
    library: Library
    timing_library: TimingLibrary
    compaction: CompactionReport
    pre_compaction_stats: NetlistStats
    stats: NetlistStats
    #: Mapped netlist before logic compaction — the golden reference for
    #: cross-stage equivalence checking (``repro check --stage equivalence``).
    pre_compaction_netlist: Optional[Netlist] = None


@dataclass
class FlowResult:
    """One flow endpoint (flow a or flow b) for one design/architecture."""

    flow: str                     # "a" | "b"
    arch_name: str
    netlist_stats: NetlistStats
    die_area: float               # um^2
    timing: TimingReport
    routing: RoutingResult
    packing_displacement: float = 0.0
    plbs_used: int = 0
    array_side: int = 0

    @property
    def average_slack(self) -> float:
        return self.timing.average_slack()

    @property
    def worst_slack(self) -> float:
        return self.timing.worst_slack


@dataclass
class DesignRun:
    """Both flows for one design on one architecture (shared front end)."""

    design: str
    arch_name: str
    synthesis: SynthesisResult
    physical: PhysicalResult
    flow_a: FlowResult
    flow_b: FlowResult
    #: Full packing-stage artifact (netlist + PLB assignment), kept so
    #: ``repro check`` can audit packing legality after the run.
    packed: Optional[PackedDesign] = None
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    stage_cached: Dict[str, bool] = field(default_factory=dict)
    cache_stats: Optional[CacheStats] = None
    journal_path: Optional[Path] = None

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    def summary(self) -> Dict:
        """A machine-readable run summary (``repro run --json``).

        Everything scripts used to scrape from stdout: areas, slacks,
        per-stage seconds, cache events, and the journal path when the
        run was traced.
        """
        def flow_summary(result: FlowResult) -> Dict:
            out = {
                "die_area_um2": result.die_area,
                "average_slack_ns": result.average_slack,
                "worst_slack_ns": result.worst_slack,
                "instances": result.netlist_stats.n_instances,
                "nand2_equivalents": result.netlist_stats.nand2_equivalents,
                "routing_iterations": result.routing.iterations,
                "routing_overused_edges": result.routing.overused_edges,
                "total_wirelength_um": result.routing.total_wirelength(),
            }
            if result.flow == "b":
                out["plbs_used"] = result.plbs_used
                out["array_side"] = result.array_side
                out["packing_displacement"] = result.packing_displacement
            return out

        cache = None
        if self.cache_stats is not None:
            cache = {
                "hits": self.cache_stats.hits,
                "misses": self.cache_stats.misses,
                "corrupt": self.cache_stats.corrupt,
                "bytes_read": self.cache_stats.bytes_read,
                "bytes_written": self.cache_stats.bytes_written,
            }
        return {
            "design": self.design,
            "arch": self.arch_name,
            "synthesis": {
                "instances": self.synthesis.stats.n_instances,
                "nand2_equivalents": self.synthesis.stats.nand2_equivalents,
                "total_area_um2": self.synthesis.stats.total_area,
                "compaction_reduction": self.synthesis.compaction.reduction,
            },
            # getattr: physical results unpickled from caches written
            # before the field existed have no placement_stats.
            "placement": dict(
                getattr(self.physical, "placement_stats", None) or {}
            ),
            "flow_a": flow_summary(self.flow_a),
            "flow_b": flow_summary(self.flow_b),
            "stage_seconds": dict(self.stage_seconds),
            "stage_cached": dict(self.stage_cached),
            "total_seconds": self.total_seconds,
            "cache": cache,
            "journal": str(self.journal_path) if self.journal_path else None,
        }

    #: ``summary()`` keys that vary between otherwise-identical runs
    #: (wall times, cache traffic, journal paths) — everything else is a
    #: pure function of (netlist, options, seed).
    VOLATILE_SUMMARY_KEYS = (
        "stage_seconds", "stage_cached", "total_seconds", "cache", "journal",
    )

    def metrics(self) -> Dict:
        """The deterministic subset of :meth:`summary`.

        Byte-for-byte reproducible for a given (design, options, seed):
        a run served through ``repro submit --wait`` and a local
        ``repro run --json --metrics-only`` of the same request emit
        identical JSON (asserted in ``tests/test_serve.py`` and CI).
        """
        doc = self.summary()
        for key in self.VOLATILE_SUMMARY_KEYS:
            doc.pop(key, None)
        return doc

    def performance_report(self) -> str:
        """Per-stage wall time and cache events, one line per stage."""
        lines = [f"stage timings for {self.design}/{self.arch_name}:"]
        for stage in STAGES:
            if stage not in self.stage_seconds:
                continue
            mark = "cached" if self.stage_cached.get(stage) else "computed"
            lines.append(
                f"  {stage:10s} {self.stage_seconds[stage]:9.3f} s  [{mark}]"
            )
        lines.append(f"  {'total':10s} {self.total_seconds:9.3f} s")
        if self.cache_stats is not None:
            lines.append(f"  cache: {self.cache_stats.format()}")
        return "\n".join(lines)


def synthesize(netlist: Netlist, options: SynthesisOptions) -> SynthesisResult:
    """Front end: AIG optimization, mapping, logic compaction."""
    if sys.getrecursionlimit() < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
    arch = architecture_of(options.arch)
    library = arch.library
    with _obs.span("synth.extract"):
        core = extract_core(netlist)
    with _obs.span("synth.optimize", effort=options.opt_effort):
        core = CombCore(
            aig=optimize(core.aig, effort=options.opt_effort),
            primary_inputs=core.primary_inputs,
            primary_outputs=core.primary_outputs,
            dffs=core.dffs,
        )
    with _obs.span("synth.map", arch=options.arch):
        mapped = map_core(core, options.arch, library)
    pre_stats = gather(mapped)
    pre_netlist = mapped.copy()
    if options.run_compaction:
        with _obs.span("synth.compact", arch=options.arch):
            mapped, report = compact_to_fixpoint(mapped, library)
    else:
        area = pre_stats.total_area
        report = CompactionReport(
            applied=False, area_before=area, area_after=area,
            supernodes_collapsed=0, structure_histogram={},
        )
    return SynthesisResult(
        netlist=mapped,
        arch=arch,
        library=library,
        timing_library=characterize_library(library),
        compaction=report,
        pre_compaction_stats=pre_stats,
        stats=gather(mapped),
        pre_compaction_netlist=pre_netlist,
    )


def _run_physical(
    synthesis: SynthesisResult, options: PhysicalOptions
) -> PhysicalResult:
    """Physical synthesis on the mapped netlist (mutates a private copy)."""
    return run_physical_synthesis(
        synthesis.netlist.copy(),
        synthesis.library,
        synthesis.timing_library,
        period=options.period,
        seed=options.seed,
        iterations=options.place_iterations,
        effort=options.place_effort,
        utilization=options.utilization,
    )


def _route_flow_a(physical: PhysicalResult, options: RouteAOptions) -> tuple:
    grid = physical.placement.grid
    bins = max(4, options.routing_bins_per_side)
    pitch = max(grid.width_um, grid.height_um) / bins
    routing_grid = RoutingGrid(
        cols=max(2, math.ceil(grid.width_um / pitch)),
        rows=max(2, math.ceil(grid.height_um / pitch)),
        bin_pitch=pitch,
        tracks=options.routing_tracks,
    )
    points = physical.placement.net_pin_points(physical.netlist)
    return route_and_extract(routing_grid, points)


def _flow_a_result(
    synthesis: SynthesisResult, physical: PhysicalResult, options: RouteAOptions
) -> FlowResult:
    """Flow a back end: routing + extraction + STA over the cell grid."""
    routing, wires = _route_flow_a(physical, options)
    timing = analyze(
        physical.netlist, synthesis.timing_library, wires, period=options.period
    )
    # Flow a die area: the standard-cell core at the utilization target.
    return FlowResult(
        flow="a",
        arch_name=synthesis.arch.name,
        netlist_stats=gather(physical.netlist),
        die_area=physical.placement.grid.area_um2,
        timing=timing,
        routing=routing,
    )


def _pack_stage(
    synthesis: SynthesisResult, physical: PhysicalResult, options: PackingOptions
) -> PackedDesign:
    """Packing into the PLB array, iterated with physical synthesis.

    The packing loop mutates the netlist it is given (buffer insertion
    during re-synthesis), so it gets a private copy — ``physical`` must
    stay a faithful placement-stage artifact for post-hoc audits.
    """
    return run_packing_loop(
        physical.netlist.copy(),
        physical.placement,
        synthesis.arch,
        synthesis.library,
        synthesis.timing_library,
        period=options.period,
        iterations=options.pack_iterations,
        headroom=options.pack_headroom,
    )


def _flow_b_result(
    synthesis: SynthesisResult, packed: PackedDesign, options: RouteBOptions
) -> FlowResult:
    """Flow b back end: ASIC-style routing over the PLB array + STA."""
    routing_grid = RoutingGrid(
        cols=packed.packing.cols,
        rows=packed.packing.rows,
        bin_pitch=synthesis.arch.tile_side,
        tracks=options.routing_tracks,
    )
    points = packed.packing.net_pin_points(packed.netlist)
    routing, wires = route_and_extract(routing_grid, points)
    timing = analyze(
        packed.netlist, synthesis.timing_library, wires, period=options.period
    )
    return FlowResult(
        flow="b",
        arch_name=synthesis.arch.name,
        netlist_stats=gather(packed.netlist),
        die_area=packed.die_area,
        timing=timing,
        routing=routing,
        packing_displacement=packed.packing.total_displacement,
        plbs_used=packed.packing.plbs_used,
        array_side=packed.packing.cols,
    )


# ----------------------------------------------------------------------
# The pipeline: one record per stage, used by the stage DAG
# (repro.flow.scheduler) that runs every flow.
# ----------------------------------------------------------------------

def _audit_synthesis(run, synthesis) -> None:
    run("netlist", netlist=synthesis.netlist)


def _audit_physical(run, _synthesis, physical) -> None:
    run("placement", netlist=physical.netlist, placement=physical.placement)


def _audit_route_a(run, _synthesis, physical, flow_a) -> None:
    run("routing", routing=flow_a.routing,
        net_points=physical.placement.net_pin_points(physical.netlist))


def _audit_packing(run, synthesis, _physical, packed) -> None:
    run("packing", netlist=packed.netlist, packing=packed.packing)
    run("equivalence",
        reference=synthesis.pre_compaction_netlist or synthesis.netlist,
        implementation=packed.netlist)


def _audit_route_b(run, _synthesis, packed, flow_b) -> None:
    run("routing", routing=flow_b.routing,
        net_points=packed.packing.net_pin_points(packed.netlist))


def _synthesis_key(netlist: Netlist, sliced: SynthesisOptions) -> tuple:
    """The root's key components: the source netlist and the resolved
    architecture's content (not its name), then the rest of its slice."""
    return (
        canonical_netlist(netlist), repr(architecture_of(sliced.arch)),
        sliced.opt_effort, sliced.run_compaction,
    )


@dataclass(frozen=True)
class Stage:
    """One stage of the Figure-6 pipeline.

    ``inputs`` names the upstream stages whose artifacts ``compute``
    consumes, in its argument order: ``compute(*inputs, sliced)``, where
    ``sliced`` is the stage's frozen ``options`` slice of
    :class:`FlowOptions`; the root takes the source netlist instead.
    ``audit(run, *inputs, artifact)`` states the fatal-only checks at the
    stage's boundary as ``run(kind, **artifacts)`` calls.  A stage's key
    hashes its slice chained on the key of its last input, which pins
    every other input transitively; the root, which has no input, hashes
    ``key(netlist, sliced)`` instead.
    """

    name: str
    inputs: Tuple[str, ...]
    options: type
    compute: Callable
    audit: Callable
    key: Optional[Callable] = None

    def slice(self, options: FlowOptions):
        """The frozen options slice this stage computes from and is
        keyed by."""
        return self.options(
            *(getattr(options, f.name) for f in fields(self.options))
        )


#: The Figure-6 pipeline, in pipeline order: every input precedes the
#: stages that read it.
PIPELINE: Tuple[Stage, ...] = (
    Stage("synthesis", inputs=(), options=SynthesisOptions,
          compute=synthesize, audit=_audit_synthesis, key=_synthesis_key),
    Stage("physical", inputs=("synthesis",), options=PhysicalOptions,
          compute=_run_physical, audit=_audit_physical),
    Stage("route_a", inputs=("synthesis", "physical"), options=RouteAOptions,
          compute=_flow_a_result, audit=_audit_route_a),
    Stage("packing", inputs=("synthesis", "physical"), options=PackingOptions,
          compute=_pack_stage, audit=_audit_packing),
    Stage("route_b", inputs=("synthesis", "packing"), options=RouteBOptions,
          compute=_flow_b_result, audit=_audit_route_b),
)

#: Stage names, in pipeline order (used by reports and benchmarks).
STAGES = tuple(stage.name for stage in PIPELINE)

#: Each stage's record by name.
STAGE_RECORDS: Dict[str, Stage] = {stage.name: stage for stage in PIPELINE}


def stage_keys(
    cache: StageCache, netlist: Netlist, options: FlowOptions
) -> Dict[str, str]:
    """Every stage's cache key for one (netlist, options) cell.

    Each key hashes the stage's options slice — exactly what its compute
    function receives — chained on its last input's key, so an upstream
    change invalidates exactly its downstream stages; the root hashes
    its ``key`` components.  Component order is load-bearing: it must
    stay byte-identical across releases or every existing cache entry
    silently misses.
    """
    keys: Dict[str, str] = {}
    for stage in PIPELINE:
        sliced = stage.slice(options)
        if stage.key is not None:
            parts = stage.key(netlist, sliced)
        else:
            parts = (keys[stage.inputs[-1]], *astuple(sliced))
        keys[stage.name] = cache.key(stage.name, *parts)
    return keys


def request_key(
    cache: StageCache, netlist: Netlist, options: FlowOptions
) -> str:
    """The sha256 identity of one flow request, for coalescing.

    Derived from the full stage-cache key chain, so it inherits the
    chain's contract exactly: performance knobs (the fields in
    :data:`repro.flow.options.PERF_KNOBS`) do not participate, and two
    requests share a key if and only if every stage of one would be a
    cache hit for the other.  ``repro.serve`` coalesces concurrent
    submissions with equal keys onto a single execution.
    """
    keys = stage_keys(cache, netlist, options)
    return stable_hash("request", *(keys[stage] for stage in STAGES))


def compute_stage(
    stage: str,
    options: FlowOptions,
    artifacts: Dict[str, object],
    netlist: Optional[Netlist] = None,
):
    """Compute one stage from its upstream artifacts.

    ``artifacts`` must hold every stage named in the record's
    ``inputs``; the root stage takes the source ``netlist`` instead.
    The stage sees only its options slice — the fields its cache key
    hashes — so reading an unkeyed field raises
    :class:`AttributeError`.  Pure per (inputs, slice) — that purity is
    what makes both the stage cache and cross-process scheduling sound.
    """
    record = STAGE_RECORDS[stage]
    upstream = [artifacts[name] for name in record.inputs] or [netlist]
    return record.compute(*upstream, record.slice(options))


def guard_stage(
    stage: str,
    options: FlowOptions,
    artifacts: Dict[str, object],
    context: str,
) -> None:
    """Fatal-only stage-boundary audit (``FlowOptions.check``).

    ``artifacts`` holds the stage's own result plus its record's
    ``inputs``; a fatal finding raises :class:`repro.check.CheckError`.
    """
    if not options.check:
        return
    from ..check.runner import check_stage, enforce

    def run(kind: str, **kw) -> None:
        enforce(check_stage(kind, **kw), f"{context} after {stage}")

    record = STAGE_RECORDS[stage]
    record.audit(run, *(artifacts[name] for name in record.inputs),
                 artifacts[stage])


def run_design(
    netlist: Union[Netlist, str],
    arch,
    options: Optional[FlowOptions] = None,
    cache: Optional[StageCache] = None,
    cancel: Optional[Callable[[], bool]] = None,
    progress: Optional[Callable[[str, bool, float], None]] = None,
) -> DesignRun:
    """Run both flows for one design on one architecture.

    ``netlist`` is a :class:`~repro.netlist.core.Netlist`, or a design
    name from :data:`repro.designs.DESIGN_BUILDERS` (``"alu"``,
    ``"netswitch"``, ...) built at scale 1.0.

    ``arch`` is ``"lut"``, ``"granular"``, a registered custom name, or a
    :class:`~repro.core.plb.PLBArchitecture` instance (registered
    automatically).

    Every stage consults ``cache`` (a fresh :class:`StageCache` honoring
    ``options.use_cache`` when not given); stage keys chain so any change
    to an upstream input invalidates everything downstream of it while
    unchanged prefixes are reused.  A cache hit yields a result equal in
    value to a cold computation — determinism of every stage per seed is
    what makes the cache sound.

    The run is a one-cell graph on the stage DAG
    (:mod:`repro.flow.scheduler`), executed in this process.  ``cancel``,
    when given, is polled before every stage; once it returns True the
    run raises :class:`~repro.flow.scheduler.FlowCancelled` instead of
    starting the next stage.  Finished stages are already persisted in
    the cache, so a cancelled (or drained) run checkpoints for free: the
    same request resubmitted later resumes warm.  ``progress`` is called
    after each stage, cached ones included, in :data:`STAGES` order with
    ``(stage, cache_hit, seconds)`` — the hook ``repro.serve`` uses to
    stream per-stage job progress.  Neither hook ever changes computed
    results.  A stage that raises propagates its own exception: with one
    cell there is no finished result for a
    :class:`~repro.flow.scheduler.StageFailure` to carry.
    """
    from .scheduler import StageFailure, run_stage_graph

    if isinstance(netlist, str):
        from ..designs import DESIGN_BUILDERS

        if netlist not in DESIGN_BUILDERS:
            raise ValueError(
                f"unknown design name {netlist!r} "
                f"(choices: {sorted(DESIGN_BUILDERS)})"
            )
        from .experiments import build_design

        netlist = build_design(netlist)
    elif not isinstance(netlist, Netlist):
        raise TypeError(
            "run_design expects a Netlist or a design name (str), "
            f"got {type(netlist).__name__}"
        )
    if isinstance(arch, PLBArchitecture):
        if (
            arch.name not in _BUILTIN_NAMES
            or architecture_of(arch.name) is not arch
        ):
            register_architecture(arch)
        arch = arch.name
    options = (options or FlowOptions()).with_arch(arch)
    # Tracing: activate when requested; whoever activates owns the trace
    # and writes the journal at the end.  Inside a traced run_cells,
    # begin() returns False and this run only records into that trace.
    observing = options.observe or _obs.env_requested()
    own_trace = _obs.begin() if observing else False
    cell = (netlist.name, arch)
    try:
        with _obs.span(
            "run_design", design=netlist.name, arch=arch, seed=options.seed
        ):
            run = run_stage_graph(
                [cell], options=options, cancel=cancel,
                netlists={netlist.name: netlist}, cache=cache,
                progress=progress,
            )[cell]
    except StageFailure as failure:
        raise failure.__cause__ from None
    if own_trace:
        run.journal_path = _journal.finalize(f"{netlist.name}-{arch}")
    return run
