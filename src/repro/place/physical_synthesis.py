"""The physical-synthesis loop (the paper's Dolphin stage).

Place, estimate wires, analyze timing, derive net criticalities, insert
buffers on overloaded nets, and re-place with criticality weighting —
"a detailed ASIC-style placement that has been optimized for performance,
area and routability based on physical information".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..cells.characterize import TimingLibrary
from ..cells.library import Library
from ..netlist.core import Netlist
from ..timing.sta import TimingReport, analyze
from ..timing.wires import WireModel, wire_model_from_placement
from .buffers import insert_buffers
from .grid import (
    DEFAULT_UTILIZATION,
    PlacementGrid,
    Site,
    grid_for_netlist,
)
from .sa import AnnealingPlacer, Placement

#: Criticality weighting strength in the placement cost.
TIMING_WEIGHT = 2.0


@dataclass
class PhysicalResult:
    """Outcome of physical synthesis."""

    netlist: Netlist
    placement: Placement
    wires: WireModel
    timing: TimingReport
    buffers_added: int
    #: Aggregated annealer counters across placement iterations
    #: (temperatures, moves proposed/evaluated/accepted).  They never
    #: steer the flow, but ``DesignRun.metrics()`` reports them.
    placement_stats: Dict[str, object] = field(default_factory=dict)


def net_criticalities(
    netlist: Netlist, report: TimingReport
) -> Dict[str, float]:
    """Per-net criticality in [0, 1] from endpoint slacks.

    A net's criticality is derived from the worst arrival-time fraction of
    the logic it feeds: nets on paths near the critical delay approach 1.
    """
    worst = report.critical_path_delay or 1.0
    crit: Dict[str, float] = {}
    for net, arrival in report.arrival.items():
        crit[net] = max(0.0, min(1.0, arrival / worst))
    return crit


def run_physical_synthesis(
    netlist: Netlist,
    library: Library,
    timing_library: TimingLibrary,
    period: float,
    seed: int = 0,
    iterations: int = 2,
    locked: Optional[Mapping[str, Site]] = None,
    grid: Optional[PlacementGrid] = None,
    effort: float = 1.0,
    utilization: float = DEFAULT_UTILIZATION,
) -> PhysicalResult:
    """Place-and-optimize loop; mutates ``netlist`` (buffer insertion).

    ``utilization`` sizes the standard-cell site grid when no explicit
    ``grid`` is given (flow a die sizing); it changes placement and die
    area, so the flow keys the physical stage on it.
    """
    weights: Dict[str, float] = {}
    buffers_added = 0
    placement: Optional[Placement] = None
    stats: Dict[str, object] = {
        "temperatures": 0, "proposed": 0, "evaluated": 0, "accepted": 0,
    }

    for iteration in range(max(1, iterations)):
        work_grid = grid or grid_for_netlist(netlist, utilization=utilization)
        placer = AnnealingPlacer(
            netlist,
            work_grid,
            net_weights={n: TIMING_WEIGHT * w for n, w in weights.items()},
            seed=seed + iteration,
            locked=locked,
            effort=effort,
        )
        placement = placer.place()
        # "engine" names the cost state the annealer ran on; it is kept
        # (constant) because DesignRun.metrics() digests placement_stats.
        stats["engine"] = "array"
        for key in ("temperatures", "proposed", "evaluated", "accepted"):
            stats[key] += int(placer.stats.get(key, 0))  # type: ignore[operator]
        wires = wire_model_from_placement(placement.net_pin_points(netlist))
        report = analyze(netlist, timing_library, wires, period=period)
        if iteration == max(1, iterations) - 1:
            return PhysicalResult(
                netlist=netlist,
                placement=placement,
                wires=wires,
                timing=report,
                buffers_added=buffers_added,
                placement_stats=stats,
            )
        weights = net_criticalities(netlist, report)
        buffers_added += insert_buffers(netlist, library, placement)

    raise AssertionError("unreachable")  # pragma: no cover
