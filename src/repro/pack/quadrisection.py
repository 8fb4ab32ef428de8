"""Recursive-quadrisection packing (paper Section 3.1).

"Our packing algorithm does this by recursive quadrisection.  At each
quadrisection level, the component cells are relocated to other regions of
the chip depending on the availability of the corresponding resource. ...
The cost function used in this algorithm takes into consideration the
criticality of the cells being moved and also tries to minimize
perturbation of the ASIC-style placement."

The ASIC-style detailed placement is scaled onto the PLB array; the array
is then split recursively into quadrants.  Whenever a quadrant's component
demand exceeds its resource supply, overflow cells — least-critical,
smallest-displacement first — migrate to the nearest sibling quadrant with
free resources.  At single-PLB leaves, cells are bound to concrete slots;
any residual overflow spills to the nearest PLB with space (spiral
search).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.plb import PLBArchitecture
from ..netlist.core import Instance, Netlist
from ..obs import core as _obs
from ..place.sa import Placement
from .resources import PackingError, SlotPool, region_fits

Position = Tuple[float, float]


@dataclass(frozen=True)
class SlotAssignment:
    """Where one instance landed."""

    plb: Tuple[int, int]
    slot: str


@dataclass
class PackingResult:
    """Full packing outcome."""

    arch: PLBArchitecture
    cols: int
    rows: int
    assignments: Dict[str, SlotAssignment]
    #: total |displacement| between scaled ASIC position and PLB center, um
    total_displacement: float
    moved_cells: int

    @property
    def n_plbs(self) -> int:
        return self.cols * self.rows

    @property
    def plbs_used(self) -> int:
        return len({a.plb for a in self.assignments.values()})

    @property
    def die_area(self) -> float:
        """Flow-b die area: the full PLB array footprint (um^2)."""
        return self.n_plbs * self.arch.area

    def plb_center(self, plb: Tuple[int, int]) -> Position:
        side = self.arch.tile_side
        return ((plb[0] + 0.5) * side, (plb[1] + 0.5) * side)

    def position_of(self, inst_name: str) -> Position:
        return self.plb_center(self.assignments[inst_name].plb)

    def utilization(self) -> Dict[str, float]:
        """Per-slot-type utilization across the array."""
        used: Dict[str, int] = {}
        for assignment in self.assignments.values():
            used[assignment.slot] = used.get(assignment.slot, 0) + 1
        return {
            slot: used.get(slot, 0) / (count * self.n_plbs)
            for slot, count in self.arch.slots.items()
        }

    def net_pin_points(self, netlist: Netlist) -> Dict[str, List[Position]]:
        """Pin coordinates per net on the PLB array (pads on the ring)."""
        side = self.arch.tile_side
        width, height = self.cols * side, self.rows * side
        pad_names = list(netlist.inputs) + list(netlist.outputs)
        pads = _ring_positions(pad_names, width, height)
        points: Dict[str, List[Position]] = {}
        for name, net in netlist.nets.items():
            pts: List[Position] = []
            if net.driver is not None:
                pts.append(self.position_of(net.driver[0]))
            if name in pads:
                pts.append(pads[name])
            for sink_name, _pin in net.sinks:
                pts.append(self.position_of(sink_name))
            points[name] = pts
        return points


def _ring_positions(
    names: Sequence[str], width: float, height: float
) -> Dict[str, Position]:
    perimeter = 2.0 * (width + height)
    out: Dict[str, Position] = {}
    n = max(1, len(names))
    for i, name in enumerate(names):
        d = (i + 0.5) * perimeter / n
        if d < width:
            out[name] = (d, 0.0)
        elif d < width + height:
            out[name] = (width, d - width)
        elif d < 2 * width + height:
            out[name] = (2 * width + height - d, height)
        else:
            out[name] = (0.0, perimeter - d)
    return out


@dataclass
class _Region:
    col0: int
    col1: int  # exclusive
    row0: int
    row1: int  # exclusive
    cells: List[str] = field(default_factory=list)

    @property
    def n_plbs(self) -> int:
        return (self.col1 - self.col0) * (self.row1 - self.row0)

    def center(self, tile: float) -> Position:
        return (
            (self.col0 + self.col1) / 2.0 * tile,
            (self.row0 + self.row1) / 2.0 * tile,
        )

    def is_leaf(self) -> bool:
        return self.n_plbs <= 1


def pack(
    netlist: Netlist,
    placement: Placement,
    arch: PLBArchitecture,
    cols: int,
    rows: int,
    criticality: Optional[Mapping[str, float]] = None,
) -> PackingResult:
    """Pack ``netlist`` into a ``cols`` x ``rows`` PLB array."""
    criticality = criticality or {}
    instances = netlist.instances
    if not region_fits(arch, list(instances.values()), cols * rows):
        raise PackingError(
            f"{netlist.name}: does not fit a {cols}x{rows} array of {arch.name} PLBs"
        )

    # Scale the ASIC placement onto the PLB array.  Instances the packing
    # loop created after placement (re-inserted buffers) take the centroid
    # of their placed neighbors.
    tile = arch.tile_side
    width, height = max(1e-9, placement.grid.width_um), max(1e-9, placement.grid.height_um)
    scaled: Dict[str, Position] = {}
    unplaced: List[str] = []
    for name in instances:
        if name in placement.sites:
            x, y = placement.position_of(name)
            scaled[name] = (x / width * cols * tile, y / height * rows * tile)
        else:
            unplaced.append(name)
    default = (cols * tile / 2.0, rows * tile / 2.0)
    for name in unplaced:
        neighbors: List[Position] = []
        inst = instances[name]
        for net in list(inst.input_nets()) + [inst.output_net]:
            net_obj = netlist.nets[net]
            if net_obj.driver is not None and net_obj.driver[0] in scaled:
                neighbors.append(scaled[net_obj.driver[0]])
            for sink_name, _pin in net_obj.sinks:
                if sink_name in scaled:
                    neighbors.append(scaled[sink_name])
        if neighbors:
            scaled[name] = (
                sum(p[0] for p in neighbors) / len(neighbors),
                sum(p[1] for p in neighbors) / len(neighbors),
            )
        else:
            scaled[name] = default

    def crit_of(name: str) -> float:
        return criticality.get(name, 0.0)

    root = _Region(0, cols, 0, rows, cells=list(instances))
    assignments: Dict[str, SlotAssignment] = {}
    total_displacement = 0.0
    moved = 0

    queue: List[_Region] = [root]
    while queue:
        region = queue.pop()
        if region.is_leaf():
            disp, spilled = _assign_leaf(
                region, instances, scaled, arch, assignments, cols, rows, tile
            )
            total_displacement += disp
            moved += spilled
            continue
        children = _split(region)
        # Geographic assignment of cells to children.
        for name in region.cells:
            x, y = scaled[name]
            best = min(
                children,
                key=lambda ch: _dist((x, y), ch.center(tile)),
            )
            best.cells.append(name)
        _balance_children(children, instances, scaled, arch, crit_of, tile)
        queue.extend(children)

    _obs.counter("pack.spills", moved)
    return PackingResult(
        arch=arch,
        cols=cols,
        rows=rows,
        assignments=assignments,
        total_displacement=total_displacement,
        moved_cells=moved,
    )


def _dist(a: Position, b: Position) -> float:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _split(region: _Region) -> List[_Region]:
    cmid = (region.col0 + region.col1 + 1) // 2
    rmid = (region.row0 + region.row1 + 1) // 2
    children = []
    for c0, c1 in ((region.col0, cmid), (cmid, region.col1)):
        for r0, r1 in ((region.row0, rmid), (rmid, region.row1)):
            if c1 > c0 and r1 > r0:
                children.append(_Region(c0, c1, r0, r1))
    return children


def _balance_children(
    children: List[_Region],
    instances: Mapping[str, Instance],
    scaled: Mapping[str, Position],
    arch: PLBArchitecture,
    crit_of,
    tile: float,
) -> None:
    """Move overflow cells between sibling quadrants until all fit.

    Overflow candidates are chosen least-critical first, then by smallest
    displacement to the receiving quadrant — the paper's cost function.
    """
    pools = [SlotPool.for_plbs(arch, ch.n_plbs) for ch in children]
    overflow: List[Tuple[str, int]] = []  # (cell, source child index)

    kept: List[List[str]] = [[] for _ in children]
    for index, child in enumerate(children):
        # Most-constrained cells claim slots first; prefer keeping
        # critical cells in their home quadrant.
        ordered = sorted(
            child.cells,
            key=lambda n: (
                len(arch.hosting_slots(instances[n].cell.name)),
                -crit_of(n),
            ),
        )
        for name in ordered:
            slot = pools[index].can_host(arch, instances[name].cell.name)
            if slot is None:
                overflow.append((name, index))
            else:
                pools[index].take(slot)
                kept[index].append(name)

    # Least-critical overflow first.
    overflow.sort(key=lambda item: crit_of(item[0]))
    for name, source in overflow:
        candidates = []
        for index, child in enumerate(children):
            if index == source:
                continue
            slot = pools[index].can_host(arch, instances[name].cell.name)
            if slot is not None:
                displacement = _dist(scaled[name], child.center(tile))
                candidates.append((displacement, index, slot))
        if not candidates:
            # Greedy slot claims can block a feasible distribution (a
            # flexible cell took a scarce slot).  Fall through: keep the
            # cell in its home quadrant; the leaf-level spiral spill will
            # find it a PLB with space.
            kept[source].append(name)
            continue
        _d, index, slot = min(candidates)
        pools[index].take(slot)
        kept[index].append(name)

    for child, cells in zip(children, kept):
        child.cells = cells


def _assign_leaf(
    region: _Region,
    instances: Mapping[str, Instance],
    scaled: Mapping[str, Position],
    arch: PLBArchitecture,
    assignments: Dict[str, SlotAssignment],
    cols: int,
    rows: int,
    tile: float,
    ) -> Tuple[float, int]:
    """Bind a single-PLB region's cells to slots; spill if needed."""
    plb = (region.col0, region.row0)
    pool = SlotPool.for_plbs(arch, 1)
    displacement = 0.0
    spilled = 0
    center = ((plb[0] + 0.5) * tile, (plb[1] + 0.5) * tile)
    ordered = sorted(
        region.cells,
        key=lambda n: len(arch.hosting_slots(instances[n].cell.name)),
    )
    pending: List[str] = []
    for name in ordered:
        slot = pool.can_host(arch, instances[name].cell.name)
        if slot is None:
            pending.append(name)
            continue
        pool.take(slot)
        assignments[name] = SlotAssignment(plb=plb, slot=slot)
        displacement += _dist(scaled[name], center)
    for name in pending:
        # Spiral to the nearest PLB with space (its pool may not exist yet
        # if it is processed later; track shared pools lazily).
        placed = _spill(name, plb, instances, arch, assignments, cols, rows)
        if placed is None:
            raise PackingError(f"no PLB anywhere can host {name}")
        assignments[name] = placed
        target_center = ((placed.plb[0] + 0.5) * tile, (placed.plb[1] + 0.5) * tile)
        displacement += _dist(scaled[name], target_center)
        spilled += 1
    return displacement, spilled


def _spill(
    name: str,
    origin: Tuple[int, int],
    instances: Mapping[str, Instance],
    arch: PLBArchitecture,
    assignments: Mapping[str, SlotAssignment],
    cols: int,
    rows: int,
) -> Optional[SlotAssignment]:
    """Nearest-PLB spiral search accounting for already-made assignments."""
    # Rebuild occupancy lazily (spills are rare).
    occupancy: Dict[Tuple[int, int], SlotPool] = {}
    for assigned in assignments.values():
        pool = occupancy.setdefault(
            assigned.plb, SlotPool.for_plbs(arch, 1)
        )
        pool.used[assigned.slot] = pool.used.get(assigned.slot, 0) + 1
    for radius in range(1, cols + rows):
        ring = _ring(origin, radius, cols, rows)
        for plb in ring:
            pool = occupancy.setdefault(plb, SlotPool.for_plbs(arch, 1))
            slot = pool.can_host(arch, instances[name].cell.name)
            if slot is not None:
                return SlotAssignment(plb=plb, slot=slot)
    return None


def _ring(
    origin: Tuple[int, int], radius: int, cols: int, rows: int
) -> List[Tuple[int, int]]:
    out = []
    c0, r0 = origin
    for dc in range(-radius, radius + 1):
        for dr in (-radius, radius):
            plb = (c0 + dc, r0 + dr)
            if 0 <= plb[0] < cols and 0 <= plb[1] < rows:
                out.append(plb)
    for dr in range(-radius + 1, radius):
        for dc in (-radius, radius):
            plb = (c0 + dc, r0 + dr)
            if 0 <= plb[0] < cols and 0 <= plb[1] < rows:
                out.append(plb)
    return out
