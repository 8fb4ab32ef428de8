"""Reference SA cost engine: per-net bounding boxes with apply/undo moves.

This is the original incremental-HPWL bookkeeping of
:mod:`repro.place.sa`, kept as the oracle the production sorted-list
cost state is asserted against.  Every net carries a cached bounding box
with occupancy counts on each boundary; a move is applied optimistically
(boxes updated in O(1) per net, an exact rebuild when the last point on
a boundary moves off it) and rolled back on rejection.

:class:`OraclePlacer` plugs it into :class:`AnnealingPlacer`'s schedule
through the placer's cost-state hooks (``_start``, ``_total_cost``,
``_sweep``, ``_final_sites``, ``net_costs``), driving it with the legacy
``randrange``/``randint`` move loop.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.place.grid import Site
from repro.place.sa import AnnealingPlacer


class NetBox:
    """Exact bounding box of a net's point multiset with boundary counts.

    ``n_*`` counts how many points sit on each boundary; removing the
    last boundary point invalidates the box (``remove`` returns False)
    and the caller rebuilds it from scratch.  Everywhere else updates
    are O(1).
    """

    __slots__ = ("xmin", "xmax", "ymin", "ymax",
                 "n_xmin", "n_xmax", "n_ymin", "n_ymax")

    def __init__(self, points: List[Tuple[float, float]]):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        self.xmin = min(xs)
        self.xmax = max(xs)
        self.ymin = min(ys)
        self.ymax = max(ys)
        self.n_xmin = xs.count(self.xmin)
        self.n_xmax = xs.count(self.xmax)
        self.n_ymin = ys.count(self.ymin)
        self.n_ymax = ys.count(self.ymax)

    def half_perimeter(self) -> float:
        return (self.xmax - self.xmin) + (self.ymax - self.ymin)

    def add(self, x: float, y: float) -> None:
        if x > self.xmax:
            self.xmax, self.n_xmax = x, 1
        elif x == self.xmax:
            self.n_xmax += 1
        if x < self.xmin:
            self.xmin, self.n_xmin = x, 1
        elif x == self.xmin:
            self.n_xmin += 1
        if y > self.ymax:
            self.ymax, self.n_ymax = y, 1
        elif y == self.ymax:
            self.n_ymax += 1
        if y < self.ymin:
            self.ymin, self.n_ymin = y, 1
        elif y == self.ymin:
            self.n_ymin += 1

    def remove(self, x: float, y: float) -> bool:
        """Remove one point; False when a boundary emptied (rebuild me)."""
        ok = True
        if x == self.xmax:
            self.n_xmax -= 1
            ok = ok and self.n_xmax > 0
        if x == self.xmin:
            self.n_xmin -= 1
            ok = ok and self.n_xmin > 0
        if y == self.ymax:
            self.n_ymax -= 1
            ok = ok and self.n_ymax > 0
        if y == self.ymin:
            self.n_ymin -= 1
            ok = ok and self.n_ymin > 0
        return ok

    def state(self) -> Tuple:
        return (self.xmin, self.xmax, self.ymin, self.ymax,
                self.n_xmin, self.n_xmax, self.n_ymin, self.n_ymax)

    def restore(self, state: Tuple) -> None:
        (self.xmin, self.xmax, self.ymin, self.ymax,
         self.n_xmin, self.n_xmax, self.n_ymin, self.n_ymax) = state


class ObjectCostEngine:
    """One :class:`NetBox` per net, dict-keyed state, apply/undo moves."""

    def __init__(self, placer: AnnealingPlacer, sites: Dict[str, Site]):
        self.placer = placer
        self.sites = sites
        self.pos: Dict[str, Tuple[float, float]] = {
            name: placer.grid.center_of(site) for name, site in sites.items()
        }
        self.boxes: Dict[str, NetBox] = {}
        self.net_cost: Dict[str, float] = {
            name: 0.0 for name in placer.netlist.nets
        }
        self._saved: List[Tuple[str, float, Tuple]] = []
        self._last_pos: Tuple = ()

    # -- exact state -----------------------------------------------------
    def _net_points(self, net_name: str) -> List[Tuple[float, float]]:
        placer = self.placer
        net = placer.netlist.nets[net_name]
        points: List[Tuple[float, float]] = []
        if net.driver is not None:
            points.append(placer.grid.center_of(self.sites[net.driver[0]]))
        if net_name in placer.pads:
            points.append(placer.pads[net_name])
        for sink_name, _pin in net.sinks:
            points.append(placer.grid.center_of(self.sites[sink_name]))
        return points

    def _build_box(self, net_name: str) -> NetBox:
        return NetBox(self._net_points(net_name))

    def rebuild(self) -> float:
        """Full recompute of every active net's box and cost; returns total.

        The total is accumulated left to right, the order the production
        placer sums in (``sum`` of floats is compensated on newer
        Pythons).
        """
        placer = self.placer
        for net_name in placer._active_nets:
            box = self._build_box(net_name)
            self.boxes[net_name] = box
            self.net_cost[net_name] = placer._weight[net_name] * box.half_perimeter()
        total = 0.0
        for cost in self.net_cost.values():
            total += cost
        return total

    def net_costs(self) -> Dict[str, float]:
        """Per-net weighted cost for every active (>= 2 point) net."""
        return {net: self.net_cost[net] for net in self.placer._active_nets}

    # -- move path -------------------------------------------------------
    def apply_move(
        self, mover: str, other: Optional[str], old_site: Site, new_site: Site
    ) -> float:
        """Update positions/boxes for a swap already made in ``sites``.

        Only nets touching the moved instance(s) change, each in O(1) via
        its cached bounding box; call :meth:`undo` to roll back.
        """
        placer = self.placer
        pos = self.pos
        old_pt = pos[mover]
        new_pt = placer.grid.center_of(new_site)
        pos[mover] = new_pt
        if other is not None:
            pos[other] = old_pt
        self._last_pos = (mover, other, old_pt, new_pt)

        # Point relocations per net, in deterministic contribution order.
        changes: Dict[str, List[Tuple[Tuple[float, float], Tuple[float, float], int]]]
        changes = {}
        for net, count in placer._contrib_of[mover]:
            changes.setdefault(net, []).append((old_pt, new_pt, count))
        if other is not None:
            for net, count in placer._contrib_of[other]:
                changes.setdefault(net, []).append((new_pt, old_pt, count))

        boxes = self.boxes
        net_cost = self.net_cost
        delta = 0.0
        saved: List[Tuple[str, float, Tuple]] = []
        for net, moves in changes.items():
            box = boxes[net]
            saved.append((net, net_cost[net], box.state()))
            intact = True
            for from_pt, to_pt, count in moves:
                for _ in range(count):
                    box.add(to_pt[0], to_pt[1])
                    intact = box.remove(from_pt[0], from_pt[1]) and intact
            if not intact:
                box = self._build_box(net)
                boxes[net] = box
            cost = placer._weight[net] * box.half_perimeter()
            delta += cost - net_cost[net]
            net_cost[net] = cost
        self._saved = saved
        return delta

    def undo(self) -> None:
        mover, other, old_pt, new_pt = self._last_pos
        self.pos[mover] = old_pt
        if other is not None:
            self.pos[other] = new_pt
        for net, cost, state in self._saved:
            self.net_cost[net] = cost
            self.boxes[net].restore(state)


class OraclePlacer(AnnealingPlacer):
    """The annealing schedule on the reference engine and move loop."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Name-keyed contributions, constant-cost nets included:
        # instance -> [(net, point multiplicity)] in netlist net order.
        self._weight = dict(zip(self._active_nets, self._net_weight))
        self._contrib_of: Dict[str, List[Tuple[str, int]]] = {
            name: [] for name in self._instances
        }
        for net_name in self._active_nets:
            net = self.netlist.nets[net_name]
            counts: Dict[str, int] = {}
            if net.driver is not None:
                counts[net.driver[0]] = counts.get(net.driver[0], 0) + 1
            for sink_name, _pin in net.sinks:
                counts[sink_name] = counts.get(sink_name, 0) + 1
            for member, count in counts.items():
                self._contrib_of[member].append((net_name, count))

    def _start(self, sites: Dict[str, Site]) -> None:
        self._sites = sites
        self._occupant: Dict[Site, Optional[str]] = {
            s: None for s in self.grid.sites()
        }
        for name, site in sites.items():
            self._occupant[site] = name
        self.engine = ObjectCostEngine(self, sites)

    def _total_cost(self) -> float:
        return self.engine.rebuild()

    def _final_sites(self) -> Dict[str, Site]:
        return self._sites

    def net_costs(self) -> Dict[str, float]:
        return self.engine.net_costs()

    def _try_move(self, range_limit: int) -> Tuple[float, bool]:
        """Propose one move; returns (delta, applied).

        The move is applied optimistically — sites/occupancy here, cost
        state inside the engine; call :meth:`_undo_move` to reject.
        """
        sites, occupant = self._sites, self._occupant
        mover = self._movable[self.rng.randrange(len(self._movable))]
        old_site = sites[mover]
        col = old_site[0] + self.rng.randint(-range_limit, range_limit)
        row = old_site[1] + self.rng.randint(-range_limit, range_limit)
        new_site = self.grid.clamp(col, row)
        if new_site == old_site:
            return 0.0, False
        other = occupant[new_site]
        if other is not None and other in self.locked:
            return 0.0, False

        sites[mover] = new_site
        occupant[new_site] = mover
        occupant[old_site] = other
        if other is not None:
            sites[other] = old_site
        self._last_move = (mover, other, old_site, new_site)
        delta = self.engine.apply_move(mover, other, old_site, new_site)
        return delta, True

    def _undo_move(self) -> None:
        sites, occupant = self._sites, self._occupant
        mover, other, old_site, new_site = self._last_move
        sites[mover] = old_site
        occupant[old_site] = mover
        occupant[new_site] = other
        if other is not None:
            sites[other] = new_site
        self.engine.undo()

    def _sweep(
        self,
        range_limit: int,
        moves: int,
        temperature: float,
        deltas: Optional[List[float]] = None,
    ) -> Tuple[int, int]:
        """One temperature sweep via optimistic apply + undo-on-reject."""
        accepted = 0
        evaluated = 0
        for _ in range(moves):
            delta, applied = self._try_move(range_limit)
            if deltas is not None:
                deltas.append(delta)
            if not applied:
                continue
            evaluated += 1
            if (
                deltas is not None
                or delta <= 0
                or self.rng.random() < math.exp(-delta / temperature)
            ):
                accepted += 1
            else:
                self._undo_move()
        return accepted, evaluated
