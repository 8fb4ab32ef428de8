"""PathFinder negotiated-congestion routing.

Classic iterative rip-up-and-reroute: every net is routed as a Steiner-ish
tree of bin-to-bin segments via A*; edge costs combine base cost, present
congestion, and accumulated history, so fought-over edges become expensive
over iterations until all overuse resolves (or the iteration cap hits,
after which remaining overuse is reported).

Multi-terminal nets are routed incrementally: each sink runs A* from the
entire partially built tree (zero cost to re-use the tree), the standard
multi-terminal extension.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..obs import core as _obs
from .grid import Bin, Edge, RoutingGrid

#: PathFinder cost schedule.
PRESENT_FACTOR_GROWTH = 1.6
HISTORY_INCREMENT = 1.0
MAX_ITERATIONS = 16


@dataclass
class RoutedNet:
    """One net's routed tree."""

    name: str
    bins: Set[Bin] = field(default_factory=set)
    edges: Set[Edge] = field(default_factory=set)

    def wirelength(self, grid: RoutingGrid) -> float:
        return len(self.edges) * grid.bin_pitch

    def via_count(self) -> int:
        """Bend count proxy: vias where the tree changes direction.

        One pass over the edges builds per-bin horizontal/vertical
        incidence, so the count is O(edges + bins) instead of the old
        O(bins x edges) all-pairs scan; a via is any bin touching both
        orientations.
        """
        horizontal: Set[Bin] = set()
        vertical: Set[Bin] = set()
        for edge in self.edges:
            a, b = edge
            if a[0] != b[0]:
                horizontal.add(a)
                horizontal.add(b)
            else:
                vertical.add(a)
                vertical.add(b)
        return len(self.bins & horizontal & vertical)


@dataclass
class RoutingResult:
    """All routed nets plus congestion summary."""

    grid: RoutingGrid
    nets: Dict[str, RoutedNet]
    iterations: int
    overused_edges: int

    @property
    def success(self) -> bool:
        return self.overused_edges == 0

    def total_wirelength(self) -> float:
        return sum(net.wirelength(self.grid) for net in self.nets.values())

    def lengths(self) -> Dict[str, float]:
        return {name: net.wirelength(self.grid) for name, net in self.nets.items()}

    def via_counts(self) -> Dict[str, int]:
        return {name: net.via_count() for name, net in self.nets.items()}


class PathFinderRouter:
    """Negotiated-congestion router over a :class:`RoutingGrid`."""

    def __init__(self, grid: RoutingGrid):
        self.grid = grid
        self.history: Dict[Edge, float] = {}
        self.present: Dict[Edge, int] = {}
        # Edges whose *next* use would overflow (usage >= tracks).  While
        # zero and no history exists, every edge costs exactly 1.0 and
        # A* takes a uniform-cost fast path with no cost lookups at all.
        self._saturated = 0

    # ------------------------------------------------------------------
    def _use(self, edge: Edge) -> None:
        usage = self.present.get(edge, 0) + 1
        self.present[edge] = usage
        if usage == self.grid.tracks:
            self._saturated += 1

    def _release(self, edge: Edge) -> None:
        usage = self.present.get(edge, 0) - 1
        self.present[edge] = usage
        if usage == self.grid.tracks - 1:
            self._saturated -= 1

    def _uncongested(self) -> bool:
        return self._saturated == 0 and not self.history

    def _edge_cost(self, edge: Edge, present_factor: float) -> float:
        usage = self.present.get(edge, 0)
        over = max(0, usage + 1 - self.grid.tracks)
        congestion = 1.0 + present_factor * over
        return (1.0 + self.history.get(edge, 0.0)) * congestion

    def _route_net(
        self, name: str, terminals: Sequence[Bin], present_factor: float
    ) -> RoutedNet:
        net = RoutedNet(name=name)
        remaining = list(dict.fromkeys(terminals))
        if not remaining:
            return net
        net.bins.add(remaining.pop(0))
        while remaining:
            target = remaining.pop(0)
            if target in net.bins:
                continue
            path = self._astar(net.bins, target, present_factor)
            previous: Optional[Bin] = None
            for b in path:
                net.bins.add(b)
                if previous is not None:
                    edge = self.grid.edge(previous, b)
                    if edge not in net.edges:
                        net.edges.add(edge)
                        self._use(edge)
                previous = b
        return net

    def _astar(
        self, sources: Set[Bin], target: Bin, present_factor: float
    ) -> List[Bin]:
        frontier: List[Tuple[float, int, Bin]] = []
        best: Dict[Bin, float] = {}
        parent: Dict[Bin, Optional[Bin]] = {}
        counter = 0
        # Fast path: with no history and no saturated edge, every edge
        # costs exactly (1 + 0) * (1 + pf * 0) = 1.0, so the per-edge
        # cost lookups can be skipped outright.  The Manhattan heuristic
        # stays admissible (it equals the true remaining cost), and the
        # numbers are bit-identical to the general path.
        uniform = self._uncongested()
        neighbors = self.grid.neighbors
        for s in sources:
            h = abs(s[0] - target[0]) + abs(s[1] - target[1])
            heapq.heappush(frontier, (h * 1.0, counter, s))
            counter += 1
            best[s] = 0.0
            parent[s] = None
        while frontier:
            _f, _c, current = heapq.heappop(frontier)
            if current == target:
                path = [current]
                while parent[current] is not None:
                    current = parent[current]  # type: ignore[assignment]
                    path.append(current)
                path.reverse()
                _obs.counter("route.heap_pushes", counter)
                return path
            g = best[current]
            for neighbor in neighbors(current):
                if uniform:
                    ng = g + 1.0
                else:
                    edge = self.grid.edge(current, neighbor)
                    ng = g + self._edge_cost(edge, present_factor)
                if neighbor not in best or ng < best[neighbor] - 1e-12:
                    best[neighbor] = ng
                    parent[neighbor] = current
                    h = abs(neighbor[0] - target[0]) + abs(neighbor[1] - target[1])
                    heapq.heappush(frontier, (ng + h, counter, neighbor))
                    counter += 1
        raise RuntimeError(f"routing target {target} unreachable")

    def _rip_up(self, net: RoutedNet) -> None:
        for edge in net.edges:
            self._release(edge)

    def _overused(self) -> List[Edge]:
        return [e for e, u in self.present.items() if u > self.grid.tracks]

    # ------------------------------------------------------------------
    def route(
        self,
        net_terminals: Dict[str, Sequence[Bin]],
        max_iterations: int = MAX_ITERATIONS,
    ) -> RoutingResult:
        """Route all nets to convergence or the iteration cap."""
        with _obs.span(
            "pathfinder.route",
            nets=len(net_terminals),
            tracks=self.grid.tracks,
            cols=self.grid.cols,
            rows=self.grid.rows,
        ) as _span:
            result = self._route(net_terminals, max_iterations, _span)
        return result

    def _route(
        self,
        net_terminals: Dict[str, Sequence[Bin]],
        max_iterations: int,
        _span,
    ) -> RoutingResult:
        order = sorted(
            net_terminals,
            key=lambda n: -len(set(net_terminals[n])),
        )
        routed: Dict[str, RoutedNet] = {}
        present_factor = 0.6
        iterations = 0
        # One `_overused()` scan per iteration: computed after rerouting
        # and reused for telemetry, the convergence break, the next
        # iteration's rip-up set, and the final summary (the old code
        # scanned `present` up to three times per iteration).
        overused: List[Edge] = []
        for iteration in range(max_iterations):
            iterations = iteration + 1
            if iteration == 0:
                reroute = order
            else:
                over = set(overused)
                if not over:
                    break
                reroute = [
                    name
                    for name in order
                    if routed[name].edges & over
                ]
                for edge in over:
                    self.history[edge] = self.history.get(edge, 0.0) + HISTORY_INCREMENT
            for name in reroute:
                if name in routed:
                    self._rip_up(routed[name])
                routed[name] = self._route_net(
                    name, net_terminals[name], present_factor
                )
            overused = self._overused()
            # Per-iteration negotiation telemetry: rip-up and overuse
            # counts at iteration granularity; instrumentation only reads
            # router state, so traced and untraced routes are identical.
            if _obs.active():
                _obs.point(
                    "pathfinder.iteration",
                    iteration=iterations,
                    rerouted=len(reroute),
                    overused=len(overused),
                    present_factor=present_factor,
                )
                _obs.observe("pathfinder.overused_edges", float(len(overused)))
                if iteration > 0:
                    _obs.counter("pathfinder.rip_ups", len(reroute))
            present_factor *= PRESENT_FACTOR_GROWTH
            if not overused:
                break
        overused_edges = len(overused)
        _span.set(iterations=iterations, overused=overused_edges)
        _obs.counter("pathfinder.routes")
        _obs.counter("pathfinder.iterations", iterations)
        return RoutingResult(
            grid=self.grid,
            nets=routed,
            iterations=iterations,
            overused_edges=overused_edges,
        )
