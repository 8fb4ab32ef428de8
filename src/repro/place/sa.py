"""Simulated-annealing placement (VPR-style adaptive schedule).

Cost is criticality-weighted half-perimeter wirelength.  Moves swap a
random instance with another instance or an empty site within an adaptive
range window; the schedule follows the classic VPR recipe (temperature
from initial cost spread, cooling rate adapted to the acceptance ratio,
exit when temperature is a tiny fraction of cost-per-net).

Net cost is maintained *incrementally* and *exactly*.  Every net keeps
its pin x coordinates in one sorted list and its y coordinates in
another, with multiplicity and with the net's pad as a fixed point.
Relocating ``count`` copies of one point from ``old`` to ``new`` gives
the exact new extent of an axis from the two end entries of its list::

    lo = X[count] if X[0] == old else X[0];   lo = min(lo, new)
    hi = X[-1 - count] if X[-1] == old else X[-1];   hi = max(hi, new)

(when the moved copies sit on a boundary they are its first ``count``
entries).  A proposal is therefore evaluated in O(1) per touched net
without mutating anything: the candidate per-net costs go to a scratch
list, and only an accepted move installs them and updates the lists
with ``list.remove`` plus ``bisect.insort`` (C-level, O(pins)), skipping
an axis whose coordinate did not change.  Evaluation is fused into the
sweep loop over integer-indexed state — site column/row lists per
instance, a flat occupant list, a locked mask — so a move costs no
method call and no dict lookup.  The total is re-summed left to right
from the stored costs after every temperature, bounding drift in the
running total.

The placements are bit-identical to the reference apply/undo
bounding-box implementation (kept in the test suite as the oracle)
because five things are the same:

1. Every stored cost is ``w * ((xmax - xmin) + (ymax - ymin))`` over the
   *exact* box; any method that finds the exact extremes gives the same
   double.
2. A move's delta sums ``new - old`` per net in first-touch order: the
   mover's nets in contribution order, then the partner's nets the mover
   did not touch.
3. The RNG draws are unchanged: ``randrange``/``randint`` reduce to
   ``getrandbits`` rejection sampling, which the loop inlines (same bit
   stream, no per-call argument checks), and ``random()`` is drawn only
   when ``delta > 0``.
4. A swap whose two cells share a net takes an exact scan of that net
   with both candidate coordinates.
5. A net whose points all belong to one instance has constant (zero)
   cost, so it is left out of the contribution lists: adding ``+0.0``
   never changes a delta, and a delta is never ``-0.0``.

The placer is deterministic for a given seed — including across
processes: per-move cost deltas are summed in a fixed net order derived
from netlist insertion order, never from (hash-randomized) set order —
and supports *locked* instances (used by the packing <->
physical-synthesis iteration of paper Section 3.1, where legalized cells
keep their PLB positions).
"""

from __future__ import annotations

import bisect
import math
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..netlist.core import Netlist
from ..obs import core as _obs
from ..obs.metrics import RATIO_BUCKETS
from .grid import PlacementGrid, Site

#: Moves per temperature = MOVES_PER_CELL * n_cells ** 1.33, capped.
MOVES_PER_CELL = 1.0
MOVE_CAP_PER_TEMPERATURE = 40_000


@dataclass
class Placement:
    """Instance -> site assignment plus pad positions."""

    grid: PlacementGrid
    sites: Dict[str, Site]
    pads: Dict[str, Tuple[float, float]]

    def position_of(self, inst_name: str) -> Tuple[float, float]:
        return self.grid.center_of(self.sites[inst_name])

    def net_pin_points(self, netlist: Netlist) -> Dict[str, List[Tuple[float, float]]]:
        """Pin coordinates per net (driver, sinks, and pads)."""
        points: Dict[str, List[Tuple[float, float]]] = {
            name: [] for name in netlist.nets
        }
        for name, net in netlist.nets.items():
            if net.driver is not None:
                points[name].append(self.position_of(net.driver[0]))
            elif name in self.pads:
                points[name].append(self.pads[name])
            for sink_name, _pin in net.sinks:
                points[name].append(self.position_of(sink_name))
            if name in self.pads and net.driver is not None:
                points[name].append(self.pads[name])
        return points


class AnnealingPlacer:
    """Criticality-weighted HPWL simulated annealing."""

    def __init__(
        self,
        netlist: Netlist,
        grid: PlacementGrid,
        net_weights: Optional[Mapping[str, float]] = None,
        seed: int = 0,
        locked: Optional[Mapping[str, Site]] = None,
        effort: float = 1.0,
    ):
        self.netlist = netlist
        self.grid = grid
        self.rng = random.Random(seed)
        self.net_weights = dict(net_weights or {})
        self.locked = dict(locked or {})
        self.effort = effort

        self._instances = list(netlist.instances)
        self._movable = [n for n in self._instances if n not in self.locked]
        if grid.n_sites < len(self._instances):
            raise ValueError(
                f"grid has {grid.n_sites} sites for {len(self._instances)} instances"
            )

        # Only nets with >= 2 points can ever have nonzero cost
        # ("active"); they are numbered in netlist net order
        # (deterministic — never hash-randomized set order).  Per instance
        # index, ``_contrib`` lists [(net index, point multiplicity,
        # -1 - multiplicity)] in that order, leaving out nets whose points
        # all sit on that one instance (constant cost); ``_points`` holds
        # the same nets once per point.
        self.pads = grid.pad_positions(list(netlist.inputs) + list(netlist.outputs))
        self._index = {name: i for i, name in enumerate(self._instances)}
        self._active_nets: List[str] = []
        self._net_weight: List[float] = []
        self._contrib: List[List[Tuple[int, int, int]]] = [
            [] for _ in self._instances
        ]
        for net_name, net in netlist.nets.items():
            counts: Dict[str, int] = {}
            if net.driver is not None:
                counts[net.driver[0]] = counts.get(net.driver[0], 0) + 1
            for sink_name, _pin in net.sinks:
                counts[sink_name] = counts.get(sink_name, 0) + 1
            has_pad = net_name in self.pads
            if sum(counts.values()) + has_pad < 2:
                continue
            k = len(self._active_nets)
            self._active_nets.append(net_name)
            self._net_weight.append(1.0 + self.net_weights.get(net_name, 0.0))
            if len(counts) == 1 and not has_pad:
                continue
            for member, count in counts.items():
                self._contrib[self._index[member]].append(
                    (k, count, -1 - count)
                )
        self._points = [
            [k for k, n, _nn in entries for _ in range(n)]
            for entries in self._contrib
        ]
        self._movable_idx = [self._index[name] for name in self._movable]

        # Populated by place(): the final exact cost and aggregate
        # move-kernel counters (proposed = drawn proposals, evaluated =
        # proposals whose cost delta was computed, accepted = committed
        # moves) for observability and benchmarks.
        self.final_cost: Optional[float] = None
        self.stats: Dict[str, float] = {}
        # Full pin rescans of a net (shared-net swaps), for sa.net_scans.
        self._net_scans = 0

    # ------------------------------------------------------------------
    def _initial_sites(self) -> Dict[str, Site]:
        sites: Dict[str, Site] = dict(self.locked)
        taken = set(self.locked.values())
        free = [site for site in self.grid.sites() if site not in taken]
        self.rng.shuffle(free)
        for name in self._movable:
            sites[name] = free.pop()
        return sites

    # ------------------------------------------------------------------
    # Cost state.  Sites are (col, row) per instance index; site (c, r)
    # is slot ``r * cols + c`` of the flat occupant list (-1 = empty).
    def _start(self, sites: Dict[str, Site]) -> None:
        """Build the exact cost state for the assignment ``sites``."""
        grid = self.grid
        pitch = grid.pitch
        cols = grid.cols
        # Site-center tables: center_of((c, r)) without the method call
        # (identical expression, identical bits).
        self._col_x = [(c + 0.5) * pitch for c in range(cols)]
        self._row_y = [(r + 0.5) * pitch for r in range(grid.rows)]
        n = len(self._instances)
        self._col = col = [0] * n
        self._row = row = [0] * n
        self._occ = occ = [-1] * grid.n_sites
        for name, (c, r) in sites.items():
            i = self._index[name]
            col[i] = c
            row[i] = r
            occ[r * cols + c] = i
        self._locked_mask = [name in self.locked for name in self._instances]
        self._sites = sites

        xs: List[List[float]] = []
        ys: List[List[float]] = []
        nets = self.netlist.nets
        for net_name in self._active_nets:
            net = nets[net_name]
            members = [net.driver[0]] if net.driver is not None else []
            members += [sink for sink, _pin in net.sinks]
            X = [self._col_x[col[self._index[m]]] for m in members]
            Y = [self._row_y[row[self._index[m]]] for m in members]
            pad = self.pads.get(net_name)
            if pad is not None:
                X.append(pad[0])
                Y.append(pad[1])
            X.sort()
            Y.sort()
            xs.append(X)
            ys.append(Y)
        self._xs = xs
        self._ys = ys
        self._cost = [
            w * ((X[-1] - X[0]) + (Y[-1] - Y[0]))
            for w, X, Y in zip(self._net_weight, xs, ys)
        ]
        # Candidate per-net costs of the move being evaluated, and the
        # move stamp marking the mover's nets (shared-net detection).
        self._pend = [0.0] * len(xs)
        self._stamp = [0] * len(xs)
        self._epoch = 0

    def _total_cost(self) -> float:
        """Total cost: the stored exact costs summed left to right.

        A plain loop, not ``sum``: Python 3.12+ compensates float sums,
        which would change the total's last bits between versions.
        """
        total = 0.0
        for c in self._cost:
            total += c
        return total

    def _final_sites(self) -> Dict[str, Site]:
        """The assignment, in the key order of the initial ``sites``."""
        sites = self._sites
        index, col, row = self._index, self._col, self._row
        for name in sites:
            i = index[name]
            sites[name] = (col[i], row[i])
        return sites

    def net_costs(self) -> Dict[str, float]:
        """Per-net weighted cost for every active (>= 2 point) net."""
        return dict(zip(self._active_nets, self._cost))

    # ------------------------------------------------------------------
    def place(self) -> Placement:
        with _obs.span(
            "sa.place",
            cells=len(self._instances),
            movable=len(self._movable),
            nets=len(self._active_nets),
        ) as _span:
            placement = self._place(_span)
        return placement

    def _place(self, _span) -> Placement:
        self._start(self._initial_sites())
        total = self._total_cost()

        if not self._movable:
            self.final_cost = total
            self.stats = {
                "temperatures": 0, "proposed": 0, "evaluated": 0, "accepted": 0,
            }
            _span.set(final_cost=total, temperatures=0)
            return Placement(
                grid=self.grid, sites=self._final_sites(), pads=self.pads
            )

        n = len(self._movable)
        moves_per_t = min(
            MOVE_CAP_PER_TEMPERATURE,
            max(200, int(self.effort * MOVES_PER_CELL * n ** 1.33)),
        )

        # Initial temperature: std-dev of cost over random perturbations
        # (every proposal applied; the running total follows them).
        n_samples = min(100, moves_per_t)
        deltas: List[float] = []
        self._sweep(self.grid.cols, n_samples, 0.0, deltas)
        samples = [abs(d) for d in deltas]
        for d in deltas:
            total += d
        temperature = 20.0 * (sum(samples) / max(1, len(samples)) or 1.0)

        range_limit = float(max(self.grid.cols, self.grid.rows))
        min_temperature = 0.005 * total / max(1, len(self.netlist.nets))
        n_temperatures = 0
        proposed = n_samples
        evaluated_total = 0
        accepted_total = 0
        while temperature > max(min_temperature, 1e-9):
            # Per-temperature telemetry (accept rate, cost, moves/s) is
            # recorded at sweep granularity: one guarded check per sweep,
            # nothing in the per-move hot loop, and nothing that reads or
            # advances the RNG — traced and untraced anneals are
            # bit-identical.
            observing = _obs.active()
            sweep_temperature = temperature
            sweep_start = time.perf_counter() if observing else 0.0  # check: allow(DT002, CK003) trace timing
            accepted, evaluated = self._sweep(
                int(max(1, range_limit)), moves_per_t, temperature
            )
            ratio = accepted / max(1, moves_per_t)
            # VPR schedule.
            if ratio > 0.96:
                temperature *= 0.5
            elif ratio > 0.8:
                temperature *= 0.9
            elif ratio > 0.15:
                temperature *= 0.95
            else:
                temperature *= 0.8
            range_limit = max(1.0, range_limit * (1.0 - 0.44 + ratio))
            # Periodic re-sum bounds float drift in the running total.
            total = self._total_cost()
            n_temperatures += 1
            proposed += moves_per_t
            evaluated_total += evaluated
            accepted_total += accepted
            if observing:
                sweep_seconds = time.perf_counter() - sweep_start  # check: allow(DT002, CK003) trace timing
                _obs.point(
                    "sa.temperature",
                    temperature=sweep_temperature,
                    moves=moves_per_t,
                    evaluated=evaluated,
                    accepted=accepted,
                    accept_rate=ratio,
                    cost=total,
                    range_limit=range_limit,
                    moves_per_s=(
                        moves_per_t / sweep_seconds if sweep_seconds > 0 else 0.0
                    ),
                )
                _obs.observe("sa.accept_rate", ratio, RATIO_BUCKETS)
                _obs.observe("sa.temperature.seconds", sweep_seconds)
                _obs.counter("sa.moves", moves_per_t)
                _obs.counter("sa.evaluated", evaluated)
                _obs.counter("sa.accepted", accepted)
            if ratio < 0.01 and temperature < min_temperature * 10:
                break

        self.final_cost = total
        self.stats = {
            "temperatures": n_temperatures,
            "proposed": proposed,
            "evaluated": evaluated_total,
            "accepted": accepted_total,
        }
        _span.set(final_cost=total, temperatures=n_temperatures)
        _obs.counter("sa.placements")
        _obs.counter("sa.net_scans", self._net_scans)
        return Placement(grid=self.grid, sites=self._final_sites(), pads=self.pads)

    # ------------------------------------------------------------------
    def _sweep(
        self,
        range_limit: int,
        moves: int,
        temperature: float,
        deltas: Optional[List[float]] = None,
    ) -> Tuple[int, int]:
        """Propose ``moves`` moves at ``temperature``; (accepted, evaluated).

        With a ``deltas`` list, every proposal is applied instead and its
        signed cost delta recorded (``0.0`` for a null proposal): the
        initial-temperature sampling, which draws no ``random()``.
        """
        record = deltas is not None
        rng = self.rng
        getrandbits = rng.getrandbits
        rng_random = rng.random
        exp = math.exp
        insort = bisect.insort
        movable = self._movable_idx
        n_mov = len(movable)
        k_mov = n_mov.bit_length()
        span = 2 * range_limit + 1
        k_span = span.bit_length()
        cols = self.grid.cols
        col_hi = cols - 1
        row_hi = self.grid.rows - 1
        col_of, row_of, occ = self._col, self._row, self._occ
        locked = self._locked_mask
        col_x, row_y = self._col_x, self._row_y
        contrib, points = self._contrib, self._points
        xs, ys = self._xs, self._ys
        weight, cost, pend = self._net_weight, self._cost, self._pend
        stamp = self._stamp
        epoch = self._epoch
        accepted = 0
        evaluated = 0
        for _ in range(moves):
            r = getrandbits(k_mov)
            while r >= n_mov:
                r = getrandbits(k_mov)
            i = movable[r]
            c0 = col_of[i]
            r0 = row_of[i]
            r = getrandbits(k_span)
            while r >= span:
                r = getrandbits(k_span)
            c1 = c0 - range_limit + r
            if c1 < 0:
                c1 = 0
            elif c1 > col_hi:
                c1 = col_hi
            r = getrandbits(k_span)
            while r >= span:
                r = getrandbits(k_span)
            r1 = r0 - range_limit + r
            if r1 < 0:
                r1 = 0
            elif r1 > row_hi:
                r1 = row_hi
            mx = c1 != c0
            my = r1 != r0
            if not (mx or my):
                if record:
                    deltas.append(0.0)
                continue
            s1 = r1 * cols + c1
            o = occ[s1]
            if o >= 0 and locked[o]:
                if record:
                    deltas.append(0.0)
                continue
            evaluated += 1
            old_x = col_x[c0]
            new_x = col_x[c1]
            old_y = row_y[r0]
            new_y = row_y[r1]
            epoch += 1

            # Mover's nets: ``n`` points relocate old -> new.
            delta = 0.0
            for k, n, nn in contrib[i]:
                stamp[k] = epoch
                X = xs[k]
                if mx:
                    lo = X[0]
                    if lo == old_x:
                        lo = X[n]
                    if new_x < lo:
                        lo = new_x
                    hi = X[-1]
                    if hi == old_x:
                        hi = X[nn]
                    if new_x > hi:
                        hi = new_x
                    dx = hi - lo
                else:
                    dx = X[-1] - X[0]
                Y = ys[k]
                if my:
                    lo = Y[0]
                    if lo == old_y:
                        lo = Y[n]
                    if new_y < lo:
                        lo = new_y
                    hi = Y[-1]
                    if hi == old_y:
                        hi = Y[nn]
                    if new_y > hi:
                        hi = new_y
                    dy = hi - lo
                else:
                    dy = Y[-1] - Y[0]
                c = weight[k] * (dx + dy)
                pend[k] = c
                delta += c - cost[k]

            # Partner's nets: ``n`` points relocate new -> old.  A net the
            # mover also sits on needs both relocations at once.
            if o >= 0:
                shared = False
                for k, n, nn in contrib[o]:
                    if stamp[k] == epoch:
                        shared = True
                        continue
                    X = xs[k]
                    if mx:
                        lo = X[0]
                        if lo == new_x:
                            lo = X[n]
                        if old_x < lo:
                            lo = old_x
                        hi = X[-1]
                        if hi == new_x:
                            hi = X[nn]
                        if old_x > hi:
                            hi = old_x
                        dx = hi - lo
                    else:
                        dx = X[-1] - X[0]
                    Y = ys[k]
                    if my:
                        lo = Y[0]
                        if lo == new_y:
                            lo = Y[n]
                        if old_y < lo:
                            lo = old_y
                        hi = Y[-1]
                        if hi == new_y:
                            hi = Y[nn]
                        if old_y > hi:
                            hi = old_y
                        dy = hi - lo
                    else:
                        dy = Y[-1] - Y[0]
                    c = weight[k] * (dx + dy)
                    pend[k] = c
                    delta += c - cost[k]
                if shared:
                    delta = self._shared_swap_delta(
                        i, o, old_x, old_y, new_x, new_y
                    )

            if record:
                deltas.append(delta)
            elif delta > 0 and not rng_random() < exp(-delta / temperature):
                continue

            # Accept: install the candidate costs and move the points.
            accepted += 1
            col_of[i] = c1
            row_of[i] = r1
            occ[s1] = i
            occ[r0 * cols + c0] = o
            for k in points[i]:
                cost[k] = pend[k]
                if mx:
                    X = xs[k]
                    X.remove(old_x)
                    insort(X, new_x)
                if my:
                    Y = ys[k]
                    Y.remove(old_y)
                    insort(Y, new_y)
            if o >= 0:
                col_of[o] = c0
                row_of[o] = r0
                for k in points[o]:
                    cost[k] = pend[k]
                    if mx:
                        X = xs[k]
                        X.remove(new_x)
                        insort(X, old_x)
                    if my:
                        Y = ys[k]
                        Y.remove(new_y)
                        insort(Y, old_y)
        self._epoch = epoch
        return accepted, evaluated

    def _shared_swap_delta(
        self, i: int, o: int,
        old_x: float, old_y: float, new_x: float, new_y: float,
    ) -> float:
        """Exact delta of swapping ``i`` (at old) with ``o`` (at new) when
        the two share a net.

        Each shared net's candidate cost is rescanned from its points with
        both instances relocated (counted in ``_net_scans``); the delta is
        then re-summed in first-touch order over the candidate costs the
        sweep staged.
        """
        xs, ys, cost, pend = self._xs, self._ys, self._cost, self._pend
        partner = {k: n for k, n, _nn in self._contrib[o]}
        delta = 0.0
        for k, n, _nn in self._contrib[i]:
            m = partner.pop(k, 0)
            if m:
                self._net_scans += 1
                X = list(xs[k])
                Y = list(ys[k])
                for _ in range(n):
                    X.remove(old_x)
                    X.append(new_x)
                    Y.remove(old_y)
                    Y.append(new_y)
                for _ in range(m):
                    X.remove(new_x)
                    X.append(old_x)
                    Y.remove(new_y)
                    Y.append(old_y)
                pend[k] = self._net_weight[k] * (
                    (max(X) - min(X)) + (max(Y) - min(Y))
                )
            delta += pend[k] - cost[k]
        for k in partner:
            delta += pend[k] - cost[k]
        return delta
