"""Simulated-annealing placement (VPR-style adaptive schedule).

Cost is criticality-weighted half-perimeter wirelength.  Moves swap a
random instance with another instance or an empty site within an adaptive
range window; the schedule follows the classic VPR recipe (temperature
from initial cost spread, cooling rate adapted to the acceptance ratio,
exit when temperature is a tiny fraction of cost-per-net).

Net cost is maintained *incrementally* and *exactly*.  Every net keeps
its pin x coordinates in one sorted segment and its y coordinates in
another, with multiplicity and with the net's pad as a fixed point.
Relocating ``count`` copies of one point from ``old`` to ``new`` gives
the exact new extent of an axis from the two end entries of its segment::

    lo = X[count] if X[0] == old else X[0];   lo = min(lo, new)
    hi = X[-1 - count] if X[-1] == old else X[-1];   hi = max(hi, new)

(when the moved copies sit on a boundary they are its first ``count``
entries).  A proposal is therefore evaluated in O(1) per touched net
without mutating anything: the candidate per-net costs are staged, and
only an accepted move installs them and shifts the moved points within
their sorted segments, skipping an axis whose coordinate did not change.

The move loop is one C function, ``sa_sweep`` in ``_sweep.c`` (built
and loaded by :mod:`._kernel`), called once per temperature on the
flat arrays :meth:`AnnealingPlacer._start` builds: int32 site, occupant
and CSR contribution arrays, and float64 sorted segments, costs and
staged costs.  Python keeps the schedule and the per-temperature
telemetry, and re-sums the total left to right from the stored costs
after every temperature, bounding drift in the running total.

The placements are bit-identical to the reference apply/undo
bounding-box implementation (kept in the test suite as the oracle)
because five things are the same:

1. Every stored cost is ``w * ((xmax - xmin) + (ymax - ymin))`` over the
   *exact* box, each operation rounded on its own: the kernel is built
   with ``-ffp-contract=off``, so no compiler fuses ``w * (dx + dy) -
   cost`` into a multiply-add (GCC does by default on aarch64).
2. A move's delta sums ``new - old`` per net in first-touch order: the
   mover's nets in contribution order, then the partner's nets the mover
   did not touch.
3. The RNG draws are the same.  Each sweep takes ``self.rng``'s
   MT19937 state (``getstate``) and sets the advanced state back,
   ``gauss_next`` untouched; the kernel steps it as CPython's
   ``_randommodule.c`` does.  ``getrandbits(k <= 32)`` is the top ``k``
   bits of one word, rejection-sampled as ``randrange``/``randint``
   do; ``random()`` is ``(a >> 5, b >> 6)`` of two words, drawn only
   when ``delta > 0`` and compared with libm's ``exp``, the function
   ``math.exp`` calls.
4. A swap whose two cells share a net leaves a cell on both sites of
   that net, so its set of coordinates does not change: its staged
   cost is its exact current extent.
5. A net whose points all belong to one instance has constant (zero)
   cost, so it is left out of the contribution lists: adding ``+0.0``
   never changes a delta, and a delta is never ``-0.0``.

Final sites are Python ints and ``final_cost`` a Python float, so no
ctypes value reaches a pickled artifact or a cache entry.

The placer is deterministic for a given seed — including across
processes: per-move cost deltas are summed in a fixed net order derived
from netlist insertion order, never from (hash-randomized) set order —
and supports *locked* instances (used by the packing <->
physical-synthesis iteration of paper Section 3.1, where legalized cells
keep their PLB positions).
"""

from __future__ import annotations

import ctypes
import itertools
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..netlist.core import Netlist
from ..obs import core as _obs
from ..obs.metrics import RATIO_BUCKETS
from ._kernel import load as _load_kernel
from .grid import PlacementGrid, Site

#: Moves per temperature = MOVES_PER_CELL * n_cells ** 1.33, capped.
MOVES_PER_CELL = 1.0
MOVE_CAP_PER_TEMPERATURE = 40_000


def _array(ctype, values):
    """A ctypes array of ``ctype`` holding ``values``."""
    values = list(values)
    return (ctype * len(values))(*values)


_I32 = ctypes.POINTER(ctypes.c_int32)
_F64 = ctypes.POINTER(ctypes.c_double)


class SweepState(ctypes.Structure):
    """The flat cost state the kernel works on (``sweep_state`` in C)."""

    _fields_ = [
        ("n_movable", ctypes.c_int32),
        ("cols", ctypes.c_int32),
        ("rows", ctypes.c_int32),
        ("movable", _I32),
        ("col", _I32),
        ("row", _I32),
        ("occ", _I32),
        ("locked", ctypes.POINTER(ctypes.c_uint8)),
        ("col_x", _F64),
        ("row_y", _F64),
        ("contrib_off", _I32),
        ("contrib_net", _I32),
        ("contrib_cnt", _I32),
        ("net_off", _I32),
        ("xs", _F64),
        ("ys", _F64),
        ("weight", _F64),
        ("cost", _F64),
        ("pend", _F64),
        ("stamp", ctypes.POINTER(ctypes.c_int64)),
        ("epoch", ctypes.c_int64),
        ("net_scans", ctypes.c_int64),
    ]


_sa_sweep = _load_kernel().sa_sweep
_sa_sweep.argtypes = [
    ctypes.POINTER(SweepState), ctypes.POINTER(ctypes.c_uint32),
    ctypes.c_int32, ctypes.c_int64, ctypes.c_double, _F64,
    ctypes.POINTER(ctypes.c_int64),
]
_sa_sweep.restype = None


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
        # index, the ``_contrib_*`` CSR arrays list (net index, point
        # multiplicity) in that order, leaving out nets whose points all
        # sit on that one instance (constant cost).
        self.pads = grid.pad_positions(list(netlist.inputs) + list(netlist.outputs))
        self._index = {name: i for i, name in enumerate(self._instances)}
        self._active_nets: List[str] = []
        weights: List[float] = []
        contrib: List[List[Tuple[int, int]]] = [[] for _ in self._instances]
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
            weights.append(1.0 + self.net_weights.get(net_name, 0.0))
            if len(counts) == 1 and not has_pad:
                continue
            for member, count in counts.items():
                contrib[self._index[member]].append((k, count))
        self._net_weight = _array(ctypes.c_double, weights)
        self._contrib_off = _array(
            ctypes.c_int32, itertools.accumulate(
                (len(entries) for entries in contrib), initial=0
            ),
        )
        self._contrib_net = _array(
            ctypes.c_int32, [k for entries in contrib for k, _n in entries]
        )
        self._contrib_cnt = _array(
            ctypes.c_int32, [n for entries in contrib for _k, n in entries]
        )
        self._movable_idx = _array(
            ctypes.c_int32, [self._index[name] for name in self._movable]
        )
        self._locked_mask = _array(
            ctypes.c_uint8, [name in self.locked for name in self._instances]
        )

        # Populated by place(): the final exact cost and aggregate
        # move-kernel counters (proposed = drawn proposals, evaluated =
        # proposals whose cost delta was computed, accepted = committed
        # moves) for observability and benchmarks.
        self.final_cost: Optional[float] = None
        self.stats: Dict[str, float] = {}
        # Nets shared by the two cells of an evaluated swap, for
        # sa.net_scans.
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
    # is slot ``r * cols + c`` of the flat occupant array (-1 = empty).
    # Net ``k``'s sorted pin coordinates are ``_xs``/``_ys`` slots
    # ``_net_off[k]`` up to ``_net_off[k + 1]``.
    def _start(self, sites: Dict[str, Site]) -> None:
        """Build the exact cost state for the assignment ``sites``."""
        grid = self.grid
        pitch = grid.pitch
        cols = grid.cols
        # Site-center tables: center_of((c, r)) without the method call
        # (identical expression, identical bits).
        col_x = [(c + 0.5) * pitch for c in range(cols)]
        row_y = [(r + 0.5) * pitch for r in range(grid.rows)]
        n = len(self._instances)
        col = [0] * n
        row = [0] * n
        occ = [-1] * grid.n_sites
        for name, (c, r) in sites.items():
            i = self._index[name]
            col[i] = c
            row[i] = r
            occ[r * cols + c] = i
        self._sites = sites

        net_off = [0]
        xs: List[float] = []
        ys: List[float] = []
        costs: List[float] = []
        nets = self.netlist.nets
        for net_name, w in zip(self._active_nets, self._net_weight):
            net = nets[net_name]
            members = [net.driver[0]] if net.driver is not None else []
            members += [sink for sink, _pin in net.sinks]
            X = [col_x[col[self._index[m]]] for m in members]
            Y = [row_y[row[self._index[m]]] for m in members]
            pad = self.pads.get(net_name)
            if pad is not None:
                X.append(pad[0])
                Y.append(pad[1])
            X.sort()
            Y.sort()
            costs.append(w * ((X[-1] - X[0]) + (Y[-1] - Y[0])))
            xs += X
            ys += Y
            net_off.append(len(xs))
        n_nets = len(costs)
        self._col = _array(ctypes.c_int32, col)
        self._row = _array(ctypes.c_int32, row)
        self._occ = _array(ctypes.c_int32, occ)
        self._net_off = _array(ctypes.c_int32, net_off)
        self._xs = _array(ctypes.c_double, xs)
        self._ys = _array(ctypes.c_double, ys)
        self._cost = _array(ctypes.c_double, costs)
        self._state = SweepState(
            n_movable=len(self._movable_idx), cols=cols, rows=grid.rows,
            movable=self._movable_idx, col=self._col, row=self._row,
            occ=self._occ, locked=self._locked_mask,
            col_x=_array(ctypes.c_double, col_x),
            row_y=_array(ctypes.c_double, row_y),
            contrib_off=self._contrib_off, contrib_net=self._contrib_net,
            contrib_cnt=self._contrib_cnt, net_off=self._net_off,
            xs=self._xs, ys=self._ys, weight=self._net_weight,
            cost=self._cost,
            # Kernel scratch: the candidate cost of each net the move
            # being evaluated touches, and the move stamp marking the
            # mover's nets (shared-net detection).
            pend=(ctypes.c_double * n_nets)(),
            stamp=(ctypes.c_int64 * n_nets)(),
        )

    def _total_cost(self) -> float:
        """Total cost: the stored exact costs summed left to right.

        A plain loop, not ``sum``: Python 3.12+ compensates float sums,
        which would change the total's last bits between versions.
        """
        total = 0.0
        for c in self._cost[:]:
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
        return dict(zip(self._active_nets, self._cost[:]))

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
        initial-temperature sampling, which draws no ``random()``.  The
        kernel draws from the generator state of ``self.rng``, which is
        handed over and taken back whole (``gauss_next`` included).
        """
        version, words, gauss_next = self.rng.getstate()
        mt = (ctypes.c_uint32 * len(words))(*words)
        out = (ctypes.c_int64 * 3)()
        buf = None if deltas is None else (ctypes.c_double * moves)()
        _sa_sweep(self._state, mt, range_limit, moves, temperature, buf, out)
        self.rng.setstate((version, tuple(mt), gauss_next))
        if deltas is not None:
            deltas.extend(buf)
        self._net_scans += out[2]
        return out[0], out[1]
