"""Component-cell definitions for the VPGA restricted libraries.

The paper's flow (Section 3.1) synthesizes onto a *restricted library of
standard cells* consisting of the component cells of the target PLB —
"for example MUX, XOA, ND3WI, 3-LUT, buffers and inverters", each with a
fixed size chosen for a good power-delay trade-off.  This module defines
those component cells.

Functional model
----------------
Combinational cells carry a set of *feasible functions*: the truth tables
the physical cell can realize by via configuration.  For the "with
programmable inversion" gates (ND2WI/ND3WI) that set is every
input/output-polarity variant of NAND; for a LUT3 it is all 256 3-input
functions; for a MUX it is the single mux function.  A netlist instance
picks one concrete function from the set (its *configuration*).

Timing model (stand-in for Silicon Metrics CellRater)
-----------------------------------------------------
The method of logical effort: ``delay = tau * (p + g * C_load / C_in)``.
``g`` (logical effort) is fixed by cell topology, ``C_in`` grows with cell
sizing, ``p`` is the parasitic delay.  The LUT3 is a 3-level via-configured
mux tree, so it pays a large parasitic delay even when configured as a
simple 2-input function — exactly the inferiority the paper leans on.

Area model
----------
Synthetic areas in um^2 at a 0.18um-class node, calibrated (see
:mod:`repro.core.plb`) so the published PLB-level ratios hold: granular
PLB ~1.20x the LUT PLB, granular combinational area ~1.266x.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from ..logic.truthtable import TruthTable

#: Delay unit, in nanoseconds per tau.  Chosen so that a fanout-of-4
#: inverter delay lands near 0.05 ns, a plausible 0.18um figure; the paper's
#: 0.5 ns cycle target then maps onto paths of ~10 logic levels.
TAU_NS = 0.012


@lru_cache(maxsize=None)
def _polarity_variants(base: TruthTable) -> FrozenSet[TruthTable]:
    """All input/output polarity variants of ``base`` (the "WI" behaviour)."""
    variants = set()
    for flips in range(1 << base.n_inputs):
        table = base
        for i in range(base.n_inputs):
            if (flips >> i) & 1:
                table = table.flip_input(i)
        variants.add(table)
        variants.add(~table)
    return frozenset(variants)


@dataclass(frozen=True)
class CellType:
    """A fixed-size component cell of a PLB architecture.

    Parameters
    ----------
    name:
        Library name, e.g. ``"ND3WI"``.
    pins:
        Ordered input pin names; the output pin is always ``"Y"`` (or
        ``"Q"`` for sequential cells).
    feasible:
        Truth tables (over the input pins, in order) that via configuration
        can realize.  ``None`` for sequential cells.
    area:
        Layout area in um^2.
    input_caps:
        Input capacitance per pin, in normalized unit-inverter loads.
    logical_effort:
        Logical effort ``g`` of the worst input-to-output arc.
    parasitic:
        Parasitic delay ``p`` in tau.
    is_sequential:
        True for the DFF.
    max_load:
        Load (same units as caps) beyond which the cell needs buffering.
    """

    name: str
    pins: Tuple[str, ...]
    feasible: Optional[FrozenSet[TruthTable]]
    area: float
    input_caps: Dict[str, float] = field(hash=False)
    logical_effort: float = 1.0
    parasitic: float = 1.0
    is_sequential: bool = False
    max_load: float = 16.0

    def __post_init__(self):
        if set(self.input_caps) != set(self.pins):
            raise ValueError(f"{self.name}: input_caps must cover pins exactly")
        if self.feasible is not None:
            for table in self.feasible:
                if table.n_inputs != len(self.pins):
                    raise ValueError(
                        f"{self.name}: feasible table arity {table.n_inputs} "
                        f"!= pin count {len(self.pins)}"
                    )

    @property
    def n_inputs(self) -> int:
        return len(self.pins)

    @property
    def output_pin(self) -> str:
        return "Q" if self.is_sequential else "Y"

    def can_implement(self, table: TruthTable) -> bool:
        """True when some via configuration realizes ``table`` exactly."""
        if self.feasible is None or table.n_inputs != self.n_inputs:
            return False
        return table in self.feasible

    def delay(self, load: float) -> float:
        """Propagation delay in ns for a given output load."""
        cin = max(self.input_caps.values()) if self.input_caps else 1.0
        return TAU_NS * (self.parasitic + self.logical_effort * load / cin)

    def __reduce__(self):
        # A component cell pickles as a reference to this process's one
        # object, so loaded artifacts share it with the library; any other
        # cell pickles by value, its feasible set in mask order.
        make = _COMPONENTS.get(self.name)
        if make is not None and make() is self:
            return make, ()
        values = [getattr(self, f.name) for f in fields(self)]
        if self.feasible is not None:  # the third field
            values[2] = sorted(self.feasible, key=lambda t: t.mask)
        return _cell_by_value, tuple(values)


def _cell_by_value(name, pins, feasible, *rest) -> CellType:
    feasible = None if feasible is None else frozenset(feasible)
    return CellType(name, pins, feasible, *rest)


# ----------------------------------------------------------------------
# Base functions
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def nand_table(n: int) -> TruthTable:
    """n-input NAND."""
    acc = TruthTable.input_var(n, 0)
    for i in range(1, n):
        acc = acc & TruthTable.input_var(n, i)
    return ~acc


@lru_cache(maxsize=None)
def mux_table() -> TruthTable:
    """2:1 mux with pin order (S, A, B): ``S ? B : A``."""
    s, a, b = TruthTable.inputs(3)
    return TruthTable.mux(s, a, b)


@lru_cache(maxsize=None)
def buf_table() -> TruthTable:
    return TruthTable.input_var(1, 0)


@lru_cache(maxsize=None)
def inv_table() -> TruthTable:
    return ~TruthTable.input_var(1, 0)


# ----------------------------------------------------------------------
# The component cells
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def make_inv() -> CellType:
    return CellType(
        name="INV", pins=("A",), feasible=frozenset({inv_table()}),
        area=5.0, input_caps={"A": 1.0}, logical_effort=1.0, parasitic=1.0,
    )


@lru_cache(maxsize=None)
def make_buf() -> CellType:
    return CellType(
        name="BUF", pins=("A",), feasible=frozenset({buf_table()}),
        area=7.5, input_caps={"A": 1.0}, logical_effort=1.0, parasitic=2.0,
        max_load=32.0,
    )


@lru_cache(maxsize=None)
def make_nd2wi() -> CellType:
    """2-input NAND with programmable input/output inversion (8 functions)."""
    return CellType(
        name="ND2WI", pins=("A", "B"), feasible=_polarity_variants(nand_table(2)),
        area=13.0, input_caps={"A": 1.35, "B": 1.35},
        logical_effort=4.0 / 3.0, parasitic=2.0,
    )


@lru_cache(maxsize=None)
def make_nd3wi() -> CellType:
    """3-input NAND with programmable input/output inversion (16 functions)."""
    return CellType(
        name="ND3WI", pins=("A", "B", "C"), feasible=_polarity_variants(nand_table(3)),
        area=15.0, input_caps={"A": 1.7, "B": 1.7, "C": 1.7},
        logical_effort=5.0 / 3.0, parasitic=3.0,
    )


@lru_cache(maxsize=None)
def make_mux2() -> CellType:
    """Via-patterned 2:1 mux (pin order S, A, B; output ``S ? B : A``)."""
    return CellType(
        name="MUX2", pins=("S", "A", "B"), feasible=frozenset({mux_table()}),
        area=22.0, input_caps={"S": 2.0, "A": 1.5, "B": 1.5},
        logical_effort=2.0, parasitic=3.0,
    )


@lru_cache(maxsize=None)
def make_xoa() -> CellType:
    """The up-sized mux of the granular PLB.

    Functionally identical to MUX2 but sized for speed: larger input
    capacitance means a smaller delay slope into the same load.  The paper
    names it XOA because it is primarily configured as an XOR or a ND2WI
    replacement.
    """
    return CellType(
        name="XOA", pins=("S", "A", "B"), feasible=frozenset({mux_table()}),
        area=27.0, input_caps={"S": 2.8, "A": 2.1, "B": 2.1},
        logical_effort=2.0, parasitic=2.6,
    )


@lru_cache(maxsize=None)
def make_lut3() -> CellType:
    """Via-configured 3-LUT: an 8:1 mux tree, any 3-input function.

    The mux tree is three levels deep, so the LUT carries a large parasitic
    delay even when configured as a trivial function — the paper's central
    argument against coarse granularity ([10]: "substantially inferior to an
    equivalent standard cell ... when configured as a simple logic
    function").
    """
    feasible = frozenset(TruthTable(3, mask) for mask in range(256))
    return CellType(
        name="LUT3", pins=("A", "B", "C"), feasible=feasible,
        area=52.0, input_caps={"A": 2.2, "B": 2.2, "C": 2.2},
        logical_effort=2.6, parasitic=7.5,
    )


@lru_cache(maxsize=None)
def make_dff() -> CellType:
    """D flip-flop; the one sequential component cell."""
    return CellType(
        name="DFF", pins=("D",), feasible=None,
        area=30.0, input_caps={"D": 1.2},
        logical_effort=1.5, parasitic=4.0, is_sequential=True,
    )


@lru_cache(maxsize=None)
def make_polbuf() -> CellType:
    """The programmable polarity/output buffer slot.

    Its area is folded into the PLB overhead terms, so the slot itself is
    free; it exists so INV/BUF instances have somewhere to live.
    """
    return CellType(
        name="POLBUF",
        pins=("A",),
        feasible=frozenset({buf_table(), inv_table()}),
        area=0.0,
        input_caps={"A": 1.0},
        logical_effort=1.0,
        parasitic=1.5,
    )


#: Every component cell's constructor, by cell name.
_COMPONENTS: Dict[str, Callable[[], CellType]] = {
    "INV": make_inv, "BUF": make_buf, "ND2WI": make_nd2wi,
    "ND3WI": make_nd3wi, "MUX2": make_mux2, "XOA": make_xoa,
    "LUT3": make_lut3, "DFF": make_dff, "POLBUF": make_polbuf,
}


#: Clock-to-Q delay of the DFF, ns.
DFF_CLK_TO_Q_NS = 0.10
#: Setup time of the DFF, ns.
DFF_SETUP_NS = 0.06


def standard_cells() -> Dict[str, CellType]:
    """All component cells but the buffer slot, keyed by name."""
    return {
        name: make() for name, make in _COMPONENTS.items() if name != "POLBUF"
    }
