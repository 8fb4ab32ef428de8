"""Logic configurations of the granular PLB (paper Section 2.3).

The higher granularity of the proposed PLB lets several 3-input functions
be implemented with structures that are faster and denser than a 3-LUT.
The paper lists five such configurations:

1. **MX**       — a single 2:1 MUX;
2. **ND3**      — a single ND3WI gate;
3. **NDMX**     — a 2:1 MUX driven by a single ND2WI gate;
4. **XOAMX**    — a 2:1 MUX driven by another 2:1 MUX;
5. **XOANDMX**  — a 2:1 MUX driven by a 2:1 MUX and a ND3WI gate.

Each configuration owns a *function set* (computed by enumeration over its
via-configuration space), a resource footprint in PLB component slots, and
area/delay figures used by compaction to choose the cheapest realization.
The LUT architecture's analogous configurations (LUT3, ND3) are defined
here too so both architectures share one matching interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Set, Tuple

from ..cells.celltypes import (
    make_lut3,
    make_mux2,
    make_nd2wi,
    make_nd3wi,
    make_xoa,
)
from ..logic.truthtable import TruthTable, all_functions
from .functions3 import (
    literal_sources_3in,
    mux2_implementable_3in,
    nd2wi_sources_3in,
    nd3wi_implementable_3in,
)


@dataclass(frozen=True)
class LogicConfig:
    """One PLB logic configuration.

    ``resources`` maps component-slot names (``MUX2``, ``XOA``, ``ND3WI``,
    ``LUT3``) to the number of slots the configuration occupies in a single
    PLB.  ``levels`` is the logic depth in component cells, used by the
    delay-oriented matcher.
    """

    name: str
    resources: Mapping[str, int]
    functions: FrozenSet[TruthTable]
    area: float
    levels: int

    def implements(self, table: TruthTable) -> bool:
        if table.n_inputs != 3:
            table = table.extend(3) if table.n_inputs < 3 else table
        return table in self.functions


def _mux_over(
    leg_sources: Sequence[TruthTable], other_sources: Sequence[TruthTable]
) -> Dict[int, None]:
    """MUX(select-literal; leg, other) over 3-input tables, both orders.

    Works on the 8-bit row masks and returns each distinct result once,
    in order of first appearance (see :func:`_table_set`).
    """
    legs = [t.mask for t in leg_sources]
    others = [t.mask for t in other_sources]
    found: Dict[int, None] = {}
    for s in _select_masks():
        ns = 0xFF ^ s
        for leg in legs:
            for other in others:
                found[(ns & leg) | (s & other)] = None
                found[(ns & other) | (s & leg)] = None
    return found


def _select_masks() -> Tuple[int, ...]:
    """Masks of the non-constant literals, the MUX select candidates."""
    return tuple(t.mask for t in literal_sources_3in() if not t.is_constant())


def _table_set(masks: Iterable[int]) -> Set[TruthTable]:
    """The tables of ``masks``, added one by one in order.

    Adding the distinct functions in the order ``TruthTable.mux`` first
    produced them builds the same hash table, so the sets iterate in the
    same order: architecture reprs, and the cache keys built from them,
    depend on it.
    """
    return set(TruthTable(3, mask) for mask in masks)


@lru_cache(maxsize=None)
def mx_functions() -> FrozenSet[TruthTable]:
    """Config 1 — a single 2:1 MUX."""
    return mux2_implementable_3in()


@lru_cache(maxsize=None)
def nd3_functions() -> FrozenSet[TruthTable]:
    """Config 2 — a single ND3WI gate."""
    return nd3wi_implementable_3in()


@lru_cache(maxsize=None)
def ndmx_functions() -> FrozenSet[TruthTable]:
    """Config 3 — a 2:1 MUX with one data leg from an ND2WI gate."""
    literals = literal_sources_3in()
    nd_legs = tuple(nd2wi_sources_3in())
    return frozenset(_table_set(_mux_over(nd_legs, literals)))


@lru_cache(maxsize=None)
def xoamx_functions() -> FrozenSet[TruthTable]:
    """Config 4 — a 2:1 MUX with one data leg from another 2:1 MUX.

    Includes the "two 2:1 MUXes and an inverter" wiring of Section 2.1's
    category-5 functions: the inner mux output feeds one leg directly and
    the other leg through a programmable polarity buffer, which realizes
    the 3-input XOR/XNOR.
    """
    literals = literal_sources_3in()
    mux_legs = tuple(mux2_implementable_3in())
    plain = frozenset(_table_set(_mux_over(mux_legs, literals)))
    both_legs: Dict[int, None] = {}
    for s in _select_masks():
        ns = 0xFF ^ s
        for m in mux_legs:
            inverse = 0xFF ^ m.mask
            both_legs[(ns & m.mask) | (s & inverse)] = None
            both_legs[(ns & inverse) | (s & m.mask)] = None
    return frozenset(plain | _table_set(both_legs))


@lru_cache(maxsize=None)
def xoandmx_functions() -> FrozenSet[TruthTable]:
    """Config 5 — a 2:1 MUX fed by a 2:1 MUX and an ND3WI gate."""
    mux_legs = tuple(mux2_implementable_3in())
    nd3_legs = tuple(nd3wi_implementable_3in())
    return frozenset(_table_set(_mux_over(mux_legs, nd3_legs)))


@lru_cache(maxsize=None)
def lut3_functions() -> FrozenSet[TruthTable]:
    """The LUT architecture's catch-all: every 3-input function."""
    return frozenset(all_functions(3))


def granular_configs() -> Tuple[LogicConfig, ...]:
    """The granular PLB's configurations, cheapest-area first.

    Area figures are the component-cell areas; a MUX-slot function may be
    realized by either a MUX2 or the XOA, so the resource entry ``MUX``
    denotes "any mux slot" and the packer resolves it.
    """
    mux_area = make_mux2().area
    xoa_area = make_xoa().area
    nd3_area = make_nd3wi().area
    nd2_area = make_nd2wi().area
    return (
        LogicConfig("ND3", {"ND3WI": 1}, nd3_functions(), nd3_area, 1),
        LogicConfig("MX", {"MUX": 1}, mx_functions(), mux_area, 1),
        LogicConfig("NDMX", {"MUX": 1, "ND3WI": 1}, ndmx_functions(),
                    mux_area + nd2_area, 2),
        LogicConfig("XOAMX", {"MUX": 2}, xoamx_functions(),
                    mux_area + xoa_area, 2),
        LogicConfig("XOANDMX", {"MUX": 2, "ND3WI": 1}, xoandmx_functions(),
                    mux_area + xoa_area + nd3_area, 2),
    )


def lut_arch_configs() -> Tuple[LogicConfig, ...]:
    """The LUT-based PLB's configurations (paper Figure 1 architecture)."""
    nd3_area = make_nd3wi().area
    lut_area = make_lut3().area
    return (
        LogicConfig("ND3", {"ND3WI": 1}, nd3_functions(), nd3_area, 1),
        LogicConfig("LUT3", {"LUT3": 1}, lut3_functions(), lut_area, 1),
    )


def best_config(
    table: TruthTable, configs: Sequence[LogicConfig]
) -> Optional[LogicConfig]:
    """Cheapest-area configuration implementing ``table`` (3 inputs max)."""
    if table.n_inputs > 3:
        return None
    lifted = table.extend(3)
    candidates = [c for c in configs if lifted in c.functions]
    if not candidates:
        return None
    return min(candidates, key=lambda c: (c.area, c.levels, c.name))


@lru_cache(maxsize=None)
def coverage_summary() -> Dict[str, int]:
    """How many of the 256 3-input functions each granular config covers."""
    return {config.name: len(config.functions) for config in granular_configs()}
