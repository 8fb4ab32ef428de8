"""Realizations: concrete component-cell structures for small functions.

A :class:`Realization` is a micro-netlist template — an ordered list of
component-cell steps over up to three *leaf* signals — that implements one
Boolean function.  Realization tables are precomputed per target library
by **forward enumeration** of each structure's via-configuration space
(never by per-function search), then deduplicated keeping the
cheapest-area entry per function.

Two structure families exist per architecture:

* *baseline* structures — what a conventional technology mapper (the
  Design Compiler role) uses: single cells plus plain two-gate NAND
  decompositions and explicit inverters;
* *compaction* structures — additionally the paper's granular PLB
  configurations (NDMX, XOAMX, XOANDMX) and, for the LUT architecture,
  whole-function LUT3 collapsing.  Logic compaction uses the union.

Steps reference their inputs as ``("leaf", i)`` or ``("step", j)``; the
last step is the output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cells.celltypes import (
    make_buf,
    make_inv,
    make_lut3,
    make_mux2,
    make_nd2wi,
    make_nd3wi,
    make_xoa,
)
from ..logic.truthtable import TruthTable
from ..obs import core as _obs

Ref = Tuple[str, int]  # ("leaf", index) or ("step", index)


@dataclass(frozen=True)
class Step:
    """One cell instantiation inside a realization."""

    cell_name: str
    config: TruthTable
    refs: Tuple[Ref, ...]


@dataclass(frozen=True)
class Realization:
    """A component-cell structure implementing ``function`` over leaves."""

    function: TruthTable
    steps: Tuple[Step, ...]
    area: float
    levels: int
    structure: str  # e.g. "ND3", "NDMX", "XOAMX", "LUT3", "ND2+ND2"

    @property
    def n_cells(self) -> int:
        return len(self.steps)


class _TableBuilder:
    """Accumulates the cheapest realization per (n_inputs, mask)."""

    def __init__(self) -> None:
        self.table: Dict[Tuple[int, int], Realization] = {}

    def offer(self, realization: Realization) -> None:
        key = (realization.function.n_inputs, realization.function.mask)
        existing = self.table.get(key)
        if (
            existing is None
            or (realization.area, realization.levels)
            < (existing.area, existing.levels)
        ):
            self.table[key] = realization


# ----------------------------------------------------------------------
# Leaf literal machinery
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Literal:
    """A leaf or its complement, with the steps needed to produce it."""

    table: TruthTable
    ref_builder: Tuple[Tuple[str, int], bool]  # ((kind, index), inverted)

    def materialize(
        self, steps: List[Step], inv_cache: Dict[int, int]
    ) -> Ref:
        """Return a Ref, appending an INV step if the literal is negated."""
        (kind, index), inverted = self.ref_builder
        if not inverted:
            return (kind, index)
        if index in inv_cache:
            return ("step", inv_cache[index])
        steps.append(Step("INV", _INV_CONFIG, ((kind, index),)))
        inv_cache[index] = len(steps) - 1
        return ("step", inv_cache[index])


def _literals(n: int) -> Tuple[_Literal, ...]:
    out = []
    for i in range(n):
        var = TruthTable.input_var(n, i)
        out.append(_Literal(var, (("leaf", i), False)))
        out.append(_Literal(~var, (("leaf", i), True)))
    return tuple(out)


_INV_AREA = make_inv().area
_BUF_AREA = make_buf().area


@lru_cache(maxsize=1)
def _step_areas() -> Dict[str, float]:
    """Area per realizable cell name (computed once; cells are fixed)."""
    return {
        "BUF": make_buf().area,
        "INV": make_inv().area,
        "ND2WI": make_nd2wi().area,
        "ND3WI": make_nd3wi().area,
        "MUX2": make_mux2().area,
        "XOA": make_xoa().area,
        "LUT3": make_lut3().area,
    }


_INV_CONFIG = ~TruthTable.input_var(1, 0)


def _assemble(
    function: TruthTable,
    structure: str,
    core_steps: Sequence[Tuple[str, TruthTable, Sequence[object]]],
    levels: int,
) -> Realization:
    """Build a Realization from core steps whose refs may be _Literals.

    ``core_steps`` entries are ``(cell_name, config, refs)`` where each ref
    is a :class:`_Literal`, a ``("core", j)`` reference to an earlier core
    step, or ``("inv-core", j)`` for its complement.
    """
    areas = _step_areas()
    steps: List[Step] = []
    inv_cache: Dict[int, int] = {}
    core_index: Dict[int, int] = {}
    core_inv_index: Dict[int, int] = {}
    for j, (cell_name, config, refs) in enumerate(core_steps):
        resolved: List[Ref] = []
        for ref in refs:
            if isinstance(ref, _Literal):
                resolved.append(ref.materialize(steps, inv_cache))
            else:
                kind, idx = ref  # type: ignore[misc]
                if kind == "core":
                    resolved.append(("step", core_index[idx]))
                elif kind == "inv-core":
                    if idx not in core_inv_index:
                        steps.append(
                            Step(
                                "INV",
                                ~TruthTable.input_var(1, 0),
                                (("step", core_index[idx]),),
                            )
                        )
                        core_inv_index[idx] = len(steps) - 1
                    resolved.append(("step", core_inv_index[idx]))
                else:  # pragma: no cover - defensive
                    raise ValueError(f"bad ref {ref!r}")
        steps.append(Step(cell_name, config, tuple(resolved)))
        core_index[j] = len(steps) - 1
    area = sum(areas[s.cell_name] for s in steps)
    return Realization(
        function=function,
        steps=tuple(steps),
        area=area,
        levels=levels,
        structure=structure,
    )


# ----------------------------------------------------------------------
# Structure enumerators (forward)
# ----------------------------------------------------------------------

def _mux_tt(s: TruthTable, d0: TruthTable, d1: TruthTable) -> TruthTable:
    return TruthTable.mux(s, d0, d1)


def _offer_nd2_singles(builder: _TableBuilder, n: int) -> None:
    """Single ND2WI over any two literal sources (polarity is internal)."""
    cell = make_nd2wi()
    assert cell.feasible is not None
    lits = _literals(n)
    for a, b in itertools.product(lits, repeat=2):
        # Polarity is free inside the cell, so only positive leaves are
        # wired; enumerate the cell's feasible configs directly.
        if a.ref_builder[1] or b.ref_builder[1]:
            continue
        for config in cell.feasible:
            function = config.compose([a.table, b.table])
            if len(function.support()) != n:
                continue
            builder.offer(
                _assemble(function, "ND2", [("ND2WI", config, [a, b])], 1)
            )


def _offer_nd3_singles(builder: _TableBuilder, n: int) -> None:
    """Single ND3WI over any three positive leaf sources (ties allowed)."""
    cell = make_nd3wi()
    assert cell.feasible is not None
    lits = [lit for lit in _literals(n) if not lit.ref_builder[1]]
    for a, b, c in itertools.product(lits, repeat=3):
        for config in cell.feasible:
            function = config.compose([a.table, b.table, c.table])
            if len(function.support()) != n:
                continue
            builder.offer(
                _assemble(function, "ND3", [("ND3WI", config, [a, b, c])], 1)
            )


def _offer_mux_singles(builder: _TableBuilder, n: int, cell_name: str = "MUX2") -> None:
    """Single mux over literals (INV steps supply negative polarity)."""
    mux_fn = _mux_tt(*TruthTable.inputs(3))
    lits = _literals(n)
    for s, d0, d1 in itertools.product(lits, repeat=3):
        function = _mux_tt(s.table, d0.table, d1.table)
        if len(function.support()) != n:
            continue
        builder.offer(
            _assemble(function, "MX", [(cell_name, mux_fn, [s, d0, d1])], 1)
        )


def _nd2_inner_options(n: int) -> List[Tuple[TruthTable, Tuple[str, TruthTable, list]]]:
    """Distinct ND2WI outputs over positive leaves, with their core step."""
    cell = make_nd2wi()
    assert cell.feasible is not None
    lits = [lit for lit in _literals(n) if not lit.ref_builder[1]]
    seen: Dict[int, Tuple[TruthTable, Tuple[str, TruthTable, list]]] = {}
    for a, b in itertools.product(lits, repeat=2):
        for config in cell.feasible:
            function = config.compose([a.table, b.table])
            if function.mask not in seen:
                seen[function.mask] = (function, ("ND2WI", config, [a, b]))
    return list(seen.values())


def _nd3_inner_options(n: int) -> List[Tuple[TruthTable, Tuple[str, TruthTable, list]]]:
    cell = make_nd3wi()
    assert cell.feasible is not None
    lits = [lit for lit in _literals(n) if not lit.ref_builder[1]]
    seen: Dict[int, Tuple[TruthTable, Tuple[str, TruthTable, list]]] = {}
    for a, b, c in itertools.product(lits, repeat=3):
        for config in cell.feasible:
            function = config.compose([a.table, b.table, c.table])
            if function.mask not in seen:
                seen[function.mask] = (function, ("ND3WI", config, [a, b, c]))
    return list(seen.values())


def _mux_inner_options(
    n: int, cell_name: str
) -> List[Tuple[TruthTable, Tuple[str, TruthTable, list], int]]:
    """Distinct inner-mux outputs with their core step and inverter count."""
    mux_fn = _mux_tt(*TruthTable.inputs(3))
    lits = _literals(n)
    best: Dict[int, Tuple[TruthTable, Tuple[str, TruthTable, list], int]] = {}
    for s, d0, d1 in itertools.product(lits, repeat=3):
        function = _mux_tt(s.table, d0.table, d1.table)
        n_inv = sum(1 for lit in (s, d0, d1) if lit.ref_builder[1])
        key = function.mask
        if key not in best or n_inv < best[key][2]:
            best[key] = (function, (cell_name, mux_fn, [s, d0, d1]), n_inv)
    return list(best.values())


def _offer_two_gate_nand(builder: _TableBuilder) -> None:
    """ND2WI feeding one input of another ND2WI (plain DC decomposition)."""
    inner = _nd2_inner_options(3)
    cell = make_nd2wi()
    assert cell.feasible is not None
    lits = [lit for lit in _literals(3) if not lit.ref_builder[1]]
    for inner_fn, inner_step in inner:
        for other in lits:
            for config in cell.feasible:
                function = config.compose([inner_fn, other.table])
                if len(function.support()) != 3:
                    continue
                builder.offer(
                    _assemble(
                        function,
                        "ND2+ND2",
                        [inner_step, ("ND2WI", config, [("core", 0), other])],
                        2,
                    )
                )


def _offer_ndmx(builder: _TableBuilder) -> None:
    """Config 3 — MUX2 with one data leg from an ND2WI."""
    mux_fn = _mux_tt(*TruthTable.inputs(3))
    inner = _nd2_inner_options(3)
    lits = _literals(3)
    for inner_fn, inner_step in inner:
        for s in lits:
            for other in lits:
                for legs in (
                    [s, ("core", 0), other],
                    [s, other, ("core", 0)],
                ):
                    tables = [
                        lit.table if isinstance(lit, _Literal) else inner_fn
                        for lit in legs
                    ]
                    function = _mux_tt(*tables)
                    if len(function.support()) != 3:
                        continue
                    builder.offer(
                        _assemble(
                            function,
                            "NDMX",
                            [inner_step, ("MUX2", mux_fn, legs)],
                            2,
                        )
                    )


def _offer_xoamx(builder: _TableBuilder, inner_cell: str = "XOA") -> None:
    """Config 4 — MUX2 with one data leg from the XOA mux.

    Includes the both-legs wiring (inner and inverted inner) that realizes
    the 3-input XOR/XNOR with two muxes and an inverter.
    """
    mux_fn = _mux_tt(*TruthTable.inputs(3))
    inner = _mux_inner_options(3, inner_cell)
    lits = _literals(3)
    for inner_fn, inner_step, _ in inner:
        for s in lits:
            for other in lits:
                for legs in (
                    [s, ("core", 0), other],
                    [s, other, ("core", 0)],
                ):
                    tables = [
                        lit.table if isinstance(lit, _Literal) else inner_fn
                        for lit in legs
                    ]
                    function = _mux_tt(*tables)
                    if len(function.support()) != 3:
                        continue
                    builder.offer(
                        _assemble(
                            function, "XOAMX",
                            [inner_step, ("MUX2", mux_fn, legs)], 2,
                        )
                    )
            # both legs from the inner mux, one through an inverter
            for legs in (
                [s, ("core", 0), ("inv-core", 0)],
                [s, ("inv-core", 0), ("core", 0)],
            ):
                tables = [
                    lit.table if isinstance(lit, _Literal) else
                    (inner_fn if lit[0] == "core" else ~inner_fn)
                    for lit in legs
                ]
                function = _mux_tt(*tables)
                if len(function.support()) != 3:
                    continue
                builder.offer(
                    _assemble(
                        function, "XOAMX",
                        [inner_step, ("MUX2", mux_fn, legs)], 2,
                    )
                )


def _offer_xoandmx(builder: _TableBuilder, inner_cell: str = "XOA") -> None:
    """Config 5 — MUX2 fed by the XOA mux and an ND3WI gate."""
    mux_fn = _mux_tt(*TruthTable.inputs(3))
    mux_inner = _mux_inner_options(3, inner_cell)
    nd3_inner = _nd3_inner_options(3)
    lits = _literals(3)
    for mux_fn_inner, mux_step, _ in mux_inner:
        for nd3_fn, nd3_step in nd3_inner:
            for s in lits:
                for legs in (
                    [s, ("core", 0), ("core", 1)],
                    [s, ("core", 1), ("core", 0)],
                ):
                    tables = []
                    for lit in legs:
                        if isinstance(lit, _Literal):
                            tables.append(lit.table)
                        else:
                            tables.append(
                                mux_fn_inner if lit[1] == 0 else nd3_fn
                            )
                    function = _mux_tt(*tables)
                    if len(function.support()) != 3:
                        continue
                    builder.offer(
                        _assemble(
                            function, "XOANDMX",
                            [mux_step, nd3_step, ("MUX2", mux_fn, legs)], 2,
                        )
                    )


def _offer_lut3(builder: _TableBuilder, n: int) -> None:
    """Whole-function LUT3 collapse (LUT architecture only)."""
    for mask in range(1 << (1 << n)):
        function = TruthTable(n, mask)
        if len(function.support()) != n:
            continue
        config = function.extend(3)
        refs: List[object] = [
            _Literal(TruthTable.input_var(n, i), (("leaf", i), False))
            for i in range(n)
        ]
        while len(refs) < 3:
            refs.append(refs[0])  # tie unused pins
        builder.offer(_assemble(function, "LUT3", [("LUT3", config, refs)], 1))


# ----------------------------------------------------------------------
# Public tables
# ----------------------------------------------------------------------

#: Component cells that realization structures can instantiate.
REALIZABLE_CELLS = frozenset(
    {"INV", "BUF", "ND2WI", "ND3WI", "MUX2", "XOA", "LUT3"}
)

#: Cell sets of the paper's two architectures (for the legacy string API).
_ARCH_CELLS = {
    "lut": frozenset({"INV", "BUF", "ND2WI", "ND3WI", "LUT3"}),
    "granular": frozenset({"INV", "BUF", "ND2WI", "ND3WI", "MUX2", "XOA"}),
}


def _resolve_cells(arch) -> frozenset:
    """Accept an architecture name, a cell set, or a Library."""
    if isinstance(arch, str):
        if arch not in _ARCH_CELLS:
            raise ValueError(f"unknown architecture {arch!r}")
        return _ARCH_CELLS[arch]
    if isinstance(arch, (set, frozenset)):
        return frozenset(arch) & REALIZABLE_CELLS
    # Library-like: anything exposing cell_names().
    return frozenset(arch.cell_names()) & REALIZABLE_CELLS


#: Bump whenever table construction changes in a way that alters entries;
#: it keys the persisted tables, so stale on-disk copies are never reused.
TABLE_BUILDER_VERSION = 1


def _library_fingerprint(cells: frozenset) -> Tuple:
    """Stable description of every cell a table can instantiate.

    Persisted tables are keyed on this (plus the builder version), so any
    change to a cell's area, pins, or feasible-function set invalidates
    them — the on-disk table can go stale only if the *builder code*
    changes without a version bump.
    """
    from ..cells.celltypes import standard_cells

    library = standard_cells()
    out = []
    for name in sorted(cells | {"INV", "BUF"}):
        cell = library[name]
        feasible = tuple(sorted(
            (t.n_inputs, t.mask) for t in (cell.feasible or ())
        ))
        out.append((cell.name, cell.pins, cell.area, feasible))
    return tuple(out)


def _build_table(
    cells: frozenset, composite: bool
) -> Dict[Tuple[int, int], Realization]:
    """Forward-enumerate every structure family available to ``cells``."""
    builder = _TableBuilder()
    _offer_inv_buf(builder)
    if "ND2WI" in cells:
        for n in (2, 3):
            _offer_nd2_singles(builder, n)
        _offer_two_gate_nand(builder)
    if "ND3WI" in cells:
        for n in (2, 3):
            _offer_nd3_singles(builder, n)
    if "MUX2" in cells:
        for n in (2, 3):
            _offer_mux_singles(builder, n)
    if "LUT3" in cells:
        _offer_lut3(builder, 2)
        _offer_lut3(builder, 3)
    if composite:
        inner_mux = "XOA" if "XOA" in cells else "MUX2"
        if "MUX2" in cells and "ND2WI" in cells:
            _offer_ndmx(builder)
        if "MUX2" in cells:
            _offer_xoamx(builder, inner_cell=inner_mux)
        if "MUX2" in cells and "ND3WI" in cells:
            _offer_xoandmx(builder, inner_cell=inner_mux)
    return dict(builder.table)


@lru_cache(maxsize=None)
def table_for_cells(
    cells: frozenset, composite: bool
) -> Dict[Tuple[int, int], Realization]:
    """Realization table for an arbitrary component-cell set.

    ``composite=False`` gives the conventional-mapper (baseline) subset;
    ``composite=True`` adds the paper's compaction structures (NDMX /
    XOAMX / XOANDMX where the required muxes exist, whole-function LUT3
    collapse where a LUT exists).  This generalization lets the full flow
    run on *custom* PLB architectures — the paper's proposed future work.

    Tables are deterministic functions of the cell set and the component
    cells' definitions, so beyond the in-process ``lru_cache`` they are
    *persisted* through the content-addressed stage cache
    (:mod:`repro.flow.cache`): a warm run unpickles the finished table
    instead of re-deriving its ~27k structure enumerations, and the
    stage DAG's forked pool workers inherit the parent's.  Keyed on the
    library fingerprint plus :data:`TABLE_BUILDER_VERSION`; honors
    ``REPRO_NO_CACHE`` / ``REPRO_CACHE_DIR`` like every other stage.
    """
    # Deferred import: repro.flow's package init pulls in the synthesis
    # stack (including this module), so a top-level import would cycle.
    from ..flow.cache import StageCache

    with _obs.span(
        "realize.table",
        cells=",".join(sorted(cells)),
        composite=bool(composite),
    ) as sp:
        store = StageCache()
        key = store.key(
            "realize_table",
            TABLE_BUILDER_VERSION,
            sorted(cells),
            bool(composite),
            _library_fingerprint(cells),
        )
        table = store.get("realize_table", key)
        loaded = table is not None
        if not loaded:
            table = _build_table(cells, composite)
            store.put("realize_table", key, table)
        sp.set(loaded=loaded, entries=len(table))
        _obs.counter("realize.table.loads" if loaded else "realize.table.builds")
    return table


def baseline_table(arch) -> Dict[Tuple[int, int], Realization]:
    """Structures a conventional mapper uses for an architecture.

    ``arch`` may be ``"lut"`` / ``"granular"``, a cell-name set, or a
    :class:`~repro.cells.library.Library`.  Covers every 1- and 2-input
    function plus single-cell and plain two-NAND 3-input structures;
    3-input functions outside the table are decomposed by the mapper
    through smaller cuts.
    """
    return table_for_cells(_resolve_cells(arch), composite=False)


def compaction_table(arch) -> Dict[Tuple[int, int], Realization]:
    """The full structure set used by logic compaction.

    Extends the baseline with the paper's composite configurations —
    NDMX / XOAMX / XOANDMX for mux-bearing PLBs — giving complete
    coverage of all 3-input functions without a LUT.  (A LUT-bearing
    PLB's baseline already contains its compaction structures, LUT3 and
    ND3WI; compaction still helps there through FlowMap's wider
    clustering.)
    """
    return table_for_cells(_resolve_cells(arch), composite=True)


def _offer_inv_buf(builder: _TableBuilder) -> None:
    var = TruthTable.input_var(1, 0)
    leaf = _Literal(var, (("leaf", 0), False))
    builder.offer(_assemble(~var, "INV", [("INV", ~var, [leaf])], 1))
    builder.offer(_assemble(var, "BUF", [("BUF", var, [leaf])], 1))


def lookup(
    table: Dict[Tuple[int, int], Realization], function: TruthTable
) -> Optional[Realization]:
    """Find a realization for ``function`` (shrunk to its support)."""
    shrunk, kept = function.shrink_to_support()
    found = table.get((shrunk.n_inputs, shrunk.mask))
    if found is None:
        return None
    if kept == tuple(range(function.n_inputs)):
        return found
    # Re-index leaves back to the original input positions.
    remap = {i: kept[i] for i in range(len(kept))}
    steps = tuple(
        Step(
            s.cell_name,
            s.config,
            tuple(("leaf", remap[idx]) if kind == "leaf" else (kind, idx)
                  for kind, idx in s.refs),
        )
        for s in found.steps
    )
    return Realization(
        function=function,
        steps=steps,
        area=found.area,
        levels=found.levels,
        structure=found.structure,
    )


def memoized_lookup(
    table: Dict[Tuple[int, int], Realization]
) -> Callable[[int, int], Optional[Realization]]:
    """:func:`lookup` by ``(n_inputs, mask)``, memoized for as long as
    the caller keeps the returned function (one mapping or compaction
    pass)."""
    memo: Dict[Tuple[int, int], Optional[Realization]] = {}

    def find(n_inputs: int, mask: int) -> Optional[Realization]:
        key = (n_inputs, mask)
        if key not in memo:
            memo[key] = lookup(table, TruthTable(n_inputs, mask))
        return memo[key]

    return find
