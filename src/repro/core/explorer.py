"""Granularity exploration over arbitrary PLB architectures.

The paper's conclusion calls for exploring PLB composition (mix of WI-NAND
gates, XOR-capable MUXes, and flip-flop ratio) per application domain.
:class:`GranularityExplorer` provides that study as an API: define a
candidate PLB from component slots, and get architecture-level metrics —
area, 3-input function coverage without a LUT, full-adder packability, and
an intrinsic-delay profile — plus a ranking across candidates.

This powers ``results/ablation_granularity.txt`` and ``repro explore``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..cells.celltypes import CellType, make_dff, make_lut3, make_mux2, make_nd3wi, make_xoa
from ..cells.characterize import characterize_cell
from ..logic.truthtable import TruthTable, all_functions
from .configs import granular_configs, lut_arch_configs
from .plb import PLBArchitecture, granular_plb, lut_plb

#: Reference load (unit-inverter loads) for intrinsic-delay comparisons.
REFERENCE_LOAD = 4.0


@dataclass(frozen=True)
class CandidatePLB:
    """A candidate architecture for exploration.

    ``slots`` maps component cell names to per-PLB counts; components may
    be any of LUT3 / ND3WI / MUX2 / XOA / DFF.
    """

    name: str
    slots: Mapping[str, int]

    def component_cells(self) -> Dict[str, CellType]:
        makers = {
            "LUT3": make_lut3,
            "ND3WI": make_nd3wi,
            "MUX2": make_mux2,
            "XOA": make_xoa,
            "DFF": make_dff,
        }
        cells = {}
        for slot in self.slots:
            if slot not in makers:
                raise ValueError(f"unknown component {slot!r}")
            cells[slot] = makers[slot]()
        return cells


@dataclass(frozen=True)
class ArchitectureMetrics:
    """Evaluation of one candidate PLB."""

    name: str
    combinational_area: float
    total_area: float
    mux_count: int
    nand_count: int
    lut_count: int
    dff_count: int
    #: 3-input functions implementable without using a LUT slot.
    lut_free_coverage: int
    #: 3-input functions implementable at all within one PLB.
    total_coverage: int
    #: Whether one PLB fits a full adder (sum + carry).
    full_adder_in_one_plb: bool
    #: Mean intrinsic delay (ns at the reference load) over all 256
    #: 3-input functions, using the fastest covering structure.
    mean_function_delay: float
    #: DFF area share — the Firewire axis of the paper's conclusion.
    sequential_fraction: float


def _config_delay(config_levels: int, base_delay: float) -> float:
    return config_levels * base_delay


class GranularityExplorer:
    """Evaluate and rank candidate PLB architectures."""

    def __init__(self, reference_load: float = REFERENCE_LOAD):
        self.reference_load = reference_load

    # ------------------------------------------------------------------
    def evaluate(self, candidate: CandidatePLB) -> ArchitectureMetrics:
        cells = candidate.component_cells()
        slots = dict(candidate.slots)
        mux_total = slots.get("MUX2", 0) + slots.get("XOA", 0)
        nand_total = slots.get("ND3WI", 0)
        lut_total = slots.get("LUT3", 0)
        dff_total = slots.get("DFF", 0)

        comb_area = sum(
            cells[s].area * n for s, n in slots.items() if not cells[s].is_sequential
        )
        seq_area = sum(
            cells[s].area * n for s, n in slots.items() if cells[s].is_sequential
        )

        structures = self._structures(mux_total, nand_total, lut_total)
        lut_free = set()
        total_cover = set()
        delays: Dict[int, float] = {}
        for functions, uses_lut, delay in structures:
            for table in functions:
                total_cover.add(table.mask)
                if not uses_lut:
                    lut_free.add(table.mask)
                if table.mask not in delays or delay < delays[table.mask]:
                    delays[table.mask] = delay

        covered_delays = [delays[t.mask] for t in all_functions(3) if t.mask in delays]
        mean_delay = sum(covered_delays) / len(covered_delays) if covered_delays else float("inf")

        return ArchitectureMetrics(
            name=candidate.name,
            combinational_area=comb_area,
            total_area=comb_area + seq_area,
            mux_count=mux_total,
            nand_count=nand_total,
            lut_count=lut_total,
            dff_count=dff_total,
            lut_free_coverage=len(lut_free),
            total_coverage=len(total_cover),
            full_adder_in_one_plb=self._fits_full_adder(mux_total, nand_total, lut_total),
            mean_function_delay=mean_delay,
            sequential_fraction=seq_area / (comb_area + seq_area) if comb_area + seq_area else 0.0,
        )

    # ------------------------------------------------------------------
    def _structures(
        self, muxes: int, nands: int, luts: int
    ) -> List[Tuple[Iterable[TruthTable], bool, float]]:
        """(function set, uses_lut, delay-at-reference-load) tuples."""
        mux_delay = characterize_cell(make_mux2()).delay(self.reference_load)
        nd3_delay = characterize_cell(make_nd3wi()).delay(self.reference_load)
        lut_delay = characterize_cell(make_lut3()).delay(self.reference_load)

        by_name = {c.name: c for c in granular_configs()}
        structures: List[Tuple[Iterable[TruthTable], bool, float]] = []
        if nands >= 1:
            structures.append((by_name["ND3"].functions, False, nd3_delay))
        if muxes >= 1:
            structures.append((by_name["MX"].functions, False, mux_delay))
        if muxes >= 1 and nands >= 1:
            structures.append((by_name["NDMX"].functions, False, nd3_delay + mux_delay))
        if muxes >= 2:
            structures.append((by_name["XOAMX"].functions, False, 2 * mux_delay))
        if muxes >= 2 and nands >= 1:
            structures.append(
                (by_name["XOANDMX"].functions, False, nd3_delay + 2 * mux_delay)
            )
        if luts >= 1:
            lut_cfg = [c for c in lut_arch_configs() if c.name == "LUT3"][0]
            structures.append((lut_cfg.functions, True, lut_delay))
        return structures

    def _fits_full_adder(self, muxes: int, nands: int, luts: int) -> bool:
        """Full adder needs 3 muxes + 1 nand (the paper's packing), or two
        LUT-capable slots."""
        if muxes >= 3 and nands >= 1:
            return True
        return luts >= 2

    # ------------------------------------------------------------------
    def functions_per_plb(
        self,
        candidate: CandidatePLB,
        mix: Optional[Dict[str, float]] = None,
    ) -> float:
        """Expected 3-input functions one PLB packs for a function mix.

        ``mix`` gives fractions per function class: ``and_type`` (fits a
        WI-NAND gate), ``mux_type`` (fits one mux), ``other`` (needs a LUT
        or a multi-mux composite).  The default mix reflects the prior-work
        profiling the paper builds on ([6], [7]): LUT-mapped designs are
        dominated by simple AND/NAND/OR/NOR-type functions.
        """
        mix = mix or DEFAULT_FUNCTION_MIX
        slots = dict(candidate.slots)
        muxes = slots.get("MUX2", 0) + slots.get("XOA", 0)
        nands = slots.get("ND3WI", 0)
        luts = slots.get("LUT3", 0)

        # Per packed function, the slot demand by class (greedy: AND-type
        # prefers NAND slots, mux-type prefers mux slots, "other" needs a
        # LUT or two muxes).
        best = 0.0
        n = 1
        while True:
            need_nand = n * mix["and_type"]
            need_mux = n * mix["mux_type"]
            need_other = n * mix["other"]
            # Place "other": LUTs first, then two muxes each.
            lut_used = min(luts, need_other)
            mux_for_other = 2.0 * (need_other - lut_used)
            # Place mux-type: mux slots, then LUTs.
            mux_used = need_mux + mux_for_other
            # AND-type: NAND slots, overflow to muxes or LUTs.
            nand_used = min(nands, need_nand)
            overflow = need_nand - nand_used
            mux_used += overflow
            feasible = (
                mux_used <= muxes + max(0, luts - lut_used)
                and lut_used <= luts
                and need_other - lut_used <= muxes / 2.0 + 1e-9
            )
            if feasible:
                best = float(n)
                n += 1
                if n > 64:
                    break
            else:
                break
        return best

    def rank(
        self,
        candidates: Sequence[CandidatePLB],
        datapath_weight: float = 0.5,
    ) -> List[Tuple[CandidatePLB, ArchitectureMetrics, float]]:
        """Rank candidates by area-per-packed-function x mean delay.

        Lower is better.  Density (functions per PLB under the default
        mix) is the paper's packing-efficiency argument; incomplete
        3-input coverage is penalized, and single-PLB full-adder packing
        earns a bonus scaled by ``datapath_weight`` (datapath designs are
        adder-rich).
        """
        scored = []
        for candidate in candidates:
            metrics = self.evaluate(candidate)
            density = max(0.25, self.functions_per_plb(candidate))
            penalty = 4.0 if metrics.total_coverage < 256 else 1.0
            adder_bonus = (
                1.0 - 0.25 * datapath_weight
                if metrics.full_adder_in_one_plb
                else 1.0
            )
            area = metrics.total_area + plb_interconnect_overhead(candidate)
            score = (
                (area / density) * metrics.mean_function_delay * penalty * adder_bonus
            )
            scored.append((candidate, metrics, score))
        scored.sort(key=lambda item: item[2])
        return scored


#: Function-class mix from the prior-work profiling the paper cites.
DEFAULT_FUNCTION_MIX = {"and_type": 0.55, "mux_type": 0.25, "other": 0.20}

#: Interconnect-overhead model fitted to the paper's two published PLB
#: ratios: overhead = ALPHA * (comb component count) ** GAMMA.  Captures
#: the superlinear cost of configurability ("greater configurability only
#: results in an increase in potential via sites").
OVERHEAD_ALPHA = 0.0977
OVERHEAD_GAMMA = 4.11


def plb_interconnect_overhead(candidate: CandidatePLB) -> float:
    """Local-interconnect area overhead for a candidate PLB (um^2)."""
    comb = sum(
        count
        for slot, count in candidate.slots.items()
        if slot in ("LUT3", "ND3WI", "MUX2", "XOA")
    )
    return OVERHEAD_ALPHA * comb ** OVERHEAD_GAMMA


def paper_candidates() -> Tuple[CandidatePLB, ...]:
    """The paper's two architectures plus nearby design points."""
    return (
        CandidatePLB("lut_plb", {"LUT3": 1, "ND3WI": 2, "DFF": 1}),
        CandidatePLB("granular_plb", {"MUX2": 2, "XOA": 1, "ND3WI": 1, "DFF": 1}),
        CandidatePLB("mux_only", {"MUX2": 3, "XOA": 1, "DFF": 1}),
        CandidatePLB("nand_heavy", {"MUX2": 1, "XOA": 1, "ND3WI": 3, "DFF": 1}),
        CandidatePLB("seq_heavy", {"MUX2": 2, "XOA": 1, "ND3WI": 1, "DFF": 2}),
        CandidatePLB("lut_plus_mux", {"LUT3": 1, "MUX2": 1, "ND3WI": 1, "DFF": 1}),
    )


def paper_architectures() -> Tuple[PLBArchitecture, PLBArchitecture]:
    """(lut, granular) — the two architectures the paper compares."""
    return lut_plb(), granular_plb()
