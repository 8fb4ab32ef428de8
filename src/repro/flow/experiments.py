"""Experiment drivers regenerating the paper's tables and figures.

One evaluation matrix (4 designs x 2 PLB architectures x flows a/b)
feeds both the Table 1 (area) and Table 2 (timing) reports, exactly as in
the paper where both tables come from the same runs.

Design sizes scale with an explicit ``scale`` argument (default 1.0;
DESIGN.md explains why the paper's absolute gate counts are scaled down
for a pure-Python flow).

:mod:`repro.flow.results` turns these reports into the committed
artifacts (``repro results``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..core.s3 import category_counts, modified_s3_implementable, s3_feasible_set
from ..designs import build_alu, build_firewire, build_fpu, build_netswitch
from ..netlist.core import Netlist
from .cache import CacheStats
from .flow import DesignRun
from .options import FlowOptions
from .parallel import run_cells

ARCHES = ("granular", "lut")
DESIGNS = ("alu", "firewire", "fpu", "netswitch")
DATAPATH_DESIGNS = ("alu", "fpu", "netswitch")


def check_scale(scale: Any) -> float:
    """Return ``scale`` if it is a finite number > 0, else raise ValueError."""
    if not (isinstance(scale, (int, float)) and math.isfinite(scale)
            and scale > 0):
        raise ValueError(
            f"design scale must be a finite number > 0, got {scale!r}"
        )
    return scale


def build_design(name: str, scale: float = 1.0) -> Netlist:
    """Instantiate one benchmark design at the requested scale.

    Raises ValueError unless ``scale`` is a finite number > 0.
    """
    s = check_scale(scale)
    if name == "alu":
        return build_alu(width=max(4, round(16 * s)))
    if name == "firewire":
        return build_firewire(
            timer_bits=max(6, round(12 * s)),
            config_regs=max(3, round(6 * s)),
            fifo_depth=max(3, round(8 * s)),
        )
    if name == "fpu":
        return build_fpu(
            exp_bits=max(3, round(5 * s)),
            mant_bits=max(4, round(10 * s)),
        )
    if name == "netswitch":
        return build_netswitch(
            ports=4 if s >= 0.5 else 2,
            width=max(4, round(8 * s)),
        )
    raise ValueError(f"unknown design {name!r}")


def default_options() -> FlowOptions:
    """Experiment defaults: identical effort for both architectures."""
    return FlowOptions(place_effort=0.2, seed=7)


@dataclass
class Matrix:
    """The full evaluation matrix."""

    runs: Dict[Tuple[str, str], DesignRun]

    def run(self, design: str, arch: str) -> DesignRun:
        return self.runs[(design, arch)]

    def aggregate_cache_stats(self) -> CacheStats:
        """Cache hits/misses/bytes summed over every cell's flow run."""
        total = CacheStats()
        for run in self.runs.values():
            if run.cache_stats is not None:
                total.merge(run.cache_stats)
        return total

    def performance_report(self) -> str:
        """Per-cell stage timings plus aggregate cache statistics."""
        lines = [run.performance_report() for run in self.runs.values()]
        lines.append(f"matrix cache totals: {self.aggregate_cache_stats().format()}")
        return "\n".join(lines)


def run_matrix(
    options: Optional[FlowOptions] = None,
    designs: Tuple[str, ...] = DESIGNS,
    scale: float = 1.0,
    jobs: Optional[int] = None,
) -> Matrix:
    """Run the evaluation matrix.

    ``jobs`` fans the independent (design, arch) cells out over worker
    processes (default: ``options.jobs``; 1 = serial).  A rerun in the
    same or a later process is warm through the stage cache.
    """
    options = options or default_options()
    cells = [(design, arch) for design in designs for arch in ARCHES]
    runs = run_cells(cells, scale, options, jobs=options.jobs if jobs is None else jobs)
    return Matrix(runs=runs)


# ----------------------------------------------------------------------
# Table 1: die area
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Table1Row:
    design: str
    granular_flow_a: float
    granular_flow_b: float
    lut_flow_a: float
    lut_flow_b: float

    @property
    def granular_reduction(self) -> float:
        """Flow-b die-area reduction of granular vs LUT (positive = win)."""
        return 1.0 - self.granular_flow_b / self.lut_flow_b

    @property
    def granular_overhead(self) -> float:
        """Absolute packing overhead (flow b - flow a), granular, um^2."""
        return self.granular_flow_b - self.granular_flow_a

    @property
    def lut_overhead(self) -> float:
        return self.lut_flow_b - self.lut_flow_a


@dataclass
class Table1:
    """Paper Table 1: die-area comparison."""

    rows: Dict[str, Table1Row]

    @property
    def datapath_average_reduction(self) -> float:
        vals = [self.rows[d].granular_reduction for d in DATAPATH_DESIGNS if d in self.rows]
        return sum(vals) / len(vals)

    @property
    def fpu_reduction(self) -> float:
        return self.rows["fpu"].granular_reduction

    @property
    def firewire_reduction(self) -> float:
        return self.rows["firewire"].granular_reduction

    @property
    def overhead_reduction(self) -> float:
        """How much less absolute packing overhead the granular PLB pays."""
        lut = sum(r.lut_overhead for r in self.rows.values())
        gran = sum(r.granular_overhead for r in self.rows.values())
        if lut <= 0:
            return 0.0
        return 1.0 - gran / lut

    @property
    def datapath_overhead_reduction(self) -> float:
        """Overhead saved on the datapath designs (the paper's ~48-88%).

        Firewire is excluded: a sequential-dominated design is DFF-bound
        on both architectures, so its packing overhead scales with the PLB
        area (where the granular PLB loses by construction).
        """
        rows = [self.rows[d] for d in DATAPATH_DESIGNS if d in self.rows]
        lut = sum(r.lut_overhead for r in rows)
        gran = sum(r.granular_overhead for r in rows)
        if lut <= 0:
            return 0.0
        return 1.0 - gran / lut

    def format(self) -> str:
        lines = [
            "Table 1: Die-Area (um^2)",
            f"{'design':12s} {'granular a':>12s} {'granular b':>12s} "
            f"{'LUT a':>12s} {'LUT b':>12s} {'gran. win':>10s}",
        ]
        for name, row in sorted(self.rows.items()):
            lines.append(
                f"{name:12s} {row.granular_flow_a:12.0f} {row.granular_flow_b:12.0f} "
                f"{row.lut_flow_a:12.0f} {row.lut_flow_b:12.0f} "
                f"{row.granular_reduction:10.1%}"
            )
        lines.append(
            f"datapath average reduction: {self.datapath_average_reduction:.1%} "
            f"(paper: ~32%); FPU: {self.fpu_reduction:.1%} (paper: ~40%); "
            f"Firewire: {self.firewire_reduction:.1%} (paper: negative); "
            f"datapath packing-overhead saved by granular: "
            f"{self.datapath_overhead_reduction:.1%} (paper: ~48%, up to 88.6%)"
        )
        return "\n".join(lines)


def run_table1(matrix: Matrix) -> Table1:
    rows = {}
    for design in dict.fromkeys(d for d, _a in matrix.runs):
        gran = matrix.run(design, "granular")
        lut = matrix.run(design, "lut")
        rows[design] = Table1Row(
            design=design,
            granular_flow_a=gran.flow_a.die_area,
            granular_flow_b=gran.flow_b.die_area,
            lut_flow_a=lut.flow_a.die_area,
            lut_flow_b=lut.flow_b.die_area,
        )
    return Table1(rows=rows)


# ----------------------------------------------------------------------
# Table 2: timing (average slack over the top 10 critical paths)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Table2Row:
    design: str
    n_gates: float  # NAND2 equivalents, as the paper reports sizes
    granular_flow_a: float
    granular_flow_b: float
    lut_flow_a: float
    lut_flow_b: float

    @property
    def slack_improvement(self) -> float:
        """Relative improvement of granular flow-b slack vs LUT flow-b.

        Slacks are negative against the paper's 0.5 ns target; improvement
        is measured on the slack deficit, as the paper does.
        """
        lut_deficit = -min(0.0, self.lut_flow_b)
        gran_deficit = -min(0.0, self.granular_flow_b)
        if lut_deficit <= 0:
            return 0.0
        return 1.0 - gran_deficit / lut_deficit

    @property
    def granular_degradation(self) -> float:
        """Slack lost going flow a -> flow b (granular)."""
        return self.granular_flow_a - self.granular_flow_b

    @property
    def lut_degradation(self) -> float:
        return self.lut_flow_a - self.lut_flow_b


@dataclass
class Table2:
    """Paper Table 2: path slack 1-10 (ns)."""

    rows: Dict[str, Table2Row]
    period: float

    @property
    def average_slack_improvement(self) -> float:
        vals = [row.slack_improvement for row in self.rows.values()]
        return sum(vals) / len(vals)

    @property
    def degradation_reduction(self) -> float:
        """How much less a->b slack degradation the granular PLB suffers."""
        lut = sum(max(0.0, r.lut_degradation) for r in self.rows.values())
        gran = sum(max(0.0, r.granular_degradation) for r in self.rows.values())
        if lut <= 0:
            return 0.0
        return 1.0 - gran / lut

    def format(self) -> str:
        lines = [
            f"Table 2: Path Slack 1-10 (ns), cycle time {self.period} ns",
            f"{'design':12s} {'gates':>8s} {'granular a':>12s} {'granular b':>12s} "
            f"{'LUT a':>12s} {'LUT b':>12s} {'improve':>9s}",
        ]
        for name, row in sorted(self.rows.items()):
            lines.append(
                f"{name:12s} {row.n_gates:8.0f} {row.granular_flow_a:12.3f} "
                f"{row.granular_flow_b:12.3f} {row.lut_flow_a:12.3f} "
                f"{row.lut_flow_b:12.3f} {row.slack_improvement:9.1%}"
            )
        lines.append(
            f"average slack improvement: {self.average_slack_improvement:.1%} "
            f"(paper: ~18%); a->b degradation saved by granular: "
            f"{self.degradation_reduction:.1%} (paper: ~68%)"
        )
        return "\n".join(lines)


def run_table2(matrix: Matrix) -> Table2:
    rows = {}
    period = 0.5
    for design in dict.fromkeys(d for d, _a in matrix.runs):
        gran = matrix.run(design, "granular")
        lut = matrix.run(design, "lut")
        period = gran.flow_a.timing.period
        rows[design] = Table2Row(
            design=design,
            n_gates=lut.synthesis.stats.nand2_equivalents,
            granular_flow_a=gran.flow_a.average_slack,
            granular_flow_b=gran.flow_b.average_slack,
            lut_flow_a=lut.flow_a.average_slack,
            lut_flow_b=lut.flow_b.average_slack,
        )
    return Table2(rows=rows, period=period)


# ----------------------------------------------------------------------
# Figure 2 / Section 2 data
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Figure2Data:
    """The function-analysis results of paper Section 2.1."""

    s3_feasible: int
    s3_infeasible: int
    category_counts: Dict[str, int]
    modified_s3_coverage: int

    def format(self) -> str:
        lines = [
            "Figure 2: S3-infeasible 3-input functions by category",
            f"  S3-feasible: {self.s3_feasible} of 256 (paper: 196)",
        ]
        for name, count in self.category_counts.items():
            lines.append(f"  {name}: {count}")
        lines.append(
            f"  modified S3 coverage: {self.modified_s3_coverage} of 256 (paper: all)"
        )
        return "\n".join(lines)


def run_figure2() -> Figure2Data:
    feasible = len(s3_feasible_set())
    counts = {cat.name: n for cat, n in category_counts().items()}
    return Figure2Data(
        s3_feasible=feasible,
        s3_infeasible=256 - feasible,
        category_counts=counts,
        modified_s3_coverage=len(modified_s3_implementable()),
    )


# ----------------------------------------------------------------------
# Compaction summary (the ~15% claim)
# ----------------------------------------------------------------------

@dataclass
class CompactionSummary:
    reductions: Dict[Tuple[str, str], float]

    @property
    def average(self) -> float:
        if not self.reductions:
            return 0.0
        return sum(self.reductions.values()) / len(self.reductions)

    def format(self) -> str:
        lines = ["Compaction gate-area reduction (paper: ~15% average)"]
        for (design, arch), value in sorted(self.reductions.items()):
            lines.append(f"  {design:12s} {arch:9s} {value:6.1%}")
        lines.append(f"  average: {self.average:.1%}")
        return "\n".join(lines)


def run_compaction_summary(matrix: Matrix) -> CompactionSummary:
    return CompactionSummary(
        reductions={
            key: run.synthesis.compaction.reduction
            for key, run in matrix.runs.items()
        }
    )

