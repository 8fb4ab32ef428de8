"""Every reported number, generated: ``repro results``.

:data:`ARTIFACTS` is the one path from a run to a reported number.  It
pairs every generated file under ``results/``, ``results_fullscale.txt``
and each generated block of EXPERIMENTS.md with the function that
renders it, and :func:`write_results` writes them all.  Each artifact
states the scale, seed and placement effort it ran at on its first line
(a block: in its opening marker); none holds a wall time.

The claims of EXPERIMENTS.md get a verdict computed from their
direction, with the paper's magnitude shown next to the measured one.

It lives apart from :mod:`repro.flow.experiments` because every flow
process imports that module; only the ``results``, ``explore`` and
``vias`` commands and the tests load this one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .experiments import (
    CompactionSummary,
    Figure2Data,
    Matrix,
    Table1,
    Table2,
    build_design,
    default_options,
    run_compaction_summary,
    run_figure2,
    run_matrix,
    run_table1,
    run_table2,
)
from .flow import DesignRun, FlowResult, run_design
from .options import FlowOptions


# ----------------------------------------------------------------------
# Settings, ablations and extensions beyond the paper's tables
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Setting:
    """The parameters a generated artifact is run at."""

    scale: float
    place_effort: float
    seed: int = 7

    def options(self) -> FlowOptions:
        return replace(
            default_options(), place_effort=self.place_effort, seed=self.seed
        )

    def header(self) -> str:
        return (f"scale {self.scale}, seed {self.seed}, "
                f"place_effort {self.place_effort}")


#: The shared evaluation matrix of the ``results/`` tables.
BENCH = Setting(scale=0.6, place_effort=0.2)
#: The single-design ablations and the domain-specific sweep.
ABLATION = Setting(scale=0.4, place_effort=0.1)
#: The paper-scale matrix of ``results_fullscale.txt`` and EXPERIMENTS.md.
FULL = Setting(scale=1.0, place_effort=0.2)


@dataclass(frozen=True)
class CompactionAblation:
    """Flow results with and without logic compaction (granular ALU)."""

    with_compaction: DesignRun
    without: DesignRun

    def format(self) -> str:
        lines = ["Ablation: logic compaction (granular ALU)"]
        for label, run in (("with compaction:   ", self.with_compaction),
                           ("without compaction:", self.without)):
            lines.append(
                f"  {label} area={run.synthesis.stats.total_area:8.0f} "
                f"die_b={run.flow_b.die_area:8.0f} "
                f"plbs={run.flow_b.plbs_used}"
            )
        return "\n".join(lines)


def run_compaction_ablation(setting: Setting = ABLATION) -> CompactionAblation:
    options = setting.options()
    return CompactionAblation(
        with_compaction=run_design(
            build_design("alu", setting.scale), "granular", options
        ),
        without=run_design(
            build_design("alu", setting.scale), "granular",
            replace(options, run_compaction=False),
        ),
    )


@dataclass(frozen=True)
class RoutingSweep:
    """Flow-b results per routing-track count over the PLB array."""

    flow_b: Dict[int, FlowResult]

    def format(self) -> str:
        lines = ["Ablation: routing tracks over the PLB array (granular ALU)"]
        for tracks, flow_b in sorted(self.flow_b.items()):
            lines.append(
                f"  tracks={tracks:3d}: "
                f"routed={str(flow_b.routing.success):5s} "
                f"overused={flow_b.routing.overused_edges:3d} "
                f"slack_b={flow_b.average_slack:7.3f}"
            )
        return "\n".join(lines)


def run_routing_sweep(setting: Setting = ABLATION) -> RoutingSweep:
    """Sweep per-tile track count (the paper's future-work axis)."""
    return RoutingSweep(flow_b={
        tracks: run_design(
            build_design("alu", setting.scale), "granular",
            replace(setting.options(), routing_tracks=tracks),
        ).flow_b
        for tracks in (6, 12, 28)
    })


@dataclass(frozen=True)
class DomainExploration:
    """Flow-b die area per (design, candidate PLB)."""

    die_area: Dict[Tuple[str, str], float]

    def best(self, design: str) -> str:
        row = {label: area for (d, label), area in self.die_area.items()
               if d == design}
        return min(row, key=row.__getitem__)

    def format(self) -> str:
        lines = ["Domain-specific PLB exploration (flow b die area, um^2):"]
        for design in dict.fromkeys(d for d, _label in self.die_area):
            cells = "  ".join(
                f"{label}={area:8.0f}"
                for (d, label), area in self.die_area.items() if d == design
            )
            lines.append(f"  {design:9s} {cells}   best: {self.best(design)}")
        return "\n".join(lines)


def run_domain_exploration(setting: Setting = ABLATION) -> DomainExploration:
    """The granular PLB against two custom variants (the paper's closing
    proposal: a domain-specific mix of logic elements and DFFs)."""
    from ..core.plb import custom_plb

    candidates = {
        "granular": "granular",
        "seq_heavy": custom_plb(
            "seq_heavy", {"MUX2": 2, "XOA": 1, "ND3WI": 1, "DFF": 3}
        ),
        "mux_rich": custom_plb(
            "mux_rich", {"MUX2": 3, "XOA": 1, "ND3WI": 1, "DFF": 1}
        ),
    }
    return DomainExploration(die_area={
        (design, label): run_design(
            build_design(design, setting.scale), arch, setting.options()
        ).flow_b.die_area
        for design in ("alu", "firewire")
        for label, arch in candidates.items()
    })


def format_granularity_ranking() -> str:
    """The explorer's ranking of the paper's candidate PLBs."""
    from ..core.explorer import GranularityExplorer, paper_candidates

    lines = ["Granularity ablation (lower score = better):"]
    for _candidate, metrics, score in GranularityExplorer().rank(
        paper_candidates()
    ):
        lines.append(
            f"  {metrics.name:14s} area={metrics.total_area:6.1f} "
            f"lut_free={metrics.lut_free_coverage:3d}/256 "
            f"FA_in_1_PLB={str(metrics.full_adder_in_one_plb):5s} "
            f"score={score:7.2f}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class PowerTable:
    """Estimated flow-b power per matrix cell."""

    rows: Dict[Tuple[str, str], object]

    def format(self) -> str:
        lines = ["Estimated flow-b power (mW @ 200 MHz):",
                 f"{'design':12s} {'arch':9s} {'dynamic':>8s} {'clock':>7s} "
                 f"{'leakage':>8s} {'total':>7s}"]
        for (design, arch), report in sorted(self.rows.items()):
            lines.append(
                f"{design:12s} {arch:9s} {report.dynamic:8.3f} "
                f"{report.clock:7.3f} {report.leakage:8.4f} "
                f"{report.total:7.3f}"
            )
        return "\n".join(lines)


def run_power(matrix: Matrix) -> PowerTable:
    from ..power.power import estimate_power

    return PowerTable(rows={
        cell: estimate_power(
            run.physical.netlist,
            run.synthesis.timing_library,
            wires=run.physical.wires,
            leakage_area_um2=run.flow_b.die_area,
        )
        for cell, run in matrix.runs.items()
    })


def format_via_costs() -> str:
    """Via-site cost per PLB against its SRAM-bit equivalent (the paper's
    Section 1 argument for via-patterned heterogeneity)."""
    from ..core.vias import granularity_cost_comparison

    lines = ["Via-programmability cost per PLB:"]
    for name, stats in granularity_cost_comparison().items():
        lines.append(
            f"  {name:9s} sites={stats['potential_sites']:5.0f} "
            f"via_area={stats['via_site_area_um2']:6.1f} um^2 "
            f"({stats['site_area_fraction']:.1%} of PLB), "
            f"SRAM equiv={stats['sram_equivalent_area_um2']:7.1f} um^2 "
            f"({stats['sram_area_fraction']:.1f}x PLB)"
        )
    return "\n".join(lines)


def format_vias(matrix: Matrix) -> str:
    """The via costs, then configured-via use per matrix cell."""
    from ..core.vias import design_via_stats
    from .flow import architecture_of

    lines = [format_via_costs()]
    for (design, arch), run in sorted(matrix.runs.items()):
        stats = design_via_stats(
            run.physical.netlist, architecture_of(arch),
            run.flow_b.plbs_used, design=design,
        )
        lines.append(
            f"  {design:12s} {arch:9s} configured={stats.configured_vias:6d} "
            f"of {stats.potential_sites:6d} sites "
            f"({stats.utilization:.1%})"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The paper's claims, each with a verdict computed from its direction
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """One claim of the paper against its measured value."""

    id: str
    statement: str
    paper: str
    measured: str
    holds: bool

    @property
    def verdict(self) -> str:
        return "reproduced" if self.holds else "not reproduced"


def _largest(values: Dict[str, float], name: str) -> Tuple[str, bool]:
    """``name``'s value, and whether it is the largest of ``values``."""
    best = max(values, key=values.__getitem__)
    text = f"{name} {values[name]:.1%}"
    if best == name:
        return text + " (largest)", True
    return f"{text}; {best} {values[best]:.1%} is larger", False


def table1_claims(table: Table1) -> List[Claim]:
    wins = {name: row.granular_reduction for name, row in table.rows.items()}
    fpu_text, fpu_largest = _largest(wins, "fpu")
    return [
        Claim("T1-a", "datapath die-area reduction (avg of ALU/FPU/switch)",
              "~32%", f"{table.datapath_average_reduction:.1%}",
              table.datapath_average_reduction > 0),
        Claim("T1-b", "FPU is the largest reduction", "up to ~40%",
              fpu_text, fpu_largest),
        Claim("T1-c", "Firewire inverts (granular larger)", "negative",
              f"{table.firewire_reduction:.1%}", table.firewire_reduction < 0),
        Claim("T1-d", "packing overhead (flow b - flow a) saved by granular, "
                      "datapath designs",
              "~48% avg, up to 88.6%",
              f"{table.datapath_overhead_reduction:.1%}",
              table.datapath_overhead_reduction > 0),
    ]


def table2_claims(table: Table2) -> List[Claim]:
    gains = {name: row.slack_improvement for name, row in table.rows.items()}
    fpu_text, fpu_largest = _largest(gains, "fpu")
    return [
        Claim("T2-a", "average slack improvement", "~18%",
              f"{table.average_slack_improvement:.1%}",
              table.average_slack_improvement > 0),
        Claim("T2-a'", "FPU improves the most", "up to ~40%",
              fpu_text, fpu_largest),
        Claim("T2-b", "less a->b performance degradation with granular",
              "~68%", f"{table.degradation_reduction:.1%}",
              table.degradation_reduction > 0),
    ]


def compaction_claims(summary: CompactionSummary) -> List[Claim]:
    return [
        Claim("C-a", "compaction reduces total gate area", "~15% average",
              f"{summary.average:.1%} average", summary.average > 0),
    ]


def section2_claims(fig2: Figure2Data) -> List[Claim]:
    """Section 2's counts, by exhaustive enumeration."""
    from ..core.adder import granular_full_adder, lut_full_adder
    from ..core.configs import coverage_summary, granular_configs
    from ..core.lut_decompose import decompose_lut3
    from ..core.plb import granular_plb, lut_plb
    from ..logic.truthtable import all_functions
    from ..pack.resources import min_plbs

    categories = " + ".join(map(str, fig2.category_counts.values()))
    lut_splits = sum(decompose_lut3(table).evaluate() == table
                     for table in all_functions(3))
    coverage = ", ".join(f"{n} {c}" for n, c in coverage_summary().items())
    union = len(frozenset().union(*(c.functions for c in granular_configs())))
    adder = (min_plbs(granular_plb(), granular_full_adder()),
             min_plbs(lut_plb(), lut_full_adder()))
    return [
        Claim("F2", "S3-feasible 3-input functions; the rest in 5 categories",
              "196; 5 categories",
              f"{fig2.s3_feasible}; {categories} = {fig2.s3_infeasible}",
              fig2.s3_feasible == 196 and len(fig2.category_counts) == 5),
        Claim("F3", "modified S3 covers every 3-input function", "all 256",
              f"{fig2.modified_s3_coverage}",
              fig2.modified_s3_coverage == 256),
        Claim("F5", "a 3-LUT is three re-arranged 2:1 MUXes",
              "all 256 configurations", f"{lut_splits} of 256",
              lut_splits == 256),
        Claim("S2.3", "granular configurations need no LUT",
              "MX/ND3/NDMX/XOAMX/XOANDMX cover all 256",
              f"{coverage}; union {union}", union == 256),
        Claim("S2.2", "full adder: PLBs needed, granular vs LUT", "1 vs 2",
              f"{adder[0]} vs {adder[1]}", adder == (1, 2)),
    ]


def claims_block(report, claims: Callable[..., List[Claim]]) -> str:
    """A generated EXPERIMENTS.md block: ``report`` as fixed-width text,
    then ``claims(report)`` as a markdown table."""
    rows = [f"| {c.id}: {c.statement} | {c.paper} | **{c.measured}** "
            f"| {c.verdict} |" for c in claims(report)]
    return "\n".join([
        "```", report.format(), "```", "",
        "| claim | paper | measured | verdict |", "|---|---|---|---|",
        *rows,
    ])


# ----------------------------------------------------------------------
# Generated artifacts: `repro results`
# ----------------------------------------------------------------------

class Runs:
    """The evaluation matrices one generation shares, each run on first
    use.  Everything else an artifact needs comes from the stage cache."""

    def __init__(self) -> None:
        self._matrices: Dict[Setting, Matrix] = {}

    def matrix(self, setting: Setting) -> Matrix:
        if setting not in self._matrices:
            self._matrices[setting] = run_matrix(
                setting.options(), scale=setting.scale
            )
        return self._matrices[setting]


def _fullscale(runs: Runs) -> str:
    matrix = runs.matrix(FULL)
    return "\n\n".join([
        run_table1(matrix).format(),
        run_table2(matrix).format(),
        run_compaction_summary(matrix).format(),
        run_figure2().format(),
    ])


#: Every generated artifact: a path under the repository root, or
#: ``EXPERIMENTS.md#<block>`` for a generated block of EXPERIMENTS.md,
#: paired with its setting (None for exact enumeration) and the function
#: that renders its body from a :class:`Runs`.
ARTIFACTS: Dict[str, Tuple[Optional[Setting], Callable[[Runs], str]]] = {
    "results/table1_area.txt": (
        BENCH, lambda runs: run_table1(runs.matrix(BENCH)).format()),
    "results/table2_timing.txt": (
        BENCH, lambda runs: run_table2(runs.matrix(BENCH)).format()),
    "results/compaction.txt": (
        BENCH,
        lambda runs: run_compaction_summary(runs.matrix(BENCH)).format()),
    "results/power.txt": (
        BENCH, lambda runs: run_power(runs.matrix(BENCH)).format()),
    "results/vias.txt": (
        BENCH, lambda runs: format_vias(runs.matrix(BENCH))),
    "results/ablation_compaction.txt": (
        ABLATION, lambda runs: run_compaction_ablation().format()),
    "results/ablation_routing.txt": (
        ABLATION, lambda runs: run_routing_sweep().format()),
    "results/domain_specific.txt": (
        ABLATION, lambda runs: run_domain_exploration().format()),
    "results/ablation_granularity.txt": (
        None, lambda runs: format_granularity_ranking()),
    "results/figure2_s3.txt": (None, lambda runs: run_figure2().format()),
    "results_fullscale.txt": (FULL, _fullscale),
    "EXPERIMENTS.md#table1": (FULL, lambda runs: claims_block(
        run_table1(runs.matrix(FULL)), table1_claims)),
    "EXPERIMENTS.md#table2": (FULL, lambda runs: claims_block(
        run_table2(runs.matrix(FULL)), table2_claims)),
    "EXPERIMENTS.md#compaction": (FULL, lambda runs: claims_block(
        run_compaction_summary(runs.matrix(FULL)), compaction_claims)),
    "EXPERIMENTS.md#section2": (
        None, lambda runs: claims_block(run_figure2(), section2_claims)),
}


def artifact_header(setting: Optional[Setting]) -> str:
    """The parameters line every generated artifact starts with."""
    how = ("from exact enumeration (no scale, seed or effort)"
           if setting is None else f"at {setting.header()}")
    return f"generated by `repro results` {how}"


def render_artifact(key: str, runs: Runs) -> str:
    """One plain artifact's full text: its header line, then its body."""
    setting, render = ARTIFACTS[key]
    return f"# {artifact_header(setting)}\n{render(runs)}\n"


def splice_block(text: str, name: str, body: str,
                 setting: Optional[Setting]) -> str:
    """Replace generated block ``name`` of a markdown document."""
    pattern = re.compile(
        rf"<!-- {re.escape(name)}: .*?-->\n.*?<!-- end {re.escape(name)} -->",
        re.S,
    )
    block = (f"<!-- {name}: {artifact_header(setting)} -->\n{body}\n"
             f"<!-- end {name} -->")
    new, count = pattern.subn(lambda _m: block, text)
    if count != 1:
        raise ValueError(f"expected one generated block {name!r}, "
                         f"found {count}")
    return new


def write_results(root: Path) -> List[str]:
    """Regenerate every artifact of :data:`ARTIFACTS` under ``root``.

    Returns the artifact keys in the order written.
    """
    runs = Runs()
    for key, (setting, render) in ARTIFACTS.items():
        path, _, block = key.partition("#")
        target = root / path
        if block:
            text = splice_block(target.read_text(encoding="utf-8"), block,
                                render(runs), setting)
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            text = render_artifact(key, runs)
        target.write_text(text, encoding="utf-8")
    return list(ARTIFACTS)
