"""Exact work counts of the flow's kernels, pinned per cell.

Each inner-loop kernel records the work it did as an obs counter, kept
in a local int (or read from state the kernel already has) and written
with one ``counter`` call per kernel call, so untraced runs pay nothing
per iteration:

============================  ============================================
``synth.balance.levelled``    nodes ``balance`` levelled (memo length)
``synth.cuts``                cuts ``enumerate_cuts`` returned
``synth.flowmap.cone_nodes``  nodes FlowMap collected into cut cones
``synth.flowmap.searches``    FlowMap augmenting-path searches
``synth.compact.cone_nodes``  driver nodes compaction's candidate walks
                              entered (one walk per candidate cut)
``sa.evaluated``              SA moves whose cost delta was computed
``sa.accepted``               SA moves committed
``sa.net_scans``              nets shared by the two cells of a swap
``route.heap_pushes``         PathFinder A* heap pushes
``pathfinder.iterations``     PathFinder negotiation iterations
``pack.spills``               cells quadrisection spilled to a neighbour
============================  ============================================

The counts are exact for a given (design, options) on every platform,
so this test pins them where a wall-time bound could not: a kernel that
silently falls back to a slower algorithm (a cone walk per sort key in
``balance``, a dict-of-dicts FlowMap network, a rescanned SA bounding
box, a second cone walk per compaction candidate) changes its counts,
while its run time on a shared host may move by less than the noise.

Updating: when a change is *meant* to alter the work a kernel does,
paste the observed vector from the failure message into ``EXPECTED``
and say why in CHANGES.md.
"""

import json
from dataclasses import replace
from typing import Dict, List

import pytest

from repro.flow.cache import NullCache
from repro.flow.experiments import build_design, default_options
from repro.flow.flow import run_design, synthesize
from repro.obs import core as obs
from repro.obs import export

WORK_COUNTERS = (
    "synth.balance.levelled",
    "synth.cuts",
    "synth.flowmap.cone_nodes",
    "synth.flowmap.searches",
    "synth.compact.cone_nodes",
    "sa.evaluated",
    "sa.accepted",
    "sa.net_scans",
    "route.heap_pushes",
    "pathfinder.iterations",
    "pack.spills",
)

#: The tables' own settings (seed 7, place effort 0.2), no stage cache.
OPTIONS = replace(default_options(), use_cache=False)

#: cell id -> (design, arch, scale, whole flow or synthesis only)
CELLS = {
    "alu/granular@0.3": ("alu", "granular", 0.3, "flow"),
    "alu/lut@0.3": ("alu", "lut", 0.3, "flow"),
    "fpu/granular@0.5:synthesis": ("fpu", "granular", 0.5, "synthesis"),
}

EXPECTED = {
    "alu/granular@0.3": {
        "synth.balance.levelled": 451,
        "synth.cuts": 1300,
        "synth.flowmap.cone_nodes": 9106,
        "synth.flowmap.searches": 1589,
        "synth.compact.cone_nodes": 2388,
        "sa.evaluated": 29591,
        "sa.accepted": 14001,
        "sa.net_scans": 1759,
        "route.heap_pushes": 12451,
        "pathfinder.iterations": 2,
        "pack.spills": 0,
    },
    "alu/lut@0.3": {
        "synth.balance.levelled": 451,
        "synth.cuts": 1300,
        "synth.flowmap.cone_nodes": 6807,
        "synth.flowmap.searches": 1130,
        "synth.compact.cone_nodes": 1131,
        "sa.evaluated": 25377,
        "sa.accepted": 12525,
        "sa.net_scans": 1988,
        "route.heap_pushes": 11228,
        "pathfinder.iterations": 2,
        "pack.spills": 0,
    },
    "fpu/granular@0.5:synthesis": {
        "synth.balance.levelled": 939,
        "synth.cuts": 2601,
        "synth.flowmap.cone_nodes": 91975,
        "synth.flowmap.searches": 4002,
        "synth.compact.cone_nodes": 6484,
        "sa.evaluated": 0,
        "sa.accepted": 0,
        "sa.net_scans": 0,
        "route.heap_pushes": 0,
        "pathfinder.iterations": 0,
        "pack.spills": 0,
    },
}


def work_counts(events: List[Dict]) -> Dict[str, int]:
    """The work-counter vector of a trace (counters summed across pids)."""
    counters = export.merge_counters(events)
    return {name: counters.get(name, 0) for name in WORK_COUNTERS}


def _observe(design: str, arch: str, scale: float, scope: str) -> Dict[str, int]:
    """Run one cold cell traced and return its work-counter vector."""
    netlist = build_design(design, scale)
    obs.begin()
    try:
        if scope == "synthesis":
            synthesize(netlist, OPTIONS.with_arch(arch).stage_slice("synthesis"))
        else:
            run_design(netlist, arch, OPTIONS, cache=NullCache())
    finally:
        events = obs.drain()
    return work_counts(events)


@pytest.mark.parametrize("cell", list(CELLS))
def test_work_counts_are_pinned(cell):
    observed = _observe(*CELLS[cell])
    assert observed == EXPECTED[cell], (
        f"work counts of {cell} changed; if intended, paste this vector "
        f"into EXPECTED and explain it in CHANGES.md:\n"
        f"{json.dumps(observed, indent=4)}"
    )
