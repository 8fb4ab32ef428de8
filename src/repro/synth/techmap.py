"""Technology mapping onto the restricted PLB component libraries.

This is the Design Compiler role of the paper's flow (Figure 6): cover the
optimized AIG with K=3 cuts, realize each selected cut with the *baseline*
component structures of the target architecture, and rebuild a sequential
netlist (re-attaching DFFs and primary-port names).

The mapper is area-flow driven with tree-restricted cuts (cuts do not
cross multi-fanout nodes), which mirrors the tree-covering behaviour of a
conventional mapper; the paper's FlowMap-based logic compaction
(:mod:`repro.synth.compaction`) then collapses logic across those
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cells.celltypes import make_dff
from ..cells.library import Library
from ..logic.truthtable import TruthTable
from ..netlist.build import _const_cell
from ..netlist.core import Netlist
from .aig import lit_inverted, lit_node
from .cuts import Cut, cut_function, enumerate_cuts, fanout_counts
from .from_netlist import CombCore, DFF_OUTPUT_PREFIX
from .realize import Realization, baseline_table, compaction_table, memoized_lookup


@dataclass
class _Choice:
    cut: Cut
    realization: Realization
    area_flow: float
    depth: int


class TechmapError(RuntimeError):
    """Raised when a node cannot be realized in the target library."""


def _cell_by_name(library: Library, name: str):
    if name in library:
        return library.cell(name)
    raise TechmapError(f"realization uses cell {name!r} absent from {library.name!r}")


def map_core(
    core: CombCore,
    arch: str,
    library: Library,
    use_compaction_structures: bool = False,
    k: Optional[int] = None,
) -> Netlist:
    """Map a combinational core onto ``library`` for architecture ``arch``.

    Returns a complete sequential netlist with the original port and
    register boundaries.

    The default (baseline) mode models the conventional-mapper role of the
    paper's flow: delay-first covering with *tree-restricted* cuts (cuts
    never cross multi-fanout nodes, as in conventional tree covering) and
    only the baseline single-cell / two-NAND structures.  The paper's
    FlowMap-based logic compaction then collapses supernodes across those
    boundaries and into the composite PLB configurations.

    ``use_compaction_structures`` instead maps directly with unrestricted
    cuts and the full structure table (used by tests and the compaction
    ablation).
    """
    aig = core.aig
    # Realization structures follow the *library* contents, so custom
    # architectures (the paper's future-work exploration) map natively.
    table = (
        compaction_table(library)
        if use_compaction_structures
        else baseline_table(library)
    )
    if k is None:
        k = 3
    cuts = enumerate_cuts(aig, k=k, tree_mode=not use_compaction_structures)
    fanouts = fanout_counts(aig)
    find = memoized_lookup(table)

    choices: Dict[int, _Choice] = {}
    for node in aig.and_nodes():
        best: Optional[_Choice] = None
        for cut in cuts[node]:
            if len(cut) == 1 and cut[0] == node:
                continue  # trivial cut realizes nothing
            if 0 in cut:
                continue  # constant leaves are folded by construction
            function = cut_function(aig, node, cut)
            realization = find(function.n_inputs, function.mask)
            if realization is None:
                continue
            flow = realization.area
            depth = 0
            for leaf in cut:
                if leaf in choices:
                    flow += choices[leaf].area_flow / max(1, fanouts.get(leaf, 1))
                    depth = max(depth, choices[leaf].depth)
            depth += realization.levels
            candidate = _Choice(cut, realization, flow, depth)
            # Delay-oriented choice (the paper's flow runs against a 0.5 ns
            # cycle target, so the Design Compiler role maps depth-first);
            # logic compaction recovers area afterwards.
            if best is None or (candidate.depth, candidate.area_flow) < (
                best.depth, best.area_flow
            ):
                best = candidate
        if best is None:
            raise TechmapError(
                f"node {node} has no realizable cut in architecture {arch!r}"
            )
        choices[node] = best

    return _build_netlist(core, library, choices)


def _build_netlist(
    core: CombCore,
    library: Library,
    choices: Dict[int, _Choice],
) -> Netlist:
    aig = core.aig
    netlist = Netlist(aig.name)
    net_of: Dict[int, str] = {}
    inv_of: Dict[int, str] = {}
    inv_cell = _cell_by_name(library, "INV")
    inv_table = ~TruthTable.input_var(1, 0)

    for name in core.primary_inputs:
        netlist.add_input(name)
        # AIG input node ids follow insertion order: PIs then DFF Qs.
    # Recover input node ids by name.
    input_node_by_name = {name: i + 1 for i, name in enumerate(aig.input_names)}
    for name in core.primary_inputs:
        net_of[input_node_by_name[name]] = name

    # DFF instances come first so their Q nets exist for combinational use.
    for record in core.dffs:
        q_net = netlist.add_net(record.q_net)
        net_of[input_node_by_name[record.q_net]] = q_net
    dff_cell = make_dff() if "DFF" not in library else library.cell("DFF")

    def realize_node(node: int) -> str:
        if node in net_of:
            return net_of[node]
        choice = choices[node]
        leaf_nets = [realize_node(leaf) for leaf in choice.cut]
        step_nets: List[str] = []
        for step in choice.realization.steps:
            cell = _cell_by_name(library, step.cell_name)
            pin_nets = {}
            for pin, (kind, index) in zip(cell.pins, step.refs):
                pin_nets[pin] = leaf_nets[index] if kind == "leaf" else step_nets[index]
            inst = netlist.add_instance(cell, pin_nets, config=step.config)
            step_nets.append(inst.output_net)
        net_of[node] = step_nets[-1]
        return net_of[node]

    def literal_net(literal: int) -> str:
        node = lit_node(literal)
        if node == 0:
            base = None
        else:
            base = realize_node(node)
        if not lit_inverted(literal):
            if base is None:
                return _constant_net(netlist, library, False)
            return base
        if base is None:
            return _constant_net(netlist, library, True)
        if node not in inv_of:
            inst = netlist.add_instance(inv_cell, {"A": base}, config=inv_table)
            inv_of[node] = inst.output_net
        return inv_of[node]

    # Realize all outputs (primary + DFF data).
    output_net_of: Dict[str, str] = {}
    for name, literal in aig.outputs:
        output_net_of[name] = literal_net(literal)

    # Attach registers.
    for record in core.dffs:
        d_net = output_net_of[DFF_OUTPUT_PREFIX + record.name]
        netlist.add_instance(
            dff_cell, {"D": d_net, "Q": record.q_net}, name=record.name
        )

    # Give primary outputs their required names.
    buf_cell = _cell_by_name(library, "BUF")
    buf_table = TruthTable.input_var(1, 0)
    for name in core.primary_outputs:
        net = output_net_of[name]
        if net == name:
            netlist.add_output(name)
            continue
        if (
            name not in netlist.nets
            and not netlist.nets[net].is_input
            and net not in netlist.outputs
            and net not in core.primary_outputs
            and sum(1 for other in core.primary_outputs if output_net_of[other] == net) == 1
        ):
            netlist.rename_net(net, name)
            netlist.add_output(name)
        else:
            inst = netlist.add_instance(
                buf_cell, {"A": net, "Y": name}, config=buf_table
            )
            netlist.add_output(inst.output_net)

    return netlist


def _constant_net(netlist: Netlist, library: Library, value: bool) -> str:
    """A constant net, synthesized from the first primary input."""
    if not netlist.inputs:
        raise TechmapError("cannot synthesize a constant with no inputs")
    cell = _const_cell(value)
    config = TruthTable(1, 0b11 if value else 0b00)
    inst = netlist.add_instance(cell, {"A": netlist.inputs[0]}, config=config)
    return inst.output_net
