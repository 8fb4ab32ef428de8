"""Regularity-driven logic compaction (paper Section 3.1).

"Technology-mapping is followed by a compaction algorithm that reduces the
area of the netlist by better utilizing the given PLB architecture.  Our
algorithm first finds clusters of logic or supernodes corresponding to
functions with 3 or less than 3 inputs.  This is done using a maxflow-
mincut algorithm similar to Flowmap [5].  It then matches these computed
supernodes to the appropriate combination of PLB components."

Implementation
--------------
1. FlowMap (K=3) runs over the mapped component netlist's net graph (each
   combinational output net with its driver's distinct input nets),
   giving every instance a min-height 3-feasible cut (its *supernode*);
   the cuts :func:`~repro.synth.cuts.merge_cuts` enumerates over the same
   nets are the other candidates.
2. Supernodes are visited outputs-first.  A supernode is *collapsed* when
   the best-matching PLB component structure (ND3 / MX / NDMX / XOAMX /
   XOANDMX / LUT3 / ...) is smaller than the cells it replaces — counting
   only cells used exclusively inside the supernode, so sharing is never
   broken and total area monotonically decreases.
3. The accepted cover is rebuilt into a fresh netlist; equivalence is
   guaranteed by construction (cluster functions are exact truth tables)
   and re-checked by the test suite via simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..cells.library import Library
from ..logic.truthtable import TruthTable, _var_mask
from ..netlist.core import Netlist
from ..netlist.stats import total_area
from ..obs import core as _obs
from .cuts import Option, merge_cuts
from .flowmap import FlowMap
from .realize import Realization, compaction_table, memoized_lookup


@dataclass
class CompactionReport:
    """Outcome of one compaction run."""

    applied: bool
    area_before: float
    area_after: float
    supernodes_collapsed: int
    structure_histogram: Dict[str, int]

    @property
    def reduction(self) -> float:
        """Fractional gate-area reduction (the paper's ~15% metric)."""
        if self.area_before == 0:
            return 0.0
        return 1.0 - self.area_after / self.area_before


class _Driver(NamedTuple):
    """A combinational instance as the candidate walks see it."""

    name: str
    inputs: Tuple[str, ...]  # input nets in pin order, repeats kept
    config: int  # truth-table mask of the configuration over ``inputs``


class _Cones:
    """Candidate-cone walks over one compaction pass's netlist.

    ``drivers`` maps each combinational output net to its driver.
    ``visited`` counts the driver nodes the walks entered; the few
    hundred distinct configuration compositions a pass meets are
    memoized.
    """

    def __init__(self, drivers: Dict[str, _Driver]):
        self.drivers = drivers
        self.visited = 0
        self.composed: Dict[Tuple[int, ...], int] = {}

    def walk(
        self, root_net: str, leaf_nets: Sequence[str]
    ) -> Optional[Tuple[Dict[str, str], int]]:
        """Interior and function of the cone from ``leaf_nets`` to ``root_net``.

        One walk down from the root's driver composes each driver's
        configuration over its fanins' masks, leaf ``i`` being the
        projection on input ``i``.  Returns the instances strictly
        between the cut and the root (root excluded), each with its
        output net, and the root's truth-table mask over ``leaf_nets``;
        or ``None`` when the cone escapes the cut through a primary
        input or register output.
        """
        n = len(leaf_nets)
        full = (1 << (1 << n)) - 1
        masks = {net: _var_mask(n, i) for i, net in enumerate(leaf_nets)}
        drivers, composed = self.drivers, self.composed
        entered: Dict[str, str] = {}

        def mask_of(net: str) -> Optional[int]:
            mask = masks.get(net)
            if mask is not None:
                return mask
            driver = drivers.get(net)
            if driver is None:
                return None
            name, inputs, config = driver
            entered[name] = net
            subs = []
            for input_net in inputs:
                sub = mask_of(input_net)
                if sub is None:
                    return None
                subs.append(sub)
            key = (config, full, *subs)
            mask = composed.get(key)
            if mask is None:
                mask = composed[key] = _compose(config, subs, full)
            masks[net] = mask
            return mask

        mask = mask_of(root_net)
        self.visited += len(entered)
        if mask is None:
            return None
        del entered[drivers[root_net].name]
        return entered, mask


def _compose(config: int, subs: Sequence[int], full: int) -> int:
    """Mask of truth table ``config`` with input ``i`` replaced by ``subs[i]``."""
    # products[j]: rows where every input i takes bit i of j
    products = [full]
    for sub in subs:
        inverse = full ^ sub
        products = [p & inverse for p in products] + [p & sub for p in products]
    mask = 0
    for row, product in enumerate(products):
        if config >> row & 1:
            mask |= product
    return mask


def _exclusive_members(
    netlist: Netlist,
    root: str,
    interior: Dict[str, str],
    outputs: Set[str],
    consumed: Set[str],
) -> Set[str]:
    """Interior instances replaceable without breaking external sharing.

    ``interior`` maps each interior instance to its output net.  An
    interior instance is exclusive when every sink of its output net is
    inside the supernode and its net is not an external contract (primary
    output or register data pin).  Exclusivity is computed transitively,
    output-side first: an interior node whose only outside-sink is another
    non-exclusive interior node remains non-exclusive.
    """
    exclusive = {
        name: net
        for name, net in interior.items()
        if name not in consumed and net not in outputs
    }
    # Demote to a fixed point: a member stays exclusive only while every
    # sink of its output either is the (replaced) root, another exclusive
    # member, or an instance already consumed by an earlier supernode.
    nets = netlist.nets
    changed = True
    while changed:
        changed = False
        for name, net in list(exclusive.items()):
            for sink, _pin in nets[net].sinks:
                if sink != root and sink not in exclusive and sink not in consumed:
                    del exclusive[name]
                    changed = True
                    break
    return set(exclusive)


def _enumerate_net_cuts(
    drivers: Dict[str, _Driver], k: int = 3, cap: int = 16
) -> Dict[str, List[Tuple[str, ...]]]:
    """K-feasible cuts (as sorted net tuples) per combinational output net.

    ``drivers`` holds the combinational instances in topological order.
    Each net gets its leaf bit on first use.  A net offers later merges
    its kept cuts and then its trivial cut, which does not count against
    the cap; a source net (primary input, register output) offers only
    its trivial cut.
    """
    leaves_of: Dict[int, Tuple[str, ...]] = {}
    options_of: Dict[str, List[Option]] = {}

    def options(net: str) -> List[Option]:
        found = options_of.get(net)
        if found is None:
            found = options_of[net] = [((net,), 1 << len(options_of))]
        return found

    cuts: Dict[str, List[Tuple[str, ...]]] = {}
    for net, driver in drivers.items():
        kept = merge_cuts(
            [options(in_net) for in_net in dict.fromkeys(driver.inputs)],
            k, cap, leaves_of,
        )
        cuts[net] = [cut for cut, _mask in kept]
        options_of[net] = [*kept, ((net,), 1 << len(options_of))]
    return cuts


def compact(
    netlist: Netlist,
    library: Library,
    k: int = 3,
) -> Tuple[Netlist, CompactionReport]:
    """Run logic compaction; returns (netlist, report).

    The returned netlist is the compacted one when it improves total gate
    area, otherwise the input netlist unchanged (``report.applied`` says
    which).
    """
    area_before = total_area(netlist)
    table = compaction_table(library)
    outputs = set(netlist.outputs)
    order = netlist.topological_order()
    drivers = {
        inst.output_net: _Driver(inst.name, inst.input_nets(), inst.config.mask)
        for inst in order
    }
    flow_cuts = FlowMap({
        net: tuple(dict.fromkeys(driver.inputs))
        for net, driver in drivers.items()
    }, k=k).compute().cuts
    cones = _Cones(drivers)
    net_cuts = _enumerate_net_cuts(drivers, k=k)
    find = memoized_lookup(table)
    accepted: Dict[str, Tuple[Tuple[str, ...], Realization]] = {}
    consumed: Set[str] = set()
    histogram: Dict[str, int] = {}

    for inst in reversed(order):
        if inst.name in consumed:
            continue
        root_net = inst.output_net
        candidates: List[Tuple[str, ...]] = []
        cut = flow_cuts[root_net]
        if cut != {root_net}:  # an instance without inputs is a source
            candidates.append(tuple(sorted(cut)))
        for enumerated in net_cuts[root_net]:
            if enumerated not in candidates:
                candidates.append(enumerated)

        best: Optional[Tuple[float, Tuple[str, ...], Realization]] = None
        for cut_nets in candidates:
            cone = cones.walk(root_net, cut_nets)
            if cone is None:
                continue
            interior, mask = cone
            realization = find(len(cut_nets), mask)
            if realization is None:
                continue
            exclusive = _exclusive_members(
                netlist, inst.name, interior, outputs, consumed
            )
            replaced_area = inst.cell.area + sum(
                netlist.instances[name].cell.area for name in exclusive
            )
            gain = replaced_area - realization.area
            if gain <= 0:
                continue
            if best is None or gain > best[0]:
                best = (gain, cut_nets, realization, exclusive)  # type: ignore[assignment]
        if best is None:
            continue
        _gain, cut_nets, realization, exclusive = best  # type: ignore[misc]
        accepted[inst.name] = (cut_nets, realization)
        consumed |= exclusive
        histogram[realization.structure] = histogram.get(realization.structure, 0) + 1
    _obs.counter("synth.compact.cone_nodes", cones.visited)

    if not accepted:
        return netlist, CompactionReport(
            applied=False,
            area_before=area_before,
            area_after=area_before,
            supernodes_collapsed=0,
            structure_histogram={},
        )

    compacted = _rebuild(netlist, library, accepted)
    compacted.sweep_dangling()
    area_after = total_area(compacted)
    if area_after >= area_before:
        return netlist, CompactionReport(
            applied=False,
            area_before=area_before,
            area_after=area_before,
            supernodes_collapsed=0,
            structure_histogram={},
        )
    return compacted, CompactionReport(
        applied=True,
        area_before=area_before,
        area_after=area_after,
        supernodes_collapsed=len(accepted),
        structure_histogram=histogram,
    )


def compact_to_fixpoint(
    netlist: Netlist,
    library: Library,
    k: int = 3,
    max_passes: int = 3,
) -> Tuple[Netlist, CompactionReport]:
    """Iterate :func:`compact` until no further area improves.

    Each pass exposes new supernodes (collapsed structures become single
    instances that later clusters can absorb).  Returns the aggregate
    report over all applied passes.
    """
    area_before = total_area(netlist)
    collapsed = 0
    histogram: Dict[str, int] = {}
    applied_any = False
    for _ in range(max(1, max_passes)):
        netlist, report = compact(netlist, library, k=k)
        if not report.applied:
            break
        applied_any = True
        collapsed += report.supernodes_collapsed
        for key, value in report.structure_histogram.items():
            histogram[key] = histogram.get(key, 0) + value
    area_after = total_area(netlist)
    return netlist, CompactionReport(
        applied=applied_any,
        area_before=area_before,
        area_after=area_after if applied_any else area_before,
        supernodes_collapsed=collapsed,
        structure_histogram=histogram,
    )


def _rebuild(
    netlist: Netlist,
    library: Library,
    accepted: Dict[str, Tuple[Tuple[str, ...], Realization]],
) -> Netlist:
    """Materialize the accepted supernodes into a fresh netlist."""
    rebuilt = Netlist(netlist.name)
    new_net: Dict[str, str] = {}

    for name in netlist.inputs:
        new_net[name] = rebuilt.add_input(name)
    for dff in netlist.sequential_instances():
        new_net[dff.output_net] = rebuilt.add_net(dff.output_net)

    def realize_net(old_net: str) -> str:
        if old_net in new_net:
            return new_net[old_net]
        driver = netlist.driver_of(old_net)
        assert driver is not None and not driver.is_sequential, old_net
        if driver.name in accepted:
            cut_nets, realization = accepted[driver.name]
            leaf_nets = [realize_net(n) for n in cut_nets]
            step_nets: List[str] = []
            for step in realization.steps:
                cell = library.cell(step.cell_name)
                pin_nets = {}
                for pin, (kind, index) in zip(cell.pins, step.refs):
                    pin_nets[pin] = (
                        leaf_nets[index] if kind == "leaf" else step_nets[index]
                    )
                inst = rebuilt.add_instance(cell, pin_nets, config=step.config)
                step_nets.append(inst.output_net)
            new_net[old_net] = step_nets[-1]
        else:
            pin_nets = {
                pin: realize_net(driver.pin_nets[pin]) for pin in driver.cell.pins
            }
            inst = rebuilt.add_instance(driver.cell, pin_nets, config=driver.config)
            new_net[old_net] = inst.output_net
        return new_net[old_net]

    for dff in netlist.sequential_instances():
        d_net = realize_net(dff.pin_nets["D"])
        rebuilt.add_instance(
            dff.cell, {"D": d_net, "Q": new_net[dff.output_net]}, name=dff.name
        )

    buf_cell = library.cell("BUF")
    identity = TruthTable.input_var(1, 0)
    claimed: Set[str] = set()
    for name in netlist.outputs:
        net = realize_net(name)
        if net == name:
            rebuilt.add_output(name)
            claimed.add(net)
            continue
        if (
            name not in rebuilt.nets
            and not rebuilt.nets[net].is_input
            and net not in claimed
        ):
            rebuilt.rename_net(net, name)
            _retarget(new_net, net, name)
            rebuilt.add_output(name)
            claimed.add(name)
        else:
            inst = rebuilt.add_instance(buf_cell, {"A": net, "Y": name}, config=identity)
            rebuilt.add_output(inst.output_net)
            claimed.add(name)

    return rebuilt


def _retarget(mapping: Dict[str, str], old_value: str, new_value: str) -> None:
    for key, value in mapping.items():
        if value == old_value:
            mapping[key] = new_value
