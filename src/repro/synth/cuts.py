"""K-feasible cut enumeration on the AIG.

A *cut* of node ``v`` is a set of nodes (leaves) such that every path from
the inputs to ``v`` passes through a leaf; it is K-feasible when it has at
most K leaves.  Cuts are enumerated bottom-up by merging fanin cut sets,
with dominated-cut pruning (a cut is dominated if a subset of it is also a
cut) and a per-node cap.  :func:`merge_cuts` is that merge for both
enumerations, the AIG's here and compaction's over netlist nets: each cut
carries a bitmask of its leaves, so unions, sizes and dominance tests are
integer operations.

``tree_mode`` restricts enumeration to fanout-free regions: a fanin with
external fanout contributes only its trivial cut, which reproduces the
tree-boundary behaviour of a conventional (Design Compiler-style) mapper —
the behaviour the paper's FlowMap-based compaction then improves on.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..logic.truthtable import TruthTable, _var_mask
from ..obs import core as _obs
from .aig import AIG, lit_inverted, lit_node

Cut = Tuple[int, ...]  # sorted leaf node ids
Leaves = Tuple[Any, ...]  # sorted leaves: AIG node ids or net names
Option = Tuple[Leaves, int]  # a cut's leaves and their bitmask

#: Per-node cut cap; K=3 cut sets are small, this is a safety valve.
DEFAULT_CUT_CAP = 24


def fanout_counts(aig: AIG) -> Dict[int, int]:
    """Fanout count per node, counting output references."""
    counts: Dict[int, int] = {}
    for node in aig.and_nodes():
        f0, f1 = aig.fanins(node)
        counts[lit_node(f0)] = counts.get(lit_node(f0), 0) + 1
        counts[lit_node(f1)] = counts.get(lit_node(f1), 0) + 1
    for _, literal in aig.outputs:
        counts[lit_node(literal)] = counts.get(lit_node(literal), 0) + 1
    return counts


def merge_cuts(
    fanin_options: Iterable[Sequence[Option]],
    k: int,
    cap: int,
    leaves_of: Dict[int, Leaves],
    trivial: Optional[Option] = None,
) -> List[Option]:
    """The kept cuts of one node, merged from its fanins' cut options.

    Each fanin offers its cuts as ``(sorted leaves, leaf bitmask)``
    options.  Every union of one option per fanin with at most ``k``
    leaves is a cut of the node; ``leaves_of`` memoizes the sorted leaves
    of each union mask over one enumeration.  Dominated cuts (a kept cut
    is a subset) are dropped and at most ``cap`` are kept, ordered by
    (size, leaves).  ``trivial``, the node's own cut, competes for that
    order and cap when given.
    """
    partial: Dict[int, Leaves] = {0: ()}
    for options in fanin_options:
        nxt: Dict[int, Leaves] = {}
        for base_mask, base in partial.items():
            for option, option_mask in options:
                union = base_mask | option_mask
                if union in nxt or union.bit_count() > k:
                    continue
                found = leaves_of.get(union)
                if found is None:
                    found = leaves_of[union] = tuple(sorted({*base, *option}))
                nxt[union] = found
        partial = nxt
    merged = {leaves: mask for mask, leaves in partial.items() if mask}
    if trivial is not None:
        merged[trivial[0]] = trivial[1]
    kept: List[Option] = []
    for leaves in sorted(sorted(merged), key=len):
        mask = merged[leaves]
        for _leaves, kept_mask in kept:
            if kept_mask & mask == kept_mask:
                break
        else:
            kept.append((leaves, mask))
            if len(kept) >= cap:
                break
    return kept


def enumerate_cuts(
    aig: AIG,
    k: int = 3,
    cap: int = DEFAULT_CUT_CAP,
    tree_mode: bool = False,
) -> Dict[int, List[Cut]]:
    """All K-feasible cuts per node (including the trivial cut).

    Node ``v``'s leaf bit is ``1 << v``.
    """
    fanouts = fanout_counts(aig) if tree_mode else {}
    leaves_of: Dict[int, Leaves] = {}
    options: Dict[int, List[Option]] = {
        node: [((node,), 1 << node)] for node in range(aig.n_inputs + 1)
    }
    for node in aig.and_nodes():
        fanin_options = [
            [((fanin,), 1 << fanin)]
            if tree_mode and fanouts.get(fanin, 0) > 1
            else options[fanin]
            for fanin in map(lit_node, aig.fanins(node))
        ]
        options[node] = merge_cuts(
            fanin_options, k, cap, leaves_of, ((node,), 1 << node)
        )
    cuts = {
        node: [leaves for leaves, _mask in kept]
        for node, kept in options.items()
    }
    if _obs.active():
        _obs.counter("synth.cuts", sum(map(len, cuts.values())))
    return cuts


def cut_function(aig: AIG, node: int, cut: Cut) -> TruthTable:
    """Truth table of ``node`` over the cut leaves (leaf order = ``cut``).

    Every leaf is a projection, even the constant node 0; only node 0
    reached inside the cone evaluates as false.  Both callers
    (``optimize.rewrite_cuts`` and ``techmap.map_core``) skip cuts that
    contain the constant leaf.  AND nodes are evaluated on integer row
    masks; one table is built, for ``node``.
    """
    n = len(cut)
    full = (1 << (1 << n)) - 1
    masks = {leaf: _var_mask(n, i) for i, leaf in enumerate(cut)}
    fanin0, fanin1 = aig.fanin0, aig.fanin1

    def mask_of(current: int) -> int:
        mask = masks.get(current)
        if mask is not None:
            return mask
        if current == 0:
            mask = 0
        elif aig.is_input(current):
            raise ValueError(f"input node {current} escapes cut {cut} of {node}")
        else:
            f0, f1 = fanin0[current], fanin1[current]
            mask0 = mask_of(lit_node(f0))
            if lit_inverted(f0):
                mask0 ^= full
            mask1 = mask_of(lit_node(f1))
            if lit_inverted(f1):
                mask1 ^= full
            mask = mask0 & mask1
        masks[current] = mask
        return mask

    return TruthTable(n, mask_of(node))
