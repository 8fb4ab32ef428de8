"""K-feasible cut enumeration on the AIG.

A *cut* of node ``v`` is a set of nodes (leaves) such that every path from
the inputs to ``v`` passes through a leaf; it is K-feasible when it has at
most K leaves.  Cuts are enumerated bottom-up by merging fanin cut sets,
with dominated-cut pruning (a cut is dominated if a subset of it is also a
cut) and a per-node cap.

``tree_mode`` restricts enumeration to fanout-free regions: a fanin with
external fanout contributes only its trivial cut, which reproduces the
tree-boundary behaviour of a conventional (Design Compiler-style) mapper —
the behaviour the paper's FlowMap-based compaction then improves on.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..logic.truthtable import TruthTable, _var_mask
from ..obs import core as _obs
from .aig import AIG, lit_inverted, lit_node

Cut = Tuple[int, ...]  # sorted leaf node ids

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


def _merge(a: Cut, b: Cut, k: int) -> Cut | None:
    merged = tuple(sorted(set(a) | set(b)))
    return merged if len(merged) <= k else None


def _prune(cuts: List[Cut], cap: int) -> List[Cut]:
    """Remove dominated cuts, keep at most ``cap`` (smallest first)."""
    cuts = sorted(set(cuts), key=lambda c: (len(c), c))
    kept: List[Cut] = []
    for cut in cuts:
        cut_set = set(cut)
        if any(set(existing) <= cut_set for existing in kept):
            continue
        kept.append(cut)
        if len(kept) >= cap:
            break
    return kept


def enumerate_cuts(
    aig: AIG,
    k: int = 3,
    cap: int = DEFAULT_CUT_CAP,
    tree_mode: bool = False,
) -> Dict[int, List[Cut]]:
    """All K-feasible cuts per node (including the trivial cut)."""
    fanouts = fanout_counts(aig) if tree_mode else {}
    cuts: Dict[int, List[Cut]] = {0: [(0,)]}
    for node in range(1, aig.n_inputs + 1):
        cuts[node] = [(node,)]
    for node in aig.and_nodes():
        f0, f1 = aig.fanins(node)
        n0, n1 = lit_node(f0), lit_node(f1)
        if tree_mode and fanouts.get(n0, 0) > 1:
            set0: Sequence[Cut] = [(n0,)]
        else:
            set0 = cuts[n0]
        if tree_mode and fanouts.get(n1, 0) > 1:
            set1: Sequence[Cut] = [(n1,)]
        else:
            set1 = cuts[n1]
        merged: List[Cut] = []
        for c0 in set0:
            for c1 in set1:
                candidate = _merge(c0, c1, k)
                if candidate is not None:
                    merged.append(candidate)
        merged.append((node,))
        cuts[node] = _prune(merged, cap)
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
