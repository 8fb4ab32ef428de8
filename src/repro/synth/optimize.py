"""AIG optimization (the logic-optimization half of the Design Compiler role).

Construction-time structural hashing and constant folding already give
CSE; this module adds:

* ``cleanup`` — rebuild keeping only logic reachable from the outputs;
* ``balance`` — re-associate AND trees into balanced form (depth);
* ``rewrite_cuts`` — NPN-based local rewriting: re-expresses each 3-cut
  through a freshly synthesized Shannon form and keeps it when it saves
  nodes, a lightweight cousin of ABC's ``rewrite``.

``optimize`` chains them in the usual order.
"""

from __future__ import annotations

from typing import Dict, List

from ..obs import core as _obs
from .aig import AIG, lit_inverted, lit_node
from .cuts import cut_function, enumerate_cuts


def cleanup(aig: AIG) -> AIG:
    """Copy ``aig`` keeping only the output cone (dead logic removed)."""
    fresh = AIG(aig.name)
    mapping: Dict[int, int] = {0: 0}
    for name in aig.input_names:
        mapping[len(mapping)] = lit_node(fresh.add_input(name))

    for node in aig.reachable_from_outputs():
        f0, f1 = aig.fanins(node)
        new0 = 2 * mapping[lit_node(f0)] + (f0 & 1)
        new1 = 2 * mapping[lit_node(f1)] + (f1 & 1)
        mapping[node] = lit_node(fresh.and2(new0, new1))
    for name, literal in aig.outputs:
        fresh.add_output(name, 2 * mapping[lit_node(literal)] + (literal & 1))
    return fresh


def balance(aig: AIG) -> AIG:
    """Re-associate AND trees to reduce depth.

    Maximal same-polarity AND trees are flattened to their leaf literals
    and rebuilt as balanced trees, shallowest-leaves-last, in a fresh AIG.
    """
    fanouts: Dict[int, int] = {}
    for node in aig.and_nodes():
        for f in aig.fanins(node):
            fanouts[lit_node(f)] = fanouts.get(lit_node(f), 0) + 1
    for _, literal in aig.outputs:
        fanouts[lit_node(literal)] = fanouts.get(lit_node(literal), 0) + 1

    fresh = AIG(aig.name)
    mapping: Dict[int, int] = {0: 0}
    for name in aig.input_names:
        mapping[len(mapping)] = lit_node(fresh.add_input(name))
    new_lit_of: Dict[int, int] = {}
    level = _LevelMemo(fresh)

    def tree_leaves(literal: int, is_root: bool) -> List[int]:
        """Leaf literals of the maximal AND tree rooted at ``literal``."""
        node = lit_node(literal)
        if (
            lit_inverted(literal)
            or not aig.is_and(node)
            or (not is_root and fanouts.get(node, 0) > 1)
        ):
            return [literal]
        f0, f1 = aig.fanins(node)
        return tree_leaves(f0, False) + tree_leaves(f1, False)

    def rebuild(literal: int) -> int:
        node = lit_node(literal)
        if node in new_lit_of:
            base = new_lit_of[node]
        elif not aig.is_and(node):
            base = 2 * mapping[node]
        else:
            leaves = tree_leaves(2 * node, True)
            new_leaves = sorted((rebuild(leaf) for leaf in leaves), key=level)
            base = fresh.and_many(new_leaves)
            new_lit_of[node] = base
        return base ^ (literal & 1)

    for name, literal in aig.outputs:
        fresh.add_output(name, rebuild(literal))
    _obs.counter("synth.balance.levelled", len(level.levels))
    return fresh


class _LevelMemo:
    """Logic level of each literal's node in an AIG under construction.

    A built node never changes, so ``level(n) = 1 + max(level(fanins))``
    is computed once per node, on first demand, in id order (fanins
    always have smaller ids).  Inputs and the constant are level 0.
    """

    def __init__(self, aig: AIG):
        self.aig = aig
        self.levels: List[int] = [0] * (aig.n_inputs + 1)

    def __call__(self, literal: int) -> int:
        node = lit_node(literal)
        levels = self.levels
        if node >= len(levels):
            fanin0, fanin1 = self.aig.fanin0, self.aig.fanin1
            for new in range(len(levels), node + 1):
                levels.append(
                    1 + max(levels[fanin0[new] >> 1], levels[fanin1[new] >> 1])
                )
        return levels[node]


def rewrite_cuts(aig: AIG, k: int = 3) -> AIG:
    """Local resynthesis: rebuild each node from its best small cut.

    For every node, the minimum-leaf-count cut's function is re-synthesized
    via the Shannon constructor (which structurally hashes against already
    rebuilt logic); because construction reuses existing nodes, shared
    logic shrinks or stays equal, never grows beyond the original bound.
    """
    cuts = enumerate_cuts(aig, k=k)
    fresh = AIG(aig.name)
    # node -> literal in the fresh AIG (const node 0 -> literal 0).
    mapping: Dict[int, int] = {0: 0}
    for name in aig.input_names:
        node = len(mapping)
        mapping[node] = fresh.add_input(name)

    for node in aig.and_nodes():
        best = None
        for cut in cuts[node]:
            if node in cut or 0 in cut:
                continue
            if best is None or len(cut) < len(best):
                best = cut
        if best is None:
            f0, f1 = aig.fanins(node)
            lit0 = mapping[lit_node(f0)] ^ (f0 & 1)
            lit1 = mapping[lit_node(f1)] ^ (f1 & 1)
            mapping[node] = fresh.and2(lit0, lit1)
            continue
        function = cut_function(aig, node, best)
        leaf_literals = [mapping[leaf] for leaf in best]
        mapping[node] = fresh.from_table(function, leaf_literals)
    for name, literal in aig.outputs:
        fresh.add_output(name, mapping[lit_node(literal)] ^ (literal & 1))
    return cleanup(fresh)


def optimize(aig: AIG, effort: int = 1) -> AIG:
    """Standard optimization chain: cleanup, balance, optional rewrite."""
    result = cleanup(aig)
    result = balance(result)
    if effort >= 2:
        result = rewrite_cuts(result)
        result = balance(result)
    return cleanup(result)
