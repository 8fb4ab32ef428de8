"""FlowMap: depth-optimal K-feasible cut computation via max-flow/min-cut.

The paper's logic-compaction step "finds clusters of logic or supernodes
corresponding to functions with 3 or less inputs ... using a maxflow-
mincut algorithm similar to Flowmap [5]".  This module implements that
algorithm (Cong & Ding, 1994) on an arbitrary DAG:

* labels are computed in topological order; ``label(t)`` is the optimal
  mapping depth of ``t`` in unit-delay K-input clusters;
* for each node, the existence of a height-``(l_max - 1)`` K-feasible cut
  is decided by max-flow on the node-split cone network, with every node
  in the cone carrying unit capacity and all nodes of label ``l_max``
  collapsed into the sink;
* the min-cut (the supernode's input boundary) is recovered from the
  residual graph.

Cones are truncated at ``cone_cap`` nodes for very deep nodes; past the
cap, nodes at the frontier are treated as pseudo-sources (a standard
practical approximation that can only make labels conservative).

The per-node loop is one C function, ``flowmap_label`` in
``_flowmap.c`` (built and loaded by :mod:`repro._kernel`).  ``compute``
numbers the nodes densely in topological order, passes the fanins
(repeats kept) and the distinct fanouts as int32 CSR arrays, and reads
back each node's label, its cut ids in the order they first carried
flow, and the cone-node and search counters.  The kernel's search
pushes and pops in the same order, and stamps scratch the same way, as
the pure-Python loop it replaced, so every label, cut and counter is
unchanged; it does only integer work.

The flow network is implicit.  Every interior (non-sink) cone node
``v`` splits into in(v) -> out(v) with capacity 1; out(u) -> in(v) for
each fanin edge, source -> in(v) for frontier nodes and out(u) -> sink
for fanins of sink-side nodes carry infinite capacity, which a flow of
at most ``k + 1`` never saturates.  Because each in(v) has one unit
outgoing edge, at most one unit enters it, so the whole flow state is a
``through`` flag per node plus the one fanin (or the source) that feeds
a node carrying flow.  The residual edges
follow from that: in(v) leads to out(v) while v is free and otherwise
only back to its feeder; out(v) leads to every non-sink fanout in the
cone (or the sink) and, while v carries flow, back to in(v).

The result does not depend on which augmenting paths are chosen.  The
set of nodes reachable from the source in the residual graph is the
same for every maximum flow (it is the source side of the unique
minimal minimum cut), so the returned cut -- interior nodes whose in
side is reachable and whose out side is not -- and the ``flow > k``
decision are properties of the network alone.
"""

from __future__ import annotations

import ctypes
import itertools
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict, FrozenSet, Hashable, List, Mapping, Sequence, Set, Tuple,
)

from .._kernel import load as _load_kernel
from ..obs import core as _obs

Node = Hashable

#: Default cone-size cap before frontier truncation kicks in.
DEFAULT_CONE_CAP = 3000

_I32 = ctypes.POINTER(ctypes.c_int32)
_flowmap_label = _load_kernel(
    Path(__file__).with_name("_flowmap.c")
).flowmap_label
_flowmap_label.argtypes = [
    ctypes.c_int32, _I32, _I32, _I32, _I32, ctypes.c_int32, ctypes.c_int32,
    _I32, _I32, _I32, ctypes.POINTER(ctypes.c_int64),
]
_flowmap_label.restype = ctypes.c_int


@dataclass
class FlowMapResult:
    """Labels and best cuts for every node."""

    labels: Dict[Node, int]
    cuts: Dict[Node, FrozenSet[Node]]

    def depth(self) -> int:
        return max(self.labels.values(), default=0)


class FlowMap:
    """FlowMap labeling over a DAG given by fanin lists.

    Parameters
    ----------
    fanins:
        Node -> fanin nodes.  Nodes absent from the mapping (or mapping to
        an empty sequence) are sources with label 0.
    k:
        Cluster input bound (3 for the paper's supernodes).
    """

    def __init__(
        self,
        fanins: Mapping[Node, Sequence[Node]],
        k: int = 3,
        cone_cap: int = DEFAULT_CONE_CAP,
    ):
        self.fanins: Dict[Node, Tuple[Node, ...]] = {
            node: tuple(fs) for node, fs in fanins.items()
        }
        self.k = k
        self.cone_cap = cone_cap
        self.labels: Dict[Node, int] = {}
        self.cuts: Dict[Node, FrozenSet[Node]] = {}

    # ------------------------------------------------------------------
    def _topological_order(self) -> List[Node]:
        indegree: Dict[Node, int] = {}
        dependents: Dict[Node, List[Node]] = {}
        nodes: Set[Node] = set(self.fanins)
        for node, fanins in self.fanins.items():
            for fanin in fanins:
                nodes.add(fanin)
        for node in nodes:
            indegree.setdefault(node, 0)
        for node, fanins in self.fanins.items():
            unique_fanins = dict.fromkeys(fanins)
            for fanin in unique_fanins:
                dependents.setdefault(fanin, []).append(node)
            indegree[node] = len(unique_fanins)
        queue = deque(sorted((n for n, d in indegree.items() if d == 0), key=repr))
        order: List[Node] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for dep in dependents.get(node, ()):  # pragma: no branch
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    queue.append(dep)
        if len(order) != len(nodes):
            raise ValueError("cycle detected in FlowMap input graph")
        return order

    def is_source(self, node: Node) -> bool:
        return not self.fanins.get(node)

    # ------------------------------------------------------------------
    def compute(self) -> FlowMapResult:
        """Compute labels and min-height K-feasible cuts for all nodes."""
        order = self._topological_order()
        index = {node: i for i, node in enumerate(order)}
        n = len(order)
        fanin_ids = [
            [index[f] for f in self.fanins.get(node, ())] for node in order
        ]
        fanouts: List[List[int]] = [[] for _ in range(n)]
        for v, ids in enumerate(fanin_ids):
            for u in dict.fromkeys(ids):
                fanouts[u].append(v)
        k = self.k
        label = (ctypes.c_int32 * n)()
        cut_len = (ctypes.c_int32 * n)()
        cut = (ctypes.c_int32 * (n * k))()
        work = (ctypes.c_int64 * 2)()
        if _flowmap_label(
            n, *_csr(fanin_ids), *_csr(fanouts), k, self.cone_cap,
            label, cut_len, cut, work,
        ):
            raise MemoryError("FlowMap kernel scratch")
        labels, lengths, cut_ids = label[:], cut_len[:], cut[:]
        for v, node in enumerate(order):
            self.labels[node] = labels[v]
            if not fanin_ids[v]:
                self.cuts[node] = frozenset({node})
            elif lengths[v]:
                self.cuts[node] = frozenset(
                    order[u] for u in cut_ids[v * k: v * k + lengths[v]]
                )
            else:
                self.cuts[node] = frozenset(self.fanins[node])
        _obs.counter("synth.flowmap.cone_nodes", work[0])
        _obs.counter("synth.flowmap.searches", work[1])
        return FlowMapResult(labels=dict(self.labels), cuts=dict(self.cuts))


def _csr(rows: List[List[int]]):
    """Offsets and flat ids of ``rows`` as int32 ctypes arrays."""
    offsets = [0, *itertools.accumulate(len(row) for row in rows)]
    flat = list(itertools.chain.from_iterable(rows))
    return (
        (ctypes.c_int32 * len(offsets))(*offsets),
        (ctypes.c_int32 * len(flat))(*flat),
    )


def flowmap_labels(
    fanins: Mapping[Node, Sequence[Node]], k: int = 3
) -> FlowMapResult:
    """One-shot FlowMap computation."""
    return FlowMap(fanins, k=k).compute()
