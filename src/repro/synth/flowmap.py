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

The flow network is implicit.  ``compute`` numbers the nodes densely in
topological order once and keeps fanin-index tuples and fanout lists;
each cut query then works on flat per-node lists.  Every interior
(non-sink) cone node ``v`` splits into in(v) -> out(v) with capacity 1;
out(u) -> in(v) for each fanin edge, source -> in(v) for frontier nodes
and out(u) -> sink for fanins of sink-side nodes carry infinite
capacity, which a flow of at most ``k + 1`` never saturates.  Because
each in(v) has one unit outgoing edge, at most one unit enters it, so
the whole flow state is a ``through`` flag per node plus the one fanin
(or the source) that feeds a node carrying flow.  The residual edges
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

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

from ..obs import core as _obs

Node = Hashable

#: Default cone-size cap before frontier truncation kicks in.
DEFAULT_CONE_CAP = 3000


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
        self._fanin_ids: List[Tuple[int, ...]] = [
            tuple(index[f] for f in self.fanins.get(node, ())) for node in order
        ]
        self._fanouts: List[List[int]] = [[] for _ in range(n)]
        for v, fanin_ids in enumerate(self._fanin_ids):
            for u in dict.fromkeys(fanin_ids):
                self._fanouts[u].append(v)
        self._label = [0] * n
        # Per-call scratch, reset by bumping a stamp instead of clearing:
        # cone/sink membership and the ``through`` flag hold the stamp of
        # the call that set them; ``_inflow`` is read only when set.
        self._stamp = 0
        self._cone_mark = [0] * n
        self._sink_mark = [0] * n
        self._through = [0] * n
        self._inflow = [0] * n
        self._visit = 0
        self._cone_nodes = 0
        self._seen = [0] * (2 * n)
        self._parent = [0] * (2 * n)

        for v, node in enumerate(order):
            fanin_ids = self._fanin_ids[v]
            if not fanin_ids:
                self.labels[node] = 0
                self.cuts[node] = frozenset({node})
                continue
            l_max = max(self._label[u] for u in fanin_ids)
            cut = self._min_height_cut(v, l_max)
            if cut is not None:
                self._label[v] = l_max
                self.cuts[node] = frozenset(order[u] for u in cut)
            else:
                self._label[v] = l_max + 1
                self.cuts[node] = frozenset(self.fanins[node])
            self.labels[node] = self._label[v]
        _obs.counter("synth.flowmap.cone_nodes", self._cone_nodes)
        _obs.counter("synth.flowmap.searches", self._visit)
        return FlowMapResult(labels=dict(self.labels), cuts=dict(self.cuts))

    # ------------------------------------------------------------------
    def _collect_cone(self, target: int) -> List[int]:
        """Transitive fanin cone of ``target`` (inclusive), capped.

        Starts a new stamp and marks every member in ``_cone_mark``.
        """
        self._stamp += 1
        stamp = self._stamp
        mark = self._cone_mark
        fanin_ids = self._fanin_ids
        cap = self.cone_cap
        cone: List[int] = []
        stack = [target]
        while stack:
            v = stack.pop()
            if mark[v] == stamp:
                continue
            mark[v] = stamp
            cone.append(v)
            if len(cone) >= cap:
                break
            stack.extend(fanin_ids[v])
        self._cone_nodes += len(cone)
        return cone

    def _min_height_cut(self, target: int, l_max: int) -> Optional[List[int]]:
        """A K-feasible cut of height ``l_max - 1``, or ``None``.

        Max-flow on the implicit node-split network over the cone of
        ``target`` (see the module docstring): nodes labeled ``l_max``
        (plus ``target``) collapse into the sink; every other cone node
        has capacity 1; sources (or frontier nodes past the cone cap)
        attach to the super-source.
        """
        if l_max == 0:
            # Every fanin is a source, so every cone node is on the sink
            # side and no flow (hence no cut) exists.
            return None
        cone = self._collect_cone(target)
        stamp = self._stamp
        mark, sink, label = self._cone_mark, self._sink_mark, self._label
        fanin_ids = self._fanin_ids
        sink[target] = stamp
        for v in [v for v in cone if label[v] == l_max]:
            sink[v] = stamp
        if len(cone) < self.cone_cap:
            # The DFS ran to completion, so the cone is closed under
            # fanins and only its sources face the super-source (they
            # have label 0 < l_max, so none is on the sink side).
            frontier = [v for v in cone if not fanin_ids[v]]
        else:
            frontier = []
            for v in cone:
                fanins = fanin_ids[v]
                outside = any(mark[u] != stamp for u in fanins)
                if sink[v] == stamp:
                    # Truncation cut a sink-side node off from its fanins,
                    # so a source-to-sink path is missing from the
                    # network; be conservative.
                    if outside:
                        return None
                elif outside or not fanins:
                    frontier.append(v)

        # Augment one unit per search path (all finite capacities are 1);
        # stop once the flow exceeds k.
        through, inflow, parent = self._through, self._inflow, self._parent
        carrying: List[int] = []
        flow = 0
        while flow <= self.k:
            x = self._search(frontier)
            if x < 0:
                break
            # Walk back from the out-node that reached the sink, applying
            # each residual edge parent -> x.
            while x >= 0:
                p = parent[x]
                v = x >> 1
                if p < 0:
                    inflow[v] = -1  # super-source -> in(v)
                elif x & 1:
                    if p == x - 1:
                        through[v] = stamp  # in(v) -> out(v)
                        carrying.append(v)
                    # else: in(w) -> out(v) cancels v -> w; the edge that
                    # entered in(w) overwrites its inflow next.
                elif p == x + 1:
                    through[v] = 0  # out(v) -> in(v) cancels through flow
                else:
                    inflow[v] = p >> 1  # out(u) -> in(v)
                x = p
            flow += 1
        if flow > self.k:
            return None

        # Min cut: interior nodes whose in-side is reachable in the
        # residual graph but whose out-side is not.  Only nodes carrying
        # flow qualify (a free in(v) reaches out(v)).
        seen, visit = self._seen, self._visit
        cut = [
            v for v in dict.fromkeys(carrying)
            if through[v] == stamp
            and seen[2 * v] == visit
            and seen[2 * v + 1] != visit
        ]
        if not cut or len(cut) > self.k:
            return None
        return cut

    def _search(self, frontier: List[int]) -> int:
        """Graph search from the super-source over the residual network.

        Residual node ``2*v`` is in(v), ``2*v + 1`` is out(v).  Returns
        the out-node with an edge into the sink, or ``-1`` when the sink
        is unreachable.  ``_seen`` holds the new visit stamp for every
        visited residual node and ``_parent`` its search parent (``-1``
        for the super-source).  The search is depth-first: it tends to hit
        the sink without sweeping the whole cone, and any augmenting path
        will do.
        """
        self._visit += 1
        visit, stamp = self._visit, self._stamp
        seen, parent = self._seen, self._parent
        mark, sink = self._cone_mark, self._sink_mark
        through, inflow, fanouts = self._through, self._inflow, self._fanouts
        stack: List[int] = []
        for v in frontier:
            x = 2 * v
            seen[x] = visit
            parent[x] = -1
            stack.append(x)
        while stack:
            x = stack.pop()
            v = x >> 1
            if not x & 1:
                # in(v): the unit edge to out(v) while v is free; once v
                # carries flow, only back along the edge that feeds it.
                if through[v] != stamp:
                    y = x + 1
                else:
                    u = inflow[v]
                    if u < 0:
                        continue
                    y = 2 * u + 1
                if seen[y] != visit:
                    seen[y] = visit
                    parent[y] = x
                    stack.append(y)
                continue
            # out(v): INF edges to in(w) for every non-sink fanout in the
            # cone, or into the sink; back to in(v) when v carries flow.
            for w in fanouts[v]:
                y = 2 * w
                if mark[w] != stamp or seen[y] == visit:
                    continue
                if sink[w] == stamp:
                    return x
                seen[y] = visit
                parent[y] = x
                stack.append(y)
            if through[v] == stamp and seen[x - 1] != visit:
                seen[x - 1] = visit
                parent[x - 1] = x
                stack.append(x - 1)
        return -1


def flowmap_labels(
    fanins: Mapping[Node, Sequence[Node]], k: int = 3
) -> FlowMapResult:
    """One-shot FlowMap computation."""
    return FlowMap(fanins, k=k).compute()
