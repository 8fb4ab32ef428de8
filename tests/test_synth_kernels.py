"""Synthesis kernels against reference oracles, plus pinned digests.

``balance`` levels each node of the AIG it builds once, through a memo;
``FlowMap`` runs its max-flow on an implicit node-split network over
flat arrays; compaction's candidate walks, ``cut_function`` and the
granular configuration sets compute truth tables as integer masks.
All must give exactly what the straightforward versions below give:
``reference_balance`` re-walks the fanin cone of every leaf it sorts,
``ReferenceFlowMap`` builds a tuple-keyed dict-of-dicts flow network
for every node, ``reference_cluster`` walks each candidate cone twice
and composes ``TruthTable`` objects, ``reference_net_cuts`` merges
compaction's cuts as Python sets, ``reference_cuts`` does the same for
the AIG's cuts, ``reference_cut_function`` builds a
``TruthTable`` per AIG node and ``reference_mux_over`` calls
``TruthTable.mux``.  The pinned digests catch any kernel change that
would move Table 1/2.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import sys
from collections import Counter, deque
from dataclasses import replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import pytest

from repro.flow.cache import canonical_netlist
from repro.flow.experiments import ARCHES, DESIGNS, build_design
from repro.flow.flow import architecture_of, synthesize
from repro.flow.options import FlowOptions
from repro.core import configs
from repro.core.functions3 import (
    literal_sources_3in,
    mux2_implementable_3in,
    nd2wi_sources_3in,
    nd3wi_implementable_3in,
)
from repro.logic.truthtable import TruthTable
from repro.netlist.core import Netlist
from repro.synth import compaction
from repro.synth.aig import AIG, lit_inverted, lit_node
from repro.synth.compaction import compact_to_fixpoint
from repro.synth import flowmap as flowmap_module
from repro.synth.cuts import cut_function, enumerate_cuts, fanout_counts
from repro.synth.flowmap import FlowMap, FlowMapResult
from repro.synth.from_netlist import CombCore, extract_core
from repro.synth.optimize import balance, cleanup, optimize, rewrite_cuts
from repro.synth.techmap import map_core

# The package re-exports the ``optimize`` function under the module name.
optimize_module = importlib.import_module("repro.synth.optimize")

ORACLE_SCALE = 0.25


@pytest.fixture(autouse=True)
def _deep_recursion():
    """The recursive balance rebuild needs the flow's recursion limit."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100_000))
    yield
    sys.setrecursionlimit(limit)


# ----------------------------------------------------------------------
# Reference oracles
# ----------------------------------------------------------------------

def _depth_of(aig: AIG, literal: int) -> int:
    """Longest path from ``literal``'s node down to a non-AND node."""
    node = lit_node(literal)
    depth = 0
    stack = [(node, 0)]
    seen: Dict[int, int] = {}
    while stack:
        current, d = stack.pop()
        if current in seen and seen[current] >= d:
            continue
        seen[current] = d
        depth = max(depth, d)
        if aig.is_and(current):
            f0, f1 = aig.fanins(current)
            stack.append((lit_node(f0), d + 1))
            stack.append((lit_node(f1), d + 1))
    return depth


def reference_balance(aig: AIG) -> AIG:
    """``balance`` with its sort key recomputed by a full cone walk."""
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

    def tree_leaves(literal: int, is_root: bool) -> List[int]:
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
            new_leaves = sorted(
                (rebuild(leaf) for leaf in leaves),
                key=lambda lit_: _depth_of(fresh, lit_),
            )
            base = fresh.and_many(new_leaves)
            new_lit_of[node] = base
        return base ^ (literal & 1)

    for name, literal in aig.outputs:
        fresh.add_output(name, rebuild(literal))
    return fresh


def reference_optimize(aig: AIG, effort: int) -> AIG:
    result = reference_balance(cleanup(aig))
    if effort >= 2:
        result = reference_balance(rewrite_cuts(result))
    return cleanup(result)


class ReferenceFlowMap(FlowMap):
    """FlowMap over a materialized, tuple-keyed residual network."""

    def compute(self) -> FlowMapResult:
        for node in self._topological_order():
            if self.is_source(node):
                self.labels[node] = 0
                self.cuts[node] = frozenset({node})
                continue
            fanin_nodes = self.fanins[node]
            l_max = max(self.labels[f] for f in fanin_nodes)
            cut = self._reference_cut(node, l_max)
            if cut is not None:
                self.labels[node] = l_max
                self.cuts[node] = cut
            else:
                self.labels[node] = l_max + 1
                self.cuts[node] = frozenset(fanin_nodes)
        return FlowMapResult(labels=dict(self.labels), cuts=dict(self.cuts))

    def _reference_cone(self, target) -> Set:
        cone: Set = set()
        stack = [target]
        while stack:
            node = stack.pop()
            if node in cone:
                continue
            cone.add(node)
            if len(cone) >= self.cone_cap:
                break
            stack.extend(self.fanins.get(node, ()))
        return cone

    def _reference_cut(self, target, l_max: int):
        cone = self._reference_cone(target)
        sink_side = {
            node for node in cone
            if node == target or self.labels.get(node, 0) == l_max
        }
        for node in sink_side:
            if any(f not in cone for f in self.fanins.get(node, ())):
                return None
        capacity: Dict[Tuple, Dict[Tuple, int]] = {}

        def add_edge(u: Tuple, v: Tuple, cap: int) -> None:
            capacity.setdefault(u, {})[v] = capacity.setdefault(u, {}).get(v, 0) + cap
            capacity.setdefault(v, {}).setdefault(u, 0)

        SOURCE = ("$source$",)
        SINK = ("$sink$",)
        INF = 1 << 20

        for node in cone:
            if node in sink_side:
                continue
            add_edge((node, "in"), (node, "out"), 1)
            fanins = self.fanins.get(node, ())
            if not fanins or any(f not in cone for f in fanins):
                add_edge(SOURCE, (node, "in"), INF)
        for node in cone:
            for fanin in self.fanins.get(node, ()):
                if fanin not in cone:
                    continue
                head = SINK if node in sink_side else (node, "in")
                if fanin in sink_side:
                    continue
                add_edge((fanin, "out"), head, INF)

        flow = 0
        while flow <= self.k:
            parent: Dict[Tuple, Tuple] = {SOURCE: SOURCE}
            queue = deque([SOURCE])
            while queue and SINK not in parent:
                u = queue.popleft()
                for v, cap in capacity.get(u, {}).items():
                    if cap > 0 and v not in parent:
                        parent[v] = u
                        queue.append(v)
            if SINK not in parent:
                break
            v = SINK
            while v != SOURCE:
                u = parent[v]
                capacity[u][v] -= 1
                capacity[v][u] += 1
                v = u
            flow += 1
        if flow > self.k:
            return None

        reachable: Set[Tuple] = {SOURCE}
        queue = deque([SOURCE])
        while queue:
            u = queue.popleft()
            for v, cap in capacity.get(u, {}).items():
                if cap > 0 and v not in reachable:
                    reachable.add(v)
                    queue.append(v)
        cut = {
            node for node in cone
            if node not in sink_side
            and (node, "in") in reachable
            and (node, "out") not in reachable
        }
        if not cut or len(cut) > self.k:
            return None
        return frozenset(cut)


def reference_cluster(
    netlist: Netlist, root: str, leaf_nets: Sequence[str]
) -> Optional[Tuple[Set[str], TruthTable]]:
    """Interior and function of a candidate cone by two walks: the
    interior by a DFS from the root's inputs, then the function by
    composing ``TruthTable`` configs.  Each returns ``None`` on an
    escaping cone; the two must agree on which cones escape."""
    leaves = set(leaf_nets)
    interior: Optional[Set[str]] = set()
    stack = list(netlist.instances[root].input_nets())
    while stack:
        net = stack.pop()
        if net in leaves:
            continue
        driver = netlist.driver_of(net)
        if driver is None or driver.is_sequential:
            interior = None
            break
        if driver.name in interior:
            continue
        interior.add(driver.name)
        stack.extend(driver.input_nets())

    n = len(leaf_nets)
    index = {net: i for i, net in enumerate(leaf_nets)}
    cache: Dict[str, TruthTable] = {}

    def table_of(net: str) -> Optional[TruthTable]:
        if net in index:
            return TruthTable.input_var(n, index[net])
        if net in cache:
            return cache[net]
        driver = netlist.driver_of(net)
        if driver is None or driver.is_sequential:
            return None
        sub_tables = []
        for input_net in driver.input_nets():
            sub = table_of(input_net)
            if sub is None:
                return None
            sub_tables.append(sub)
        cache[net] = driver.config.compose(sub_tables)
        return cache[net]

    function = table_of(netlist.instances[root].output_net)
    assert (interior is None) == (function is None)
    return None if interior is None else (interior, function)


def reference_net_cuts(
    netlist: Netlist, k: int = 3, cap: int = 16
) -> Dict[str, List[Tuple[str, ...]]]:
    """Compaction's enumerated cuts per net, merged as sorted tuples
    of sets, with ``set <= set`` dominance tests."""
    cuts: Dict[str, List[Tuple[str, ...]]] = {}

    def cuts_of_net(net: str) -> List[Tuple[str, ...]]:
        driver = netlist.driver_of(net)
        if driver is None or driver.is_sequential:
            return [(net,)]
        return cuts.get(net, [(net,)])

    for inst in netlist.topological_order():
        partial: List[Tuple[str, ...]] = [()]
        for net in dict.fromkeys(inst.input_nets()):
            options = cuts_of_net(net) + [(net,)]
            nxt = []
            for base in partial:
                for option in options:
                    union = tuple(sorted(set(base) | set(option)))
                    if len(union) <= k:
                        nxt.append(union)
            partial = list(dict.fromkeys(nxt))
        unique = sorted(set(m for m in partial if m), key=lambda c: (len(c), c))
        kept: List[Tuple[str, ...]] = []
        for candidate in unique:
            if any(set(existing) <= set(candidate) for existing in kept):
                continue
            kept.append(candidate)
            if len(kept) >= cap:
                break
        cuts[inst.output_net] = kept
    return cuts


def reference_cuts(
    aig: AIG, k: int = 3, cap: int = 24, tree_mode: bool = False
) -> Dict[int, List[Tuple[int, ...]]]:
    """``enumerate_cuts`` merging each pair of fanin cuts as a sorted
    tuple of a set union, then dropping duplicates and dominated cuts
    (``set <= set``) and capping, the trivial cut among them."""
    fanouts = fanout_counts(aig) if tree_mode else {}
    cuts: Dict[int, List[Tuple[int, ...]]] = {
        node: [(node,)] for node in range(aig.n_inputs + 1)
    }
    for node in aig.and_nodes():
        sets = [
            [(n,)] if tree_mode and fanouts.get(n, 0) > 1 else cuts[n]
            for n in map(lit_node, aig.fanins(node))
        ]
        merged = [(node,)]
        for c0 in sets[0]:
            for c1 in sets[1]:
                union = tuple(sorted(set(c0) | set(c1)))
                if len(union) <= k:
                    merged.append(union)
        kept: List[Tuple[int, ...]] = []
        for cut in sorted(set(merged), key=lambda c: (len(c), c)):
            if any(set(existing) <= set(cut) for existing in kept):
                continue
            kept.append(cut)
            if len(kept) >= cap:
                break
        cuts[node] = kept
    return cuts


def reference_cut_function(aig: AIG, node: int, cut) -> TruthTable:
    """``node`` over ``cut`` with one ``TruthTable`` per AIG node."""
    n = len(cut)
    leaf_index = {leaf: i for i, leaf in enumerate(cut)}
    cache: Dict[int, TruthTable] = {}

    def table_of(current: int) -> TruthTable:
        if current in cache:
            return cache[current]
        if current in leaf_index:
            result = TruthTable.input_var(n, leaf_index[current])
        elif current == 0:
            result = TruthTable.constant(n, False)
        elif aig.is_input(current):
            raise ValueError(f"input node {current} escapes cut {cut} of {node}")
        else:
            f0, f1 = aig.fanins(current)
            t0 = table_of(lit_node(f0))
            if lit_inverted(f0):
                t0 = ~t0
            t1 = table_of(lit_node(f1))
            if lit_inverted(f1):
                t1 = ~t1
            result = t0 & t1
        cache[current] = result
        return result

    return table_of(node)


def reference_mux_over(legs, others) -> FrozenSet[TruthTable]:
    """MUX(select literal; leg, other) in both data orders, added to a
    set one ``TruthTable.mux`` result at a time."""
    selects = [t for t in literal_sources_3in() if not t.is_constant()]
    found = set()
    for s in selects:
        for leg in legs:
            for other in others:
                found.add(TruthTable.mux(s, leg, other))
                found.add(TruthTable.mux(s, other, leg))
    return frozenset(found)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def random_dag(seed: int) -> Dict[str, Tuple[str, ...]]:
    """A random DAG with several sources, repeated fanins, some sources
    left out of the mapping, and fanin counts up to 4."""
    rng = random.Random(seed)
    n_sources = rng.randint(2, 6)
    fanins: Dict[str, Tuple[str, ...]] = {}
    names = [f"s{i}" for i in range(n_sources)]
    for name in names[: n_sources // 2]:
        fanins[name] = ()  # the rest are implicit sources
    for i in range(rng.randint(10, 70)):
        picks = [rng.choice(names[-12:] if rng.random() < 0.7 else names)
                 for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.15:
            picks.append(picks[0])  # repeated fanin
        node = f"n{i}"
        fanins[node] = tuple(picks)
        names.append(node)
    return fanins


def random_aig(seed: int) -> AIG:
    """A random AIG with mixed polarities, shared nodes and internal
    nodes exported as outputs."""
    rng = random.Random(seed)
    g = AIG(f"rand{seed}")
    literals = [g.add_input(f"i{i}") for i in range(rng.randint(2, 8))]
    for _ in range(rng.randint(5, 120)):
        a = rng.choice(literals[-10:] if rng.random() < 0.6 else literals)
        b = rng.choice(literals)
        literals.append(g.and2(a ^ rng.randint(0, 1), b ^ rng.randint(0, 1)))
    for i in range(rng.randint(1, 6)):
        g.add_output(f"o{i}", rng.choice(literals) ^ rng.randint(0, 1))
    g.add_output("last", literals[-1])
    return g


def aig_signature(aig: AIG):
    return (
        aig.n_inputs, aig.input_names,
        list(aig.fanin0.items()), list(aig.fanin1.items()), aig.outputs,
    )


@pytest.fixture(scope="module")
def design_cores():
    return {
        name: extract_core(build_design(name, scale=ORACLE_SCALE))
        for name in DESIGNS
    }


# ----------------------------------------------------------------------
# balance
# ----------------------------------------------------------------------

class TestBalanceOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_aigs(self, seed):
        g = random_aig(seed)
        assert aig_signature(balance(g)) == aig_signature(reference_balance(g))
        for effort in (1, 2):
            assert aig_signature(optimize(g, effort=effort)) == aig_signature(
                reference_optimize(g, effort)
            )

    @pytest.mark.parametrize("design", DESIGNS)
    def test_design_cores(self, design, design_cores):
        core = design_cores[design].aig
        cleaned = cleanup(core)
        assert aig_signature(balance(cleaned)) == aig_signature(
            reference_balance(cleaned)
        )
        for effort in (1, 2):
            assert aig_signature(optimize(core, effort=effort)) == aig_signature(
                reference_optimize(core, effort)
            )


class TestBalanceLevelMemo:
    """Each node of the balanced AIG is levelled at most once."""

    @pytest.fixture
    def memos(self, monkeypatch):
        created: List[optimize_module._LevelMemo] = []

        class Recording(optimize_module._LevelMemo):
            def __init__(self, aig):
                super().__init__(aig)
                created.append(self)

        monkeypatch.setattr(optimize_module, "_LevelMemo", Recording)
        return created

    @staticmethod
    def _check(g: AIG, memos) -> None:
        balanced = balance(g)
        (memo,) = memos
        assert memo.aig is balanced
        assert len(memo.levels) <= balanced.n_ands() + balanced.n_inputs + 1
        levels = balanced.levels()
        assert memo.levels == [levels[node] for node in range(len(memo.levels))]

    def test_long_and_chain(self, memos):
        # Every chain node is also an output, so each is its own AND tree
        # and every sort key asks for the level of the whole chain so far.
        g = AIG("chain")
        inputs = [g.add_input(f"i{i}") for i in range(16)]
        acc = inputs[0]
        for i in range(4000):
            acc = g.and2(acc, inputs[1 + i % 15] ^ (i // 15 % 2))
            g.add_output(f"c{i}", acc)
        assert g.n_ands() == 4000
        self._check(g, memos)

    def test_wide_shared_fanout(self, memos):
        g = AIG("wide")
        inputs = [g.add_input(f"i{i}") for i in range(12)]
        shared = [
            g.and2(inputs[i], inputs[j] ^ 1)
            for i in range(12) for j in range(12) if i != j
        ]
        for i in range(400):
            picks = [shared[(i * 7 + j * 13) % len(shared)] for j in range(6)]
            g.add_output(f"o{i}", g.and_many(picks))
        self._check(g, memos)


# ----------------------------------------------------------------------
# FlowMap
# ----------------------------------------------------------------------

def design_mapped(design_cores, design: str, arch: str) -> Netlist:
    core = design_cores[design]
    core = replace(core, aig=optimize(core.aig))
    return map_core(core, arch, architecture_of(arch).library)


def instance_graph(mapped: Netlist) -> Dict[str, Tuple[str, ...]]:
    """A mapped netlist as a FlowMap input keyed by instance: each
    combinational instance with the distinct drivers of its input nets,
    a primary input or register output standing as ``$src$<net>``."""
    fanins: Dict[str, Tuple[str, ...]] = {}
    for inst in mapped.combinational_instances():
        nodes = []
        for net in inst.input_nets():
            driver = mapped.driver_of(net)
            if driver is None or driver.is_sequential:
                nodes.append("$src$" + net)
            else:
                nodes.append(driver.name)
        fanins[inst.name] = tuple(dict.fromkeys(nodes))
    return fanins


def design_instance_graph(design_cores, design: str, arch: str):
    return instance_graph(design_mapped(design_cores, design, arch))


def assert_same_flowmap(fanins, k: int, cone_cap: int) -> None:
    fast = FlowMap(fanins, k=k, cone_cap=cone_cap).compute()
    ref = ReferenceFlowMap(fanins, k=k, cone_cap=cone_cap).compute()
    assert list(fast.labels.items()) == list(ref.labels.items())
    assert list(fast.cuts.items()) == list(ref.cuts.items())


class TestFlowMapOracle:
    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random_dags(self, seed, k):
        fanins = random_dag(seed)
        for cone_cap in (2, 5, 12, 3000):
            assert_same_flowmap(fanins, k, cone_cap)

    def test_truncation_is_exercised(self):
        # The small caps above really truncate: some label differs from
        # the uncapped run on the same graph.
        moved = 0
        for seed in range(30):
            fanins = random_dag(seed)
            full = FlowMap(fanins, k=3).compute().labels
            capped = FlowMap(fanins, k=3, cone_cap=5).compute().labels
            moved += sum(capped[n] != full[n] for n in full)
        assert moved > 0

    @pytest.mark.parametrize("arch", ARCHES)
    @pytest.mark.parametrize("design", DESIGNS)
    def test_design_instance_graphs(self, design, arch, design_cores):
        fanins = design_instance_graph(design_cores, design, arch)
        assert_same_flowmap(fanins, 3, 3000)
        assert_same_flowmap(fanins, 3, 40)

    @pytest.mark.parametrize("arch", ARCHES)
    @pytest.mark.parametrize("design", DESIGNS)
    def test_net_graph_gives_the_instance_graph_cuts(
        self, design, arch, design_cores
    ):
        """Compaction's net graph (each driven net with its driver's
        distinct input nets) has the instance graph's labels and cut
        sets, node for node: both are the same network."""
        mapped = design_mapped(design_cores, design, arch)
        nets = {
            inst.output_net: tuple(dict.fromkeys(inst.input_nets()))
            for inst in mapped.topological_order()
        }

        def net_of(node: str) -> str:
            if node.startswith("$src$"):
                return node[len("$src$"):]
            return mapped.instances[node].output_net

        fanins = instance_graph(mapped)
        for cone_cap in (3000, 40):
            by_instance = FlowMap(fanins, k=3, cone_cap=cone_cap).compute()
            by_net = FlowMap(nets, k=3, cone_cap=cone_cap).compute()
            assert {
                net_of(node): (label, set(map(net_of, by_instance.cuts[node])))
                for node, label in by_instance.labels.items()
            } == {
                net: (label, set(by_net.cuts[net]))
                for net, label in by_net.labels.items()
            }

    def test_empty_map(self):
        assert_same_flowmap({}, 3, 3000)
        result = FlowMap({}).compute()
        assert result.labels == {} and result.cuts == {}

    def test_sources_only(self):
        fanins = {"a": (), "b": ()}
        assert_same_flowmap(fanins, 3, 3000)
        result = FlowMap(fanins).compute()
        assert result.labels == {"a": 0, "b": 0}
        assert result.cuts == {"a": {"a"}, "b": {"b"}}

    def test_truncated_sink_side_node(self):
        # With cone_cap 3 the cone of t is [t, y, s2]: t is on the sink
        # side and its fanin x lies outside, so no height-0 cut is
        # claimed and t gets l_max + 1, although {s0, s1, s2} is one.
        fanins = {"x": ("s0", "s1"), "y": ("s1", "s2"), "t": ("x", "y")}
        assert_same_flowmap(fanins, 3, 3)
        assert FlowMap(fanins, k=3).compute().labels["t"] == 1
        capped = FlowMap(fanins, k=3, cone_cap=3).compute()
        assert capped.labels["t"] == 2
        assert capped.cuts["t"] == {"x", "y"}

    def test_cut_order_is_pinned(self, design_cores, monkeypatch):
        """The cut of every node lists its nodes in the order they first
        carried flow, as the pure-Python search found them: the order
        each frozenset is built in."""
        monkeypatch.setattr(flowmap_module, "frozenset", tuple, raising=False)

        def digest(runs) -> str:
            sha = hashlib.sha256()
            for fanins, k, cone_cap in runs:
                result = FlowMap(fanins, k=k, cone_cap=cone_cap).compute()
                sha.update(repr((
                    list(result.labels.items()), list(result.cuts.items()),
                )).encode())
            return sha.hexdigest()

        random_runs = [
            (random_dag(seed), k, cone_cap)
            for seed in range(30) for k in (1, 2, 3, 4)
            for cone_cap in (2, 5, 12, 3000)
        ]
        design_runs = [
            (design_instance_graph(design_cores, design, arch), 3, cone_cap)
            for design in DESIGNS for arch in ARCHES
            for cone_cap in (3000, 40)
        ]
        assert digest(random_runs) == (
            "1e57eed3c35eef8ec76f27962dc0d473fb156f8bf15ef718938ec42533f68cbf"
        )
        assert digest(design_runs) == (
            "d89972f459c5ccdebf3a38ee71f9f8d697473f4500b8c9d05bb7be0abd11da19"
        )


# ----------------------------------------------------------------------
# Compaction cone walks
# ----------------------------------------------------------------------

def random_aig_core(seed: int) -> CombCore:
    g = random_aig(seed)
    return CombCore(
        aig=g,
        primary_inputs=tuple(g.input_names),
        primary_outputs=tuple(name for name, _ in g.outputs),
        dffs=(),
    )


def checked_compaction(core: CombCore, arch: str, monkeypatch) -> Counter:
    """Map and compact ``core``, checking every pass's enumerated cuts
    (also at a larger size and a binding cap) against
    ``reference_net_cuts``, and every candidate walk against
    ``reference_cluster`` with two variants of it: without its first
    leaf (which often escapes the cut) and with the root's first input
    net as one more leaf (a shorter cone over more leaves)."""
    seen: Counter = Counter()
    netlists: List[Netlist] = []
    compact, walk = compaction.compact, compaction._Cones.walk
    net_cuts = compaction._enumerate_net_cuts

    def recording_compact(netlist, *args, **kwargs):
        netlists.append(netlist)
        return compact(netlist, *args, **kwargs)

    def checked_net_cuts(drivers, k):
        # k=5 with one cut per net: wide unions, and the cap binds
        for k_, cap in ((k, 16), (5, 1)):
            got = net_cuts(drivers, k=k_, cap=cap)
            assert list(got.items()) == list(
                reference_net_cuts(netlists[-1], k=k_, cap=cap).items())
        return net_cuts(drivers, k=k)

    def checked_walk(cones, root_net, leaf_nets):
        netlist = netlists[-1]
        root = netlist.driver_of(root_net).name
        inner = netlist.instances[root].input_nets()[0]
        for leaves in (leaf_nets, leaf_nets[1:], (*leaf_nets, inner)):
            got = walk(cones, root_net, leaves)
            ref = reference_cluster(netlist, root, leaves)
            if ref is None:
                assert got is None
                seen["escapes"] += 1
                continue
            interior, mask = got
            assert interior == {
                name: netlist.instances[name].output_net for name in ref[0]
            }
            assert TruthTable(len(leaves), mask) == ref[1]
            seen["cones"] += 1
            seen["repeated_inputs"] += any(
                len(set(inst.input_nets())) < len(inst.input_nets())
                for inst in map(netlist.instances.get, [root, *interior])
            )
        return walk(cones, root_net, leaf_nets)

    monkeypatch.setattr(compaction, "compact", recording_compact)
    monkeypatch.setattr(compaction._Cones, "walk", checked_walk)
    monkeypatch.setattr(compaction, "_enumerate_net_cuts", checked_net_cuts)
    library = architecture_of(arch).library
    mapped = map_core(core, arch, library)
    compact_to_fixpoint(mapped, library)
    seen["passes"] = len(netlists)
    return seen


class TestCompactionConeOracle:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_design_cores(self, design, design_cores, monkeypatch):
        core = design_cores[design]
        core = replace(core, aig=optimize(core.aig))
        seen: Counter = Counter()
        for arch in ARCHES:
            cell = checked_compaction(core, arch, monkeypatch)
            monkeypatch.undo()
            assert cell["passes"] >= 2
            seen += cell
        assert seen["cones"] > 500 and seen["escapes"] > 500
        assert seen["repeated_inputs"] > 0

    @pytest.mark.parametrize("seed", range(12))
    def test_random_aigs(self, seed, monkeypatch):
        seen: Counter = Counter()
        for arch in ARCHES:
            seen += checked_compaction(random_aig_core(seed), arch, monkeypatch)
            monkeypatch.undo()
        assert seen["cones"] > 0 and seen["escapes"] > 0

    def test_walk_counts_the_nodes_it_enters(self):
        netlist = map_core(random_aig_core(3), "granular",
                           architecture_of("granular").library)
        order = netlist.topological_order()
        cones = compaction._Cones({
            inst.output_net: compaction._Driver(
                inst.name, inst.input_nets(), inst.config.mask)
            for inst in order
        })
        root = order[-1]
        first = cones.walk(root.output_net, root.input_nets()[:3])
        assert first is not None and first[0] == {}
        assert cones.visited == 1
        assert cones.walk(root.output_net, ()) is None
        assert cones.visited >= 2


class TestCutEnumerationOracle:
    """``enumerate_cuts`` lists every node's cuts as ``reference_cuts``
    does, order included, in both tree modes, at the default cap and at
    a cap of 2 that the trivial cut shares."""

    @staticmethod
    def _check(aig: AIG) -> int:
        capped = 0
        for tree_mode in (False, True):
            for cap in (24, 2):
                got = enumerate_cuts(aig, k=3, cap=cap, tree_mode=tree_mode)
                ref = reference_cuts(aig, k=3, cap=cap, tree_mode=tree_mode)
                assert list(got.items()) == list(ref.items())
            wide = enumerate_cuts(aig, k=3, tree_mode=tree_mode)
            capped += sum(len(cuts) > 2 for cuts in wide.values())
        return capped

    @pytest.mark.parametrize("seed", range(40))
    def test_random_aigs(self, seed):
        self._check(random_aig(seed))

    @pytest.mark.parametrize("design", DESIGNS)
    def test_design_cores(self, design, design_cores):
        # the cap of 2 binds on some node
        assert self._check(optimize(design_cores[design].aig)) > 0


class TestCutFunctionOracle:
    @staticmethod
    def _check(aig: AIG, cuts) -> Counter:
        seen: Counter = Counter()
        for node in aig.and_nodes():
            for cut in cuts[node]:
                for leaves in (cut, cut[1:]):
                    try:
                        expected = reference_cut_function(aig, node, leaves)
                    except ValueError:
                        with pytest.raises(ValueError):
                            cut_function(aig, node, leaves)
                        seen["escapes"] += 1
                        continue
                    assert cut_function(aig, node, leaves) == expected
                    seen["cuts"] += 1
        return seen

    @pytest.mark.parametrize("seed", range(40))
    def test_random_aigs(self, seed):
        g = random_aig(seed)
        for tree_mode in (False, True):
            self._check(g, enumerate_cuts(g, k=3, tree_mode=tree_mode))

    @pytest.mark.parametrize("design", DESIGNS)
    def test_design_cores(self, design, design_cores):
        g = optimize(design_cores[design].aig)
        seen = self._check(g, enumerate_cuts(g, k=3))
        assert seen["cuts"] > 100 and seen["escapes"] > 0

    def test_constant_leaf_is_a_projection(self):
        # Node 4 = AND(NOT const0, a) is built by hand: and2 would fold it.
        g = AIG("const")
        a, b = g.add_input("a"), g.add_input("b")
        g.fanin0[3], g.fanin1[3] = 1, a
        g.fanin0[4], g.fanin1[4] = 2 * 3, b
        for cut in ((1, 2), (0, 1, 2), (2, 3), (0, 2, 3), (0, 1, 2, 3)):
            got = cut_function(g, 4, cut)
            assert got == reference_cut_function(g, 4, cut)
        assert cut_function(g, 4, (1, 2)) == TruthTable(2, 0b1000)
        # leaf 0 is input 0: 4 = ~x0 & x1 & x2
        assert cut_function(g, 4, (0, 1, 2)) == TruthTable(3, 0b01000000)


def test_granular_config_sets_match_reference():
    """Equal sets, iterating in the same order: the architecture's repr,
    and so every synthesis cache key, lists them in that order."""
    literals = literal_sources_3in()
    mux_legs = tuple(mux2_implementable_3in())
    both_legs = set()
    for s in (t for t in literals if not t.is_constant()):
        for m in mux_legs:
            both_legs.add(TruthTable.mux(s, m, ~m))
            both_legs.add(TruthTable.mux(s, ~m, m))
    expected = {
        configs.ndmx_functions:
            reference_mux_over(tuple(nd2wi_sources_3in()), literals),
        configs.xoamx_functions:
            frozenset(reference_mux_over(mux_legs, literals) | both_legs),
        configs.xoandmx_functions:
            reference_mux_over(mux_legs, tuple(nd3wi_implementable_3in())),
    }
    for built, reference in expected.items():
        assert list(built()) == list(reference)
    assert configs.coverage_summary() == {
        "ND3": 48, "MX": 62, "NDMX": 174, "XOAMX": 224, "XOANDMX": 254,
    }


# ----------------------------------------------------------------------
# Pinned synthesis digests
# ----------------------------------------------------------------------

#: sha256 of canonical_netlist(synthesized netlist), supernodes collapsed
#: and the structure histogram, per (design, arch) with the default
#: options, at scale 0.25 unless the key names one after ``@``.
PINNED: Dict[str, Tuple[str, int, Dict[str, int]]] = {
    "alu/granular": (
        "0a2b2102eaa828067ad2f0b586eb6ffa3e32723b36f231bac55d63267e2f2a21", 13,
        {"BUF": 1, "MX": 3, "ND2": 3, "ND2+ND2": 4, "ND3": 2},
    ),
    "alu/lut": (
        "0753b2d1fef88d326011b158407f21f2d5d4960b62e7ba228b583a92aba3b689", 13,
        {"BUF": 1, "LUT3": 8, "ND2+ND2": 4},
    ),
    "firewire/granular": (
        "f3068d59db51e80df2f1b50e74d497424c9da8e4354d17fe81a8905bc96c2151", 88,
        {"MX": 58, "ND2": 7, "ND3": 14, "NDMX": 1, "XOAMX": 8},
    ),
    "firewire/lut": (
        "547b19b1aac0fe002f3a015b903049a90e241770e805ddeda5a9f605ae72eeef", 73,
        {"LUT3": 61, "ND2": 3, "ND3": 9},
    ),
    "fpu/granular": (
        "9a17108e08dedbc0826d04b6e35faf3a1ba83f232494156c4a136d5938250177", 64,
        {"BUF": 1, "INV": 1, "MX": 13, "ND2": 39, "ND2+ND2": 3, "ND3": 5,
         "NDMX": 1, "XOANDMX": 1},
    ),
    "fpu/lut": (
        "159c6dce5e7184ccf87b7fc42e6db69d2f7b68d9d42afb0eeff1fecb700eeb66", 72,
        {"BUF": 1, "INV": 1, "LUT3": 52, "ND2": 15, "ND2+ND2": 2, "ND3": 1},
    ),
    "netswitch/granular": (
        "959dcf7e3f25e5110fe1a1ba80f3570a2dca18753cf37db367f1be7de0178e1b", 56,
        {"MX": 42, "ND2": 3, "ND2+ND2": 2, "ND3": 3, "XOAMX": 6},
    ),
    "netswitch/lut": (
        "ad2347cd72644c2b541352e0a90fe86dc407386646769373c9d477cbbc5c07e8", 46,
        {"LUT3": 40, "ND2": 2, "ND2+ND2": 2, "ND3": 2},
    ),
    # The largest cell of the paper's matrix (flowbench's fpu_full).
    "fpu/granular@1.0": (
        "e19f045b7cca8a2de4ec3c0fcf7f3d21e91507d7838f5b431db310edfdbcfdcb", 179,
        {"BUF": 1, "MX": 25, "ND2": 128, "ND2+ND2": 5, "ND3": 18, "NDMX": 1,
         "XOANDMX": 1},
    ),
}


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_pinned_synthesis_digest(cell):
    design_arch, _, scale = cell.partition("@")
    design, arch = design_arch.split("/")
    result = synthesize(
        build_design(design, scale=float(scale or ORACLE_SCALE)),
        FlowOptions(arch=arch),
    )
    digest = hashlib.sha256(
        canonical_netlist(result.netlist).encode("utf-8")
    ).hexdigest()
    assert (
        digest,
        result.compaction.supernodes_collapsed,
        result.compaction.structure_histogram,
    ) == PINNED[cell]
