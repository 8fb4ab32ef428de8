"""Synthesis kernels against reference oracles, plus pinned digests.

``balance`` levels each node of the AIG it builds once, through a memo;
``FlowMap`` runs its max-flow on an implicit node-split network over
flat arrays.  Both must give exactly what the straightforward versions
below give: ``reference_balance`` re-walks the fanin cone of every
leaf it sorts, and ``ReferenceFlowMap`` builds a tuple-keyed
dict-of-dicts flow network for every node.  The pinned digests catch
any kernel change that would move Table 1/2.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import sys
from collections import deque
from dataclasses import replace
from typing import Dict, List, Set, Tuple

import pytest

from repro.flow.cache import canonical_netlist
from repro.flow.experiments import ARCHES, DESIGNS, build_design
from repro.flow.flow import architecture_of, synthesize
from repro.flow.options import FlowOptions
from repro.synth.aig import AIG, lit_inverted, lit_node
from repro.synth.compaction import _instance_graph
from repro.synth import flowmap as flowmap_module
from repro.synth.flowmap import FlowMap, FlowMapResult
from repro.synth.from_netlist import extract_core
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

def design_instance_graph(design_cores, design: str, arch: str):
    """The FlowMap input compaction builds for one optimized, mapped
    design core."""
    core = design_cores[design]
    core = replace(core, aig=optimize(core.aig))
    mapped = map_core(core, arch, architecture_of(arch).library)
    return _instance_graph(mapped)


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
# Pinned synthesis digests
# ----------------------------------------------------------------------

#: sha256 of canonical_netlist(synthesized netlist), supernodes collapsed
#: and the structure histogram, per (design, arch) at scale 0.25 with the
#: default options.
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
}


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_pinned_synthesis_digest(cell):
    design, arch = cell.split("/")
    result = synthesize(
        build_design(design, scale=ORACLE_SCALE), FlowOptions(arch=arch)
    )
    digest = hashlib.sha256(
        canonical_netlist(result.netlist).encode("utf-8")
    ).hexdigest()
    assert (
        digest,
        result.compaction.supernodes_collapsed,
        result.compaction.structure_histogram,
    ) == PINNED[cell]
