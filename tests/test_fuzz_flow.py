"""Fuzzing the synthesis pipeline with random sequential designs.

Every seed builds a random netlist and pushes it through extraction,
optimization, mapping (both architectures) and fixpoint compaction,
asserting exact sequential equivalence at every stage — the strongest
whole-pipeline invariant the repository has.
"""

import pytest

from repro.cells.library import granular_plb_library, lut_plb_library
from repro.designs.random_logic import build_random_design
from repro.netlist.simulate import outputs_equal
from repro.netlist.validate import check
from repro.synth.compaction import compact_to_fixpoint
from repro.synth.from_netlist import CombCore, extract_core
from repro.synth.optimize import optimize
from repro.synth.techmap import map_core

SEEDS = list(range(12))


@pytest.fixture(scope="module")
def random_designs():
    designs = {}
    for seed in SEEDS:
        netlist = build_random_design(seed)
        check(netlist)
        designs[seed] = netlist
    return designs


class TestGenerator:
    def test_deterministic(self):
        a = build_random_design(3)
        c = build_random_design(3)
        assert set(a.instances) == set(c.instances)
        assert a.outputs == c.outputs

    def test_seeds_differ(self):
        a = build_random_design(1)
        c = build_random_design(2)
        assert set(a.instances) != set(c.instances)

    def test_size_scales(self):
        small = build_random_design(5, n_gates=20)
        big = build_random_design(5, n_gates=200)
        assert len(big.instances) > len(small.instances)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("arch,libfn", [
    ("lut", lut_plb_library), ("granular", granular_plb_library),
])
def test_pipeline_equivalence(random_designs, seed, arch, libfn):
    src = random_designs[seed]
    library = libfn()
    core = extract_core(src)
    core = CombCore(
        aig=optimize(core.aig),
        primary_inputs=core.primary_inputs,
        primary_outputs=core.primary_outputs,
        dffs=core.dffs,
    )
    mapped = map_core(core, arch, library)
    check(mapped)
    assert outputs_equal(src, mapped, n_cycles=4, seed=seed), (
        f"seed {seed}: mapping broke equivalence on {arch}"
    )
    compacted, report = compact_to_fixpoint(mapped, library)
    check(compacted)
    assert outputs_equal(src, compacted, n_cycles=4, seed=seed), (
        f"seed {seed}: compaction broke equivalence on {arch}"
    )
    assert report.area_after <= report.area_before
