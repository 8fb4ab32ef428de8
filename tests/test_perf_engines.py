"""Golden-equivalence tests for the performance kernels.

The hot paths rewritten for speed — the SA placement move loop (a
compiled C kernel) and the persistent realization tables — each keep a
slow reference implementation.  These tests pin the fast paths to the
reference ones bit for bit: identical placements and costs for the
annealer versus the apply/undo bounding-box oracle (``sa_oracle.py``),
pinned physical-stage placement digests, equal tables for a persisted
load versus a fresh derivation, and identical NPN canonicalization for
the lookup table versus the exhaustive search.  They also hold the
kernel loader to its build contract.
"""

import ctypes
import hashlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import List

import pytest

from repro.flow.experiments import build_design
from repro.flow.flow import _run_physical, run_design, synthesize
from repro.flow.options import FlowOptions
from repro.logic.npn import (
    _npn_canonical_exhaustive,
    npn_canonical_with_transform,
)
from repro.logic.truthtable import TruthTable
from repro.place import _kernel
from repro.place.grid import grid_for_netlist
from repro.place.sa import AnnealingPlacer
from repro.synth.realize import (
    _build_table,
    _resolve_cells,
    compaction_table,
    table_for_cells,
)

from conftest import make_ripple_design
from sa_oracle import OraclePlacer


def assert_same_anneal(netlist, **kwargs):
    """The production placer and the oracle produce identical anneals."""
    grid = grid_for_netlist(netlist)
    ref = OraclePlacer(netlist, grid, **kwargs)
    fast = AnnealingPlacer(netlist, grid, **kwargs)
    pl_ref = ref.place()
    pl_fast = fast.place()
    # Same sites in the same key order (the artifact is iterated and
    # pickled downstream).
    assert list(pl_fast.sites.items()) == list(pl_ref.sites.items())
    # Bit-identical, not approximately equal: the same float operations
    # in the same order.
    assert fast.final_cost == ref.final_cost
    assert fast.net_costs() == ref.net_costs()
    assert fast.stats == ref.stats
    # ... and the same RNG draws: the stream position matches too.
    assert fast.rng.getstate() == ref.rng.getstate()
    return fast


class TestSAEngineEquivalence:
    """The sorted-list cost state must reproduce the oracle exactly."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_identical_placements_and_costs(self, seed):
        netlist = make_ripple_design(8)
        fast = assert_same_anneal(netlist, seed=seed, effort=0.3)
        # The ripple design's ports put pads on its nets.
        assert any(net in fast.pads for net in fast._active_nets)

    def test_identical_on_larger_design(self):
        assert_same_anneal(build_design("alu", 0.2), seed=7, effort=0.1)

    def test_locked_instances_respected_by_both(self):
        netlist = make_ripple_design(6)
        names = list(netlist.instances)
        locked = {names[0]: (0, 0), names[3]: (2, 1), names[5]: (1, 2)}
        fast = assert_same_anneal(netlist, seed=1, effort=0.2, locked=locked)
        placement = fast._final_sites()
        for name, site in locked.items():
            assert placement[name] == site

    def test_double_pin_design_matches(self):
        fast = assert_same_anneal(make_double_pin_design(), seed=4, effort=0.5)
        assert max(fast._contrib_cnt) >= 2

    def test_single_instance_net_matches(self):
        netlist = make_single_instance_net_design()
        fast = assert_same_anneal(netlist, seed=2, effort=0.3)
        # The self-loop net is active (two points) but constant, so it is
        # left out of the contribution lists.
        k = fast._active_nets.index("loop")
        assert k not in list(fast._contrib_net)
        assert fast.net_costs()["loop"] == 0.0


def make_double_pin_design():
    """A ripple design plus a gate whose input pins all tie to one net.

    That instance contributes the net's point several times (the
    multiplicity > 1 move path).
    """
    netlist = make_ripple_design(4)
    template = next(
        inst for inst in netlist.instances.values()
        if not inst.is_sequential and len(inst.cell.pins) >= 3
    )
    shared = next(
        name for name, net in netlist.nets.items()
        if net.driver is not None and net.sinks
    )
    pin_nets = {pin: shared for pin in template.cell.pins}
    pin_nets[template.cell.output_pin] = "double_out"
    netlist.add_instance(
        template.cell, pin_nets, config=template.config, name="double"
    )
    return netlist


def make_single_instance_net_design():
    """A ripple design plus a gate whose output net feeds only itself.

    That net's points all sit on one instance: its cost is constant.
    """
    netlist = make_ripple_design(4)
    template = next(
        inst for inst in netlist.instances.values()
        if not inst.is_sequential and len(inst.cell.pins) >= 2
    )
    pins = template.cell.pins
    pin_nets = {pin: netlist.inputs[0] for pin in pins}
    pin_nets[pins[0]] = "loop"
    pin_nets[template.cell.output_pin] = "loop"
    netlist.add_instance(
        template.cell, pin_nets, config=template.config, name="selfloop"
    )
    return netlist


def _untemper(y: int) -> int:
    """The MT19937 state word that the generator outputs as ``y``."""
    y ^= y >> 18
    x = y
    for _ in range(3):
        x = y ^ ((x << 15) & 0xEFC60000)
    y = x & 0xFFFFFFFF
    x = y
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x & 0xFFFFFFFF
    x = y
    for _ in range(3):
        x = y ^ (x >> 11)
    return x


def script_rng(rng: random.Random, draws) -> None:
    """Make ``rng``'s next ``getrandbits(k)`` calls return the scripted
    values, one ``(value, k)`` per call.

    Each draw is one generator word, and ``getrandbits(k <= 32)`` is
    the word's top ``k`` bits; the words go into the Mersenne Twister
    state at index 0, so the state index afterwards counts the words
    consumed.  ``randrange``/``randint`` and ``random()`` draw through
    the same words, so one script drives both the oracle's move loop
    and the compiled kernel.
    """
    words = [_untemper(value << (32 - k)) for value, k in draws]
    for value, k in draws:
        assert 0 <= value < (1 << k)
    rng.setstate((3, tuple(words + [0] * (624 - len(words))) + (0,), None))


#: The two words of the largest ``random()``, 1 - 2**-53: at temperature
#: 1.0 it rejects every move that raises the cost.
REJECT_UNIFORM = [((1 << 27) - 1, 27), ((1 << 26) - 1, 26)]


class TestSpeculativeEngineLevel:
    """Evaluate-then-install must equal the oracle's apply/undo bit for bit.

    Both placers run one-move sweeps from a shared start, driven by the
    same scripted generator, so every proposal is chosen by the test:
    swaps whose cells share a net, moves along a row or column among
    coincident coordinates, multi-pin contributions.  Accepted moves are
    run with delta recording (the exact deltas are compared); rejected
    ones must leave the production state untouched.
    """

    @staticmethod
    def _pair(netlist, seed=0):
        grid = grid_for_netlist(netlist)
        fast = AnnealingPlacer(netlist, grid, seed=seed)
        ref = OraclePlacer(netlist, grid, seed=seed)
        sites = fast._initial_sites()
        ref._start(dict(sites))
        fast._start(sites)
        assert fast._total_cost() == ref._total_cost()
        return fast, ref

    @staticmethod
    def _state(fast):
        return (
            list(fast._cost), list(fast._col), list(fast._row),
            list(fast._occ), list(fast._xs), list(fast._ys),
        )

    @staticmethod
    def _assert_lists_exact(fast, ref):
        """Each net's sorted segments hold exactly its current points.

        Constant nets (every point on one instance) are exempt: no move
        touches their segments, and their cost is zero wherever they sit.
        """
        moving = set(fast._contrib_net)
        off = fast._net_off
        for k, net in enumerate(fast._active_nets):
            if k not in moving:
                continue
            points = ref.engine._net_points(net)
            lo, hi = off[k], off[k + 1]
            assert fast._xs[lo:hi] == sorted(p[0] for p in points)
            assert fast._ys[lo:hi] == sorted(p[1] for p in points)

    def _propose(self, fast, ref, mover, new_site, accept):
        """Propose ``mover -> new_site`` on both; returns the oracle's
        (accepted, evaluated, delta), ``delta`` None when not recorded."""
        grid = fast.grid
        reach = max(grid.cols, grid.rows)
        k_span = (2 * reach + 1).bit_length()
        old_site = ref._sites[mover]
        script = [
            (fast._movable.index(mover), len(fast._movable).bit_length()),
            (new_site[0] - old_site[0] + reach, k_span),
            (new_site[1] - old_site[1] + reach, k_span),
        ] + REJECT_UNIFORM
        for placer in (fast, ref):
            script_rng(placer.rng, script)
        if accept:
            d_fast: List[float] = []
            d_ref: List[float] = []
            out_fast = fast._sweep(reach, 1, 0.0, d_fast)
            out_ref = ref._sweep(reach, 1, 0.0, d_ref)
            assert d_fast == d_ref
            delta = d_ref[0]
        else:
            before = self._state(fast)
            out_fast = fast._sweep(reach, 1, 1.0)
            out_ref = ref._sweep(reach, 1, 1.0)
            delta = None
            if out_ref == (0, 1):  # rejected
                assert self._state(fast) == before
        assert out_fast == out_ref
        # The same words consumed: the three move draws, plus the two of
        # the uniform when a cost-raising move was put to the test.
        consumed = ref.rng.getstate()[1][-1]
        assert fast.rng.getstate()[1][-1] == consumed
        assert consumed == 3 if accept else consumed in (3, 5)
        if out_ref == (0, 1):
            assert consumed == 5
        assert fast.net_costs() == ref.net_costs()
        assert fast._final_sites() == ref._final_sites()
        return out_ref + (delta,)

    def _drive(self, netlist, seed=0, n_moves=400):
        fast, ref = self._pair(netlist, seed)
        grid = fast.grid
        rng = random.Random(1234)
        movable = fast._movable
        shared = rejected = 0
        for _ in range(n_moves):
            mover = movable[rng.randrange(len(movable))]
            new_site = (rng.randrange(grid.cols), rng.randrange(grid.rows))
            other = ref._occupant[new_site]
            if other is not None and other != mover:
                nets = {net for net, _ in ref._contrib_of[mover]}
                shared += any(net in nets for net, _ in ref._contrib_of[other])
            accepted, evaluated, _delta = self._propose(
                fast, ref, mover, new_site, accept=rng.random() < 0.5
            )
            rejected += evaluated - accepted
        self._assert_lists_exact(fast, ref)
        assert fast._total_cost() == ref._total_cost()
        return shared, rejected

    def test_random_drive_matches_apply_undo(self):
        shared, rejected = self._drive(make_ripple_design(6), seed=2)
        assert shared and rejected, "drive never exercised the move paths"

    def test_double_pin_contributions_match(self):
        self._drive(make_double_pin_design(), seed=1)
        self._drive(make_single_instance_net_design(), seed=3)

    def test_shared_net_swap_matches(self):
        """Swapping two cells on the same net relocates both at once.

        Every net the two share is rescanned once per swap, as the
        ``sa.net_scans`` counter reports.
        """
        netlist = make_ripple_design(4)
        fast, ref = self._pair(netlist)
        swaps = expected_scans = 0
        for net in netlist.nets.values():
            if net.driver is None:
                continue
            a = net.driver[0]
            for b, _pin in net.sinks:
                if b == a or a not in fast._movable:
                    continue
                nets_a = {name for name, _ in ref._contrib_of[a]}
                nets_b = {name for name, _ in ref._contrib_of[b]}
                # Swap there and back: two shared-net evaluations.
                for _ in range(2):
                    self._propose(fast, ref, a, ref._sites[b], accept=True)
                    swaps += 1
                    expected_scans += len(nets_a & nets_b)
        assert swaps > 4 and expected_scans >= swaps
        assert fast._net_scans == expected_scans
        self._assert_lists_exact(fast, ref)

    def test_coincident_boundary_counts_match(self):
        """Moves along a row, then a column, among coincident coordinates."""
        # Walk one instance along its own row and column: every step
        # keeps one coordinate coincident with other cells in that
        # row/column, so boundaries hold several points on both ends.
        # The double-pin design walks its gate with the repeated pin.
        for netlist, mover in [
            (make_ripple_design(5), 0), (make_double_pin_design(), -1),
        ]:
            fast, ref = self._pair(netlist)
            grid = fast.grid
            mover = fast._movable[mover]
            col, row = ref._sites[mover]
            steps = [(c, row) for c in range(grid.cols)]
            steps += [(col, r) for r in range(grid.rows)]
            for new_site in steps + steps[::-1]:
                self._propose(fast, ref, mover, new_site, accept=True)
                self._assert_lists_exact(fast, ref)

    def test_rejected_evaluation_leaves_state_untouched(self):
        netlist = make_ripple_design(4)
        fast, ref = self._pair(netlist)
        rejected = 0
        for mover in fast._movable:
            for site in fast.grid.sites():
                if site == ref._sites[mover]:
                    continue
                accepted, evaluated, _ = self._propose(
                    fast, ref, mover, site, accept=False
                )
                rejected += evaluated - accepted
        assert rejected
        self._assert_lists_exact(fast, ref)


#: sha256 of repr((list(sites.items()), placement_stats, repr(final
#: cost))) of the physical stage per (design, arch) at scale 0.25,
#: place_effort 0.2, recorded on the boundary-count engine.
PINNED_PLACEMENTS = {
    "alu/granular":
        "f5a42dae591bfbf4ab4cb8374be4a70f5a14099416b73cc156a1ad7cefff2174",
    "alu/lut":
        "b36a02aec563a5ed433ee5f90abf4b3ff70dda2a2c1924d47852b76393a1dd75",
    "firewire/granular":
        "82062ac6af230f5bd60f84848e2190ef6817dd40dd83cc3b39888d2eda8e51cf",
    "firewire/lut":
        "86c42a4bb9c0b7f9ff8da0f7b895e53e8e6a5e4ba0701375640b80e17ed8a5cf",
    "fpu/granular":
        "d08aeddf70c0ac500727689f8945f485d1c00ed8a15288054766b796d2253bf7",
    "fpu/lut":
        "ff826401e909be10e0b9d01790664484cd841a216be5c18bde555ec4b4d0337c",
    "netswitch/granular":
        "0107c424c9a5e494c5dcdc34f8f3ec95ed6ce29483923c74f3d9f3b743ccb3ed",
    "netswitch/lut":
        "802c1df842ce6e3a8594eefe109aca8cae93ca0c6eb64f6fb66fb1ee16c27b49",
}


@pytest.mark.parametrize("cell", sorted(PINNED_PLACEMENTS))
def test_pinned_placement_digest(cell, monkeypatch):
    design, arch = cell.split("/")
    final_costs: List[float] = []
    place = AnnealingPlacer.place

    def recording_place(self):
        placement = place(self)
        final_costs.append(self.final_cost)
        return placement

    monkeypatch.setattr(AnnealingPlacer, "place", recording_place)
    options = FlowOptions(arch=arch, place_effort=0.2, use_cache=False)
    physical = _run_physical(
        synthesize(build_design(design, scale=0.25), options), options
    )
    blob = repr((
        list(physical.placement.sites.items()),
        physical.placement_stats,
        repr(final_costs[-1]),
    ))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == PINNED_PLACEMENTS[cell]
    assert physical.placement_stats["engine"] == "array"


def _kernel_env():
    """The environment a child process needs to import this ``repro``."""
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=src)


class TestKernelLoader:
    """The compiled move loop is built once per source and loaded safely."""

    def test_second_load_reuses_the_library(self, tmp_path, monkeypatch):
        _kernel.load(tmp_path)
        built = sorted(tmp_path.iterdir())
        assert [path.suffix for path in built] == [".so"]

        def no_compiler(*args, **kwargs):
            raise AssertionError("the compiler ran again")

        monkeypatch.setattr(_kernel.subprocess, "run", no_compiler)
        assert _kernel.load(tmp_path).sa_sweep
        assert sorted(tmp_path.iterdir()) == built

    def test_concurrent_builds_both_load(self, tmp_path):
        """Two processes building into one empty directory at once."""
        cache = tmp_path / "cache"
        cache.mkdir()
        go = tmp_path / "go"
        child = (
            "import sys, time\n"
            "from pathlib import Path\n"
            "from repro.place import _kernel\n"
            "Path(sys.argv[2]).touch()\n"
            "while not Path(sys.argv[3]).exists():\n"
            "    time.sleep(0.005)\n"
            "print(_kernel.load(Path(sys.argv[1])).sa_sweep.__name__)\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", child, str(cache),
                 str(tmp_path / f"ready{n}"), str(go)],
                env=_kernel_env(), stdout=subprocess.PIPE,
            )
            for n in range(2)
        ]
        deadline = time.monotonic() + 60
        while not all((tmp_path / f"ready{n}").exists() for n in range(2)):
            assert time.monotonic() < deadline
            time.sleep(0.005)
        go.touch()
        for proc in procs:
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0
            assert b"sa_sweep" in out
        # One library, no temporaries left behind, and it loads.
        (library,) = cache.iterdir()
        assert library.suffix == ".so"
        assert ctypes.CDLL(str(library)).sa_sweep

    def test_read_only_cache_builds_privately(self, tmp_path, monkeypatch):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        cache.chmod(0o555)
        if os.geteuid() == 0:
            # Root writes through mode bits; report them as they read.
            access = os.access
            monkeypatch.setattr(
                os, "access",
                lambda path, mode: access(path, mode)
                and not (Path(path) == cache and mode & os.W_OK),
            )
        try:
            lib = _kernel.load(cache)
        finally:
            cache.chmod(0o755)
        assert lib.sa_sweep
        assert not any(cache.iterdir())
        # Built in a private temporary directory, removed once loaded.
        assert not Path(lib._name).exists()

    def test_missing_compiler_is_an_import_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
        with pytest.raises(ImportError, match="`cc`"):
            _kernel.load(tmp_path)
        assert not any(tmp_path.iterdir())


class TestPersistentRealizationTables:
    def _fresh(self, arch: str, composite: bool):
        return _build_table(_resolve_cells(arch), composite)

    def test_persisted_load_equals_fresh_build(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        table_for_cells.cache_clear()
        try:
            built = compaction_table("granular")   # builds and persists
            table_for_cells.cache_clear()          # drop the in-process copy
            loaded = compaction_table("granular")  # loads the pickle
        finally:
            table_for_cells.cache_clear()
        assert loaded == built
        assert loaded == self._fresh("granular", True)
        assert any(tmp_path.rglob("*.pkl")), "table was not persisted"

    def test_worker_loaded_table_equals_fresh(self, tmp_path, monkeypatch):
        """A separate process loads the persisted table instead of rebuilding.

        The child stubs out ``_build_table`` so any rebuild attempt fails
        loudly — success proves the table came off disk — then checks the
        loaded table against a reference derivation run in this process.
        """
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        table_for_cells.cache_clear()
        try:
            compaction_table("granular")  # populate the on-disk cache
        finally:
            table_for_cells.cache_clear()
        fresh_repr = repr(sorted(self._fresh("granular", True).items()))

        child = (
            "import repro.synth.realize as R\n"
            "def _boom(*a, **k):\n"
            "    raise AssertionError('table was rebuilt, not loaded')\n"
            "R._build_table = _boom\n"
            "table = R.compaction_table('granular')\n"
            "import sys\n"
            "sys.stdout.write(repr(sorted(table.items())))\n"
        )
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path))
        env.pop("REPRO_NO_CACHE", None)
        result = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True, text=True, env=env, check=True,
        )
        assert result.stdout == fresh_repr

    def test_no_cache_env_still_builds(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        table_for_cells.cache_clear()
        try:
            table = compaction_table("lut")
        finally:
            table_for_cells.cache_clear()
        assert table == self._fresh("lut", True)


class TestNPNLookupTable:
    @pytest.mark.parametrize("n_inputs", [0, 1, 2, 3])
    def test_lut_matches_exhaustive_search(self, n_inputs):
        for mask in range(1 << (1 << n_inputs)):
            table = TruthTable(n_inputs, mask)
            canon, transform = npn_canonical_with_transform(table)
            ref_canon, ref_transform = _npn_canonical_exhaustive(table)
            assert canon == ref_canon
            assert transform == ref_transform
            assert transform.apply(table) == canon


class TestTruthTableInterning:
    def test_same_function_same_object(self):
        assert TruthTable(3, 0xE8) is TruthTable(3, 0xE8)
        assert TruthTable.input_var(2, 1) is TruthTable.input_var(2, 1)

    def test_operations_return_interned(self):
        a = TruthTable.input_var(2, 0)
        b = TruthTable.input_var(2, 1)
        assert (a & b) is (a & b)
        assert ~a is ~a


class TestRunDesignByName:
    FAST = FlowOptions(
        place_effort=0.05, place_iterations=1, pack_iterations=1, seed=11,
        use_cache=False,
    )

    def test_design_name_resolves(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.15")
        run = run_design("alu", "lut", self.FAST)
        assert run.design == "alu"

    def test_name_equals_explicit_netlist(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.15")
        by_name = run_design("alu", "lut", self.FAST)
        explicit = run_design(build_design("alu", 0.15), "lut", self.FAST)
        assert by_name.flow_a.die_area == explicit.flow_a.die_area
        assert by_name.flow_b.die_area == explicit.flow_b.die_area

    def test_unknown_name_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown design name"):
            run_design("no_such_design", "lut", self.FAST)

    def test_non_netlist_raises_type_error(self):
        with pytest.raises(TypeError, match="Netlist or a design name"):
            run_design(42, "lut", self.FAST)
