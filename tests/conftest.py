"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cells import granular_plb_library, lut_plb_library, characterize_library
from repro.core import granular_plb, lut_plb
from repro.netlist import NetlistBuilder


@pytest.fixture(scope="session", autouse=True)
def _isolated_stage_cache(tmp_path_factory):
    """Point the flow stage cache at a per-session temp dir.

    Keeps test runs from reading or polluting the developer's
    ~/.cache/repro (fuzz tests alone would fill it with junk entries).
    """
    import os

    if "REPRO_CACHE_DIR" not in os.environ:
        os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield


@pytest.fixture(scope="session", autouse=True)
def _isolated_journal_dir(tmp_path_factory):
    """Point run journals at a per-session temp dir.

    Tests that enable observation would otherwise drop journal files
    into the repo's results/journals/.
    """
    import os

    if "REPRO_JOURNAL_DIR" not in os.environ:
        os.environ["REPRO_JOURNAL_DIR"] = str(
            tmp_path_factory.mktemp("repro-journals")
        )
    yield


@pytest.fixture(autouse=True)
def _reset_tracer():
    """Deactivate any leftover tracer between tests (obs state is global)."""
    from repro.obs import core as obs_core

    yield
    obs_core.reset()


def make_ripple_design(width: int = 4, name: str = "ripple"):
    """A small registered ripple adder (xor/mux/and mix) used widely."""
    b = NetlistBuilder(name)
    a = b.input_word("a", width)
    c = b.input_word("c", width)
    carry = b.input("cin")
    sums = []
    for i in range(width):
        p = b.XOR(a[i], c[i])
        s = b.XOR(p, carry)
        g = b.AND(a[i], c[i])
        carry = b.MUX(p, g, carry)
        sums.append(b.DFF(s))
    b.output_word(sums, "sum")
    b.output(b.DFF(carry), "cout")
    return b.netlist


def make_combinational_design(name: str = "comb"):
    """A purely combinational mixed-function block."""
    b = NetlistBuilder(name)
    x = b.input_word("x", 4)
    y = b.input_word("y", 4)
    b.output(b.AND(x[0], y[0], x[1]), "f0")
    b.output(b.XOR(x[1], y[1], x[2]), "f1")
    b.output(b.MUX(x[2], y[2], y[3]), "f2")
    b.output(b.AOI21(x[3], y[0], y[1]), "f3")
    b.output(b.MAJ(x[0], y[2], x[3]), "f4")
    b.output(b.NOR(x[0], x[1]), "f5")
    return b.netlist


@pytest.fixture(scope="session")
def ripple_design():
    return make_ripple_design()


@pytest.fixture(scope="session")
def comb_design():
    return make_combinational_design()


@pytest.fixture(scope="session")
def lut_lib():
    return lut_plb_library()


@pytest.fixture(scope="session")
def gran_lib():
    return granular_plb_library()


@pytest.fixture(scope="session")
def lut_arch():
    return lut_plb()


@pytest.fixture(scope="session")
def gran_arch():
    return granular_plb()


@pytest.fixture(scope="session")
def lut_timing(lut_lib):
    return characterize_library(lut_lib)


@pytest.fixture(scope="session")
def gran_timing(gran_lib):
    return characterize_library(gran_lib)


@pytest.fixture(scope="session")
def self_lint_findings():
    """``lint_paths()`` over the default tree (all of ``src/repro``),
    computed once per session: the tree does not change while the tests
    run, and each full lint costs over a second."""
    from repro.check import lint_paths

    return tuple(lint_paths())


@pytest.fixture
def self_lint_once(monkeypatch, self_lint_findings):
    """Make ``repro check --self`` report the session's default lint
    result; a lint of explicit paths still runs."""
    import repro.check

    lint_paths = repro.check.lint_paths

    def memoized(paths=None):
        return list(self_lint_findings) if paths is None else lint_paths(paths)

    monkeypatch.setattr(repro.check, "lint_paths", memoized)
