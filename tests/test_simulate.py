"""Unit tests for bit-parallel simulation."""

import pytest

from repro.netlist.build import NetlistBuilder
from repro.netlist.core import NetlistError
from repro.netlist.simulate import (
    evaluate_combinational,
    outputs_equal,
    random_vectors,
    simulate,
)

from conftest import make_ripple_design


class TestCombinational:
    def test_xor_evaluation(self, comb_design):
        vectors = random_vectors(comb_design.inputs, n_words=2, seed=1)
        values = evaluate_combinational(comb_design, vectors)
        expected = vectors["x[1]"] ^ vectors["y[1]"] ^ vectors["x[2]"]
        assert values["f1"] == expected

    def test_mux_evaluation(self, comb_design):
        vectors = random_vectors(comb_design.inputs, n_words=2, seed=2)
        values = evaluate_combinational(comb_design, vectors)
        s, d0, d1 = vectors["x[2]"], vectors["y[2]"], vectors["y[3]"]
        full = (1 << 128) - 1
        assert values["f2"] == ((full ^ s) & d0) | (s & d1)

    def test_majority(self, comb_design):
        vectors = random_vectors(comb_design.inputs, n_words=1, seed=3)
        values = evaluate_combinational(comb_design, vectors)
        a, b, c = vectors["x[0]"], vectors["y[2]"], vectors["x[3]"]
        assert values["f4"] == (a & b) | (b & c) | (a & c)

    def test_missing_input_raises(self, comb_design):
        with pytest.raises(NetlistError):
            evaluate_combinational(comb_design, {})

    def test_negative_lanes_rejected(self, comb_design):
        vectors = random_vectors(comb_design.inputs, n_words=1, seed=6)
        vectors["x[0]"] = -1
        with pytest.raises(NetlistError, match="negative"):
            evaluate_combinational(comb_design, vectors)


class TestSequential:
    def test_adder_after_two_cycles(self):
        design = make_ripple_design(width=8)
        vectors = random_vectors(design.inputs, n_words=2, seed=4)
        history = simulate(design, vectors, n_cycles=2)
        # Registered outputs reflect cycle-1 inputs at cycle 2; check every
        # bit lane of word 0 against a Python golden model.
        for lane in range(64):
            a_l = sum(((vectors[f"a[{i}]"] >> lane) & 1) << i for i in range(8))
            c_l = sum(((vectors[f"c[{i}]"] >> lane) & 1) << i for i in range(8))
            cin_l = (vectors["cin"] >> lane) & 1
            total_l = a_l + c_l + cin_l
            got_l = sum(
                (((history[1][f"sum[{i}]"] >> lane) & 1) << i)
                for i in range(8)
            )
            cout_l = (history[1]["cout"] >> lane) & 1
            assert got_l == (total_l & 0xFF)
            assert cout_l == (total_l >> 8) & 1

    def test_state_starts_at_zero(self):
        b = NetlistBuilder("t")
        x = b.input("x")
        q = b.DFF(x)
        b.output(q, "q")
        vectors = random_vectors(["x"], n_words=1, seed=5)
        history = simulate(b.netlist, vectors, n_cycles=2)
        assert history[0]["q"] == 0
        assert history[1]["q"] == vectors["x"]

    def test_initial_state_override(self):
        b = NetlistBuilder("t")
        x = b.input("x")
        q = b.DFF(x)
        b.output(q, "q")
        ones = (1 << 64) - 1
        history = simulate(
            b.netlist, {"x": 0}, n_cycles=1, initial_state={q: ones},
        )
        assert history[0]["q"] == ones

    def test_missing_inputs_rejected(self, ripple_design):
        with pytest.raises(NetlistError):
            simulate(ripple_design, {}, n_cycles=1)


class TestEquivalence:
    def test_identical_netlists_equal(self, ripple_design):
        assert outputs_equal(ripple_design, ripple_design.copy())

    def test_different_logic_detected(self):
        d1 = make_ripple_design(width=3, name="x")
        b = NetlistBuilder("x")
        a = b.input_word("a", 3)
        c = b.input_word("c", 3)
        cin = b.input("cin")
        outs = [b.DFF(b.AND(a[i], c[i])) for i in range(3)]
        b.output_word(outs, "sum")
        b.output(b.DFF(cin), "cout")
        assert not outputs_equal(d1, b.netlist)

    def test_port_mismatch_rejected(self, ripple_design, comb_design):
        with pytest.raises(NetlistError):
            outputs_equal(ripple_design, comb_design)


class TestStreamSimulation:
    def test_per_cycle_stimulus(self):
        from repro.netlist.simulate import simulate_stream

        # Simple toggle accumulator: q ^= x each cycle.
        b2 = NetlistBuilder("acc")
        x = b2.input("x")
        placeholder = b2.netlist.add_net()
        qi = b2.netlist.add_instance(b2._dff, {"D": placeholder}).output_net
        d = b2.XOR(x, qi)
        dff_name = b2.netlist.nets[qi].driver[0]
        b2.netlist.rewire_sink(dff_name, "D", d)
        b2.netlist.remove_net(placeholder)
        b2.output(qi, "q")

        ones, zeros = (1 << 64) - 1, 0
        history = simulate_stream(
            b2.netlist,
            [{"x": ones}, {"x": zeros}, {"x": ones}, {"x": ones}],
        )
        got = [h["q"] & 1 for h in history]
        assert got == [0, 1, 1, 0]

    def test_missing_input_in_one_cycle(self):
        from repro.netlist.simulate import simulate_stream

        design = make_ripple_design(width=2, name="stream")
        vectors = random_vectors(design.inputs, 1, seed=0)
        with pytest.raises(NetlistError):
            simulate_stream(design, [vectors, {}])

    def test_empty_stimulus(self):
        from repro.netlist.simulate import simulate_stream

        design = make_ripple_design(width=2, name="stream2")
        assert simulate_stream(design, []) == []
