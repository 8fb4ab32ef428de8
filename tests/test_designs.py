"""Tests for the four benchmark designs, including golden-model checks."""

import pytest

from repro.designs import (
    DESIGN_BUILDERS,
    build_alu,
    build_firewire,
    build_fpu,
    build_netswitch,
)
from repro.designs.rtl import (
    array_multiplier,
    barrel_shifter,
    crc_register,
    counter,
    decoder,
    equality,
    less_than,
    moore_fsm,
    priority_encoder,
    ripple_adder,
)
from repro.netlist.build import CONST1, NetlistBuilder
from repro.netlist.simulate import random_vectors, simulate
from repro.netlist.stats import gather
from repro.netlist.validate import check


def word_value(values, name, width, lane=0):
    out = 0
    for i in range(width):
        out |= ((values[f"{name}[{i}]"] >> lane) & 1) << i
    return out


def input_value(vectors, name, width, lane=0):
    out = 0
    for i in range(width):
        out |= ((vectors[f"{name}[{i}]"] >> lane) & 1) << i
    return out


class TestRTLBlocks:
    def test_ripple_adder(self):
        b = NetlistBuilder("t")
        xs = b.input_word("x", 6)
        ys = b.input_word("y", 6)
        sums, cout = ripple_adder(b, xs, ys)
        b.output_word(sums, "s")
        b.output(cout, "co")
        vectors = random_vectors(b.netlist.inputs, 1, seed=0)
        values = simulate(b.netlist, vectors)[0]
        for lane in range(32):
            x = input_value(vectors, "x", 6, lane)
            y = input_value(vectors, "y", 6, lane)
            got = word_value(values, "s", 6, lane)
            co = (values["co"] >> lane) & 1
            assert got == (x + y) & 0x3F
            assert co == (x + y) >> 6

    def test_multiplier(self):
        b = NetlistBuilder("t")
        xs = b.input_word("x", 4)
        ys = b.input_word("y", 4)
        product = array_multiplier(b, xs, ys)
        b.output_word(product, "p")
        vectors = random_vectors(b.netlist.inputs, 1, seed=1)
        values = simulate(b.netlist, vectors)[0]
        for lane in range(16):
            x = input_value(vectors, "x", 4, lane)
            y = input_value(vectors, "y", 4, lane)
            assert word_value(values, "p", 8, lane) == x * y

    def test_barrel_shifter_left(self):
        b = NetlistBuilder("t")
        xs = b.input_word("x", 8)
        amount = b.input_word("k", 3)
        b.output_word(barrel_shifter(b, xs, amount, left=True), "y")
        vectors = random_vectors(b.netlist.inputs, 1, seed=2)
        values = simulate(b.netlist, vectors)[0]
        for lane in range(16):
            x = input_value(vectors, "x", 8, lane)
            k = input_value(vectors, "k", 3, lane)
            assert word_value(values, "y", 8, lane) == (x << k) & 0xFF

    def test_comparators(self):
        b = NetlistBuilder("t")
        xs = b.input_word("x", 5)
        ys = b.input_word("y", 5)
        b.output(equality(b, xs, ys), "eq")
        b.output(less_than(b, xs, ys), "lt")
        vectors = random_vectors(b.netlist.inputs, 1, seed=3)
        values = simulate(b.netlist, vectors)[0]
        for lane in range(32):
            x = input_value(vectors, "x", 5, lane)
            y = input_value(vectors, "y", 5, lane)
            assert ((values["eq"] >> lane) & 1) == int(x == y)
            assert ((values["lt"] >> lane) & 1) == int(x < y)

    def test_decoder_one_hot(self):
        b = NetlistBuilder("t")
        sel = b.input_word("s", 2)
        outs = decoder(b, sel)
        for i, o in enumerate(outs):
            b.output(o, f"d{i}")
        vectors = random_vectors(b.netlist.inputs, 1, seed=4)
        values = simulate(b.netlist, vectors)[0]
        for lane in range(16):
            s = input_value(vectors, "s", 2, lane)
            bits = [((values[f"d{i}"] >> lane) & 1) for i in range(4)]
            assert sum(bits) == 1 and bits[s] == 1

    def test_priority_encoder(self):
        b = NetlistBuilder("t")
        bits = b.input_word("v", 6)
        index, found = priority_encoder(b, bits)
        b.output_word(index, "idx")
        b.output(found, "any")
        vectors = random_vectors(b.netlist.inputs, 1, seed=5)
        values = simulate(b.netlist, vectors)[0]
        for lane in range(32):
            v = input_value(vectors, "v", 6, lane)
            got_any = (values["any"] >> lane) & 1
            assert got_any == int(v != 0)
            if v:
                expected = max(i for i in range(6) if (v >> i) & 1)
                assert word_value(values, "idx", 3, lane) == expected

    def test_counter_counts(self):
        b = NetlistBuilder("t")
        b.input("unused")
        qs = counter(b, 4, CONST1, name="cnt")
        b.output_word(qs, "q")
        vectors = {"unused": 0}
        history = simulate(b.netlist, vectors, n_cycles=6)
        for cycle, values in enumerate(history):
            assert word_value(values, "q", 4) == cycle % 16

    def test_moore_fsm_transitions(self):
        b = NetlistBuilder("t")
        go = b.input("go")
        _bits, onehot = moore_fsm(
            b, 3,
            {0: [(go, 1)], 1: [(None, 2)], 2: [(None, 0)]},
            name="fsm",
        )
        for i, line in enumerate(onehot):
            b.output(line, f"s{i}")
        ones = (1 << 64) - 1
        history = simulate(b.netlist, {"go": ones}, n_cycles=4)
        seq = [
            [h[f"s{i}"] & 1 for i in range(3)].index(1)
            for h in history
        ]
        assert seq == [0, 1, 2, 0]

    def test_crc_register_nonzero_after_data(self):
        b = NetlistBuilder("t")
        data = b.input_word("d", 4)
        crc = crc_register(b, data, 8, (0, 1, 2), CONST1, name="crc")
        b.output_word(crc, "c")
        ones = {f"d[{i}]": (1 << 64) - 1 for i in range(4)}
        history = simulate(b.netlist, ones, n_cycles=3)
        assert word_value(history[-1], "c", 8) != 0


class TestDesignsBuild:
    @pytest.mark.parametrize("name", sorted(DESIGN_BUILDERS))
    def test_builds_and_validates(self, name):
        netlist = DESIGN_BUILDERS[name]()
        check(netlist)
        st = gather(netlist)
        assert st.n_instances > 100
        assert st.n_sequential > 10

    def test_firewire_is_sequential_dominated(self):
        st_fw = gather(build_firewire())
        st_fpu = gather(build_fpu())
        assert st_fw.sequential_fraction > 2 * st_fpu.sequential_fraction

    def test_alu_parametric(self):
        small = gather(build_alu(width=4))
        large = gather(build_alu(width=24))
        assert large.n_instances > 2 * small.n_instances


class TestALUGolden:
    def test_all_opcodes(self):
        width = 8
        netlist = build_alu(width=width)
        vectors = random_vectors(netlist.inputs, 1, seed=9)
        history = simulate(netlist, vectors, n_cycles=3)
        values = history[2]  # two register stages
        shamt_mask = (1 << max(1, (width - 1).bit_length())) - 1
        for lane in range(64):
            a = input_value(vectors, "a", width, lane)
            c = input_value(vectors, "c", width, lane)
            op = input_value(vectors, "op", 3, lane)
            shamt = c & shamt_mask
            mask = (1 << width) - 1
            expected = {
                0: (a + c) & mask,
                1: (a - c) & mask,
                2: a & c,
                3: a | c,
                4: a ^ c,
                5: (a << shamt) & mask,
                6: (a >> shamt) & mask,
                7: int(a < c),
            }[op]
            got = word_value(values, "result", width, lane)
            assert got == expected, (lane, op, a, c)

    def test_zero_flag(self):
        netlist = build_alu(width=4)
        zeros = {name: 0 for name in netlist.inputs}
        history = simulate(netlist, zeros, n_cycles=3)
        assert history[2]["zero"] & 1 == 1


class TestFPUGolden:
    def test_multiplier_path_mantissa(self):
        exp_bits, mant_bits = 3, 4
        netlist = build_fpu(exp_bits=exp_bits, mant_bits=mant_bits)
        width = 1 + exp_bits + mant_bits
        vectors = random_vectors(netlist.inputs, 1, seed=11)
        ones = (1 << 64) - 1
        vectors["op_mul"] = ones  # multiply
        history = simulate(netlist, vectors, n_cycles=3)
        values = history[2]
        for lane in range(8):
            x = input_value(vectors, "x", width, lane)
            y = input_value(vectors, "y", width, lane)
            xm = (x & ((1 << mant_bits) - 1)) | (1 << mant_bits)
            ym = (y & ((1 << mant_bits) - 1)) | (1 << mant_bits)
            product = xm * ym
            top = product.bit_length() - 1  # 2*mant_bits or 2*mant_bits+1
            frac = (product >> (top - mant_bits)) & ((1 << mant_bits) - 1)
            got = word_value(values, "result", width, lane) & ((1 << mant_bits) - 1)
            assert got == frac, (lane, hex(x), hex(y))

    def test_sign_of_product(self):
        exp_bits, mant_bits = 3, 4
        netlist = build_fpu(exp_bits=exp_bits, mant_bits=mant_bits)
        width = 1 + exp_bits + mant_bits
        vectors = random_vectors(netlist.inputs, 1, seed=12)
        vectors["op_mul"] = (1 << 64) - 1
        history = simulate(netlist, vectors, n_cycles=3)
        values = history[2]
        for lane in range(16):
            xs = (vectors[f"x[{width - 1}]"] >> lane) & 1
            ys = (vectors[f"y[{width - 1}]"] >> lane) & 1
            got = (values[f"result[{width - 1}]"] >> lane) & 1
            assert got == xs ^ ys


class TestNetswitchBehavior:
    def test_routes_packet_to_destination(self):
        netlist = build_netswitch(ports=4, width=4)
        zeros = {name: 0 for name in netlist.inputs}
        ones = (1 << 64) - 1
        # Port 1 sends 0b1010 to destination 2, alone on the fabric.
        vectors = dict(zeros)
        vectors["valid1"] = ones
        vectors["din1[1]"] = ones
        vectors["din1[3]"] = ones
        vectors["dest1[1]"] = ones  # dest = 2
        history = simulate(netlist, vectors, n_cycles=4)
        values = history[3]
        assert values["ovalid2"] & 1 == 1
        assert word_value(values, "dout2", 4) == 0b1010
        assert values["ovalid0"] & 1 == 0
