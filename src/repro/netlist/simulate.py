"""Bit-parallel netlist simulation.

A signal's value is one non-negative Python int: bit ``k`` is the signal
in lane ``k``, and each lane is an independent test vector.
:func:`random_vectors` draws ``64 * n_words`` lanes per input.  A run
spans its widest stimulus value rounded up to whole 64-bit words, and a
complement is taken as ``full ^ v`` against that all-ones width, so every
value stays inside the run's lanes.  Sequential designs are simulated
cycle by cycle with explicit DFF state.  Simulation is the equivalence
oracle of the flow's tests and of ``repro.check``: every transformation
stage (mapping, compaction, packing, buffering) must preserve these
outputs.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from ..logic.truthtable import TruthTable
from .core import Instance, Netlist, NetlistError

Vectors = Dict[str, int]


def random_vectors(
    names: Sequence[str], n_words: int = 4, seed: int = 0
) -> Vectors:
    """Random stimulus: ``64 * n_words`` lanes per name, drawn from
    ``random.Random(seed)`` in ``names`` order."""
    rng = random.Random(seed)
    return {name: rng.getrandbits(64 * n_words) for name in names}


def _full(groups: Sequence[Optional[Vectors]]) -> int:
    """All ones over the lanes ``groups`` span (at least one word)."""
    width = 0
    for group in groups:
        for name, value in (group or {}).items():
            if value < 0:
                raise NetlistError(f"vector for {name!r} is negative")
            width = max(width, value.bit_length())
    return (1 << (64 * max(1, -(-width // 64)))) - 1


def _eval_config(config: TruthTable, inputs: List[int], full: int) -> int:
    """Evaluate a cell configuration bitwise over lane ints."""
    result = 0
    for row in range(1 << config.n_inputs):
        if not (config.mask >> row) & 1:
            continue
        term = full
        for i, value in enumerate(inputs):
            term &= value if (row >> i) & 1 else full ^ value
        result |= term
    return result


def _settle(order: List[Instance], values: Vectors, full: int) -> Vectors:
    """Every net's value after evaluating ``order`` over ``values``."""
    state: Vectors = dict(values)
    for inst in order:
        ins = []
        for net in inst.input_nets():
            if net not in state:
                raise NetlistError(f"net {net!r} has no value during evaluation")
            ins.append(state[net])
        assert inst.config is not None
        state[inst.output_net] = _eval_config(inst.config, ins, full)
    return state


def evaluate_combinational(
    netlist: Netlist, values: Vectors
) -> Vectors:
    """Evaluate all combinational logic given input and DFF-Q values.

    ``values`` must define every primary input and every DFF output net.
    Returns values for every net.
    """
    return _settle(netlist.topological_order(), values, _full([values]))


def simulate(
    netlist: Netlist,
    input_vectors: Vectors,
    n_cycles: int = 1,
    initial_state: Optional[Vectors] = None,
) -> List[Vectors]:
    """Simulate ``n_cycles`` clock cycles.

    The same input vectors are applied every cycle (sufficient for
    equivalence checking; :func:`simulate_stream` takes per-cycle
    stimulus).  Returns, per cycle, the value of every net after
    combinational settling.  DFF state starts at zero unless
    ``initial_state`` gives Q values.
    """
    missing = [name for name in netlist.inputs if name not in input_vectors]
    if missing:
        raise NetlistError(f"missing input vectors for {missing}")
    return simulate_stream(netlist, [input_vectors] * n_cycles, initial_state)


def simulate_stream(
    netlist: Netlist,
    stimulus: Sequence[Vectors],
    initial_state: Optional[Vectors] = None,
) -> List[Vectors]:
    """Simulate with per-cycle stimulus.

    ``stimulus[t]`` supplies every primary input's vectors for cycle ``t``;
    the number of cycles equals ``len(stimulus)``.  Returns settled values
    per cycle, like :func:`simulate`.
    """
    if not stimulus:
        return []
    full = _full([initial_state, *stimulus])
    order = netlist.topological_order()
    dffs = list(netlist.sequential_instances())
    initial = initial_state or {}
    state = {dff.output_net: initial.get(dff.output_net, 0) for dff in dffs}

    history: List[Vectors] = []
    for cycle, vectors in enumerate(stimulus):
        missing = [name for name in netlist.inputs if name not in vectors]
        if missing:
            raise NetlistError(f"cycle {cycle}: missing inputs {missing}")
        values = dict(vectors)
        values.update(state)
        settled = _settle(order, values, full)
        history.append(settled)
        state = {dff.output_net: settled[dff.pin_nets["D"]] for dff in dffs}
    return history


def outputs_equal(
    a: Netlist,
    b: Netlist,
    n_words: int = 4,
    n_cycles: int = 3,
    seed: int = 0,
) -> bool:
    """Randomized sequential equivalence check on primary outputs.

    Both netlists must agree on input and output names.  DFF count may
    differ (transformations may retime buffers around registers must not,
    and do not, happen in this flow — state correspondence is by reset-zero
    plus identical input streams).
    """
    if sorted(a.inputs) != sorted(b.inputs):
        raise NetlistError("input name mismatch between netlists")
    if sorted(a.outputs) != sorted(b.outputs):
        raise NetlistError("output name mismatch between netlists")
    vectors = random_vectors(a.inputs, n_words=n_words, seed=seed)
    hist_a = simulate(a, vectors, n_cycles=n_cycles)
    hist_b = simulate(b, vectors, n_cycles=n_cycles)
    return all(
        cycle_a[out] == cycle_b[out]
        for cycle_a, cycle_b in zip(hist_a, hist_b)
        for out in a.outputs
    )
