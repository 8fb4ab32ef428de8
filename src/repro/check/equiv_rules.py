"""Small-cone formal equivalence (family ``EQ``).

Exhaustive-simulation equivalence between two netlists that claim the
same function — typically the pre-compaction mapped netlist against the
post-pack netlist, spanning logic compaction, physical synthesis
buffering, and packing in one oracle.  For designs with at most
:data:`MAX_EXHAUSTIVE_INPUTS` primary inputs the check is *formal*:
every input pattern is applied (bit-parallel, so 256 patterns are one
256-bit int per net) over several clock cycles from the common
all-zero reset state.  Wider designs fall back to dense random vectors
with a fixed seed — still deterministic, no longer complete — and the
report says so with an INFO finding.
"""

from __future__ import annotations

from typing import Dict, List

from ..netlist.core import Netlist
from ..netlist.simulate import random_vectors, simulate
from .findings import Finding, Severity
from .rules import rule

#: Input-count bound for complete (exhaustive) equivalence.
MAX_EXHAUSTIVE_INPUTS = 8

#: Clock cycles simulated from the all-zero reset state.
EQUIV_CYCLES = 4

EQ001 = rule(
    "EQ001", Severity.ERROR, "equivalence",
    "pre- and post-transformation netlists agree on every primary "
    "output",
    paper_ref="Section 3.1 (compaction and packing preserve function)",
)
EQ002 = rule(
    "EQ002", Severity.ERROR, "equivalence",
    "pre- and post-transformation netlists expose identical ports",
)
EQ003 = rule(
    "EQ003", Severity.INFO, "equivalence",
    "equivalence was exhaustive (<= 8 inputs) rather than sampled",
)


def exhaustive_vectors(names: List[str]) -> Dict[str, int]:
    """One lane per input pattern: lane ``p`` assigns bit ``i`` of ``p``
    to input ``i``; covers all ``2**len(names)`` patterns."""
    patterns = range(1 << len(names))
    return {
        name: sum(1 << p for p in patterns if (p >> i) & 1)
        for i, name in enumerate(names)
    }


def check_equivalence(
    reference: Netlist,
    implementation: Netlist,
    max_exhaustive_inputs: int = MAX_EXHAUSTIVE_INPUTS,
    n_cycles: int = EQUIV_CYCLES,
) -> List[Finding]:
    """Compare two netlists on every primary output."""
    findings: List[Finding] = []
    where = f"{reference.name} vs {implementation.name}"

    if sorted(reference.inputs) != sorted(implementation.inputs):
        findings.append(EQ002.finding(
            where,
            f"input sets differ "
            f"({len(reference.inputs)} vs {len(implementation.inputs)})",
        ))
    if sorted(reference.outputs) != sorted(implementation.outputs):
        findings.append(EQ002.finding(
            where,
            f"output sets differ "
            f"({len(reference.outputs)} vs {len(implementation.outputs)})",
        ))
    if findings:
        return findings

    n = len(reference.inputs)
    exhaustive = n <= max_exhaustive_inputs
    if exhaustive:
        vectors = exhaustive_vectors(list(reference.inputs))
        lanes = 1 << n
    else:
        vectors = random_vectors(reference.inputs, n_words=8, seed=0)
        lanes = 8 * 64
    lane_mask = (1 << lanes) - 1

    try:
        hist_ref = simulate(reference, vectors, n_cycles=n_cycles)
        hist_impl = simulate(implementation, vectors, n_cycles=n_cycles)
    except Exception as exc:  # malformed netlist: NL rules own that
        findings.append(EQ001.finding(
            where, f"simulation failed: {exc}",
            severity=Severity.ERROR,
        ))
        return findings

    for cycle, (ref_vals, impl_vals) in enumerate(
        zip(hist_ref, hist_impl)
    ):
        for out in reference.outputs:
            a = ref_vals[out] & lane_mask
            b = impl_vals[out] & lane_mask
            if a != b:
                diff = bin(a ^ b).count("1")
                kind = "exhaustive" if exhaustive else "sampled"
                findings.append(EQ001.finding(
                    f"output {out}",
                    f"mismatch at cycle {cycle} "
                    f"({diff} lane(s) differ, {kind} stimulus)",
                    fix_hint="diff the transformation that produced "
                             "the implementation netlist",
                ))
        if any(f.rule_id == "EQ001" for f in findings):
            break

    if not findings:
        mode = (
            f"exhaustive over {1 << n} patterns" if exhaustive
            else f"sampled ({lanes} random vectors; "
                 f"{n} inputs exceed the exhaustive bound)"
        )
        findings.append(EQ003.finding(
            where, f"outputs agree for {n_cycles} cycles ({mode})",
        ))
    return findings
