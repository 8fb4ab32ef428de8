"""Gate-level netlist substrate: structure, builder, I/O.

The bit-parallel simulator is imported as :mod:`repro.netlist.simulate`;
no flow stage runs it.
"""

from .core import Instance, Net, Netlist, NetlistError
from .build import CONST0, CONST1, NetlistBuilder, capture_cell, is_capture
from .stats import NetlistStats, cell_histogram, gather, nand2_equivalents, total_area
from .validate import check, validate
from .verilog import read_verilog, write_verilog

__all__ = [
    "Instance",
    "Net",
    "Netlist",
    "NetlistError",
    "CONST0",
    "CONST1",
    "NetlistBuilder",
    "capture_cell",
    "is_capture",
    "NetlistStats",
    "cell_histogram",
    "gather",
    "nand2_equivalents",
    "total_area",
    "check",
    "validate",
    "read_verilog",
    "write_verilog",
]
