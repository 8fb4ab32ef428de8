"""Power estimation for flow results (an extension beyond the paper).

The paper's companion work ([10]) compares VPGA fabrics on delay, power
and area; this module supplies the power axis with the standard static
model:

* **dynamic** power per net: ``0.5 * alpha * C * Vdd^2 * f`` where
  ``alpha`` is the estimated toggle rate, ``C`` the net load (pin caps +
  wire cap from the flow's wire model);
* **clock** power: every DFF's clock pin toggles each cycle;
* **leakage**: proportional to instantiated cell area (flow a) or to the
  full PLB array area (flow b — unused via-patterned logic still leaks,
  one of the regular-fabric costs worth quantifying).

Units: capacitance in unit-inverter loads (converted via
``FF_PER_UNIT_LOAD``), Vdd and frequency from the options; results in mW.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cells.characterize import TimingLibrary
from ..netlist.core import Netlist
from ..timing.sta import _net_load
from ..timing.wires import WireModel, zero_wire_model
from .activity import ActivityReport, estimate_activity

#: Femto-farads per normalized unit-inverter load (0.18um-class).
FF_PER_UNIT_LOAD = 4.0
#: Supply voltage, volts (0.18um nominal).
VDD = 1.8
#: Leakage power density, mW per um^2 (0.18um-era leakage is small).
LEAKAGE_MW_PER_UM2 = 2.0e-6
#: DFF clock-pin capacitance, unit loads.
CLOCK_PIN_CAP = 1.0


@dataclass(frozen=True)
class PowerReport:
    """Power breakdown for one implementation (mW)."""

    dynamic: float
    clock: float
    leakage: float
    frequency_mhz: float

    @property
    def total(self) -> float:
        return self.dynamic + self.clock + self.leakage


def estimate_power(
    netlist: Netlist,
    timing: TimingLibrary,
    wires: Optional[WireModel] = None,
    frequency_mhz: float = 200.0,
    leakage_area_um2: Optional[float] = None,
    activity: Optional[ActivityReport] = None,
) -> PowerReport:
    """Estimate total power for a placed/routed netlist.

    ``leakage_area_um2`` defaults to the sum of instantiated cell areas;
    flow-b callers pass the PLB-array die area instead.
    """
    wires = wires if wires is not None else zero_wire_model()
    activity = activity or estimate_activity(netlist)
    freq_hz = frequency_mhz * 1e6

    dynamic_w = 0.0
    for net in netlist.nets:
        alpha = activity.activity(net)
        if alpha <= 0.0:
            continue
        cap_ff = FF_PER_UNIT_LOAD * _net_load(netlist, timing, wires, net)
        dynamic_w += 0.5 * alpha * cap_ff * 1e-15 * VDD * VDD * freq_hz

    n_dffs = sum(1 for _ in netlist.sequential_instances())
    clock_cap_ff = FF_PER_UNIT_LOAD * CLOCK_PIN_CAP * n_dffs
    clock_w = clock_cap_ff * 1e-15 * VDD * VDD * freq_hz  # alpha = 1 both edges

    if leakage_area_um2 is None:
        leakage_area_um2 = sum(
            inst.cell.area for inst in netlist.instances.values()
        )
    leakage_mw = LEAKAGE_MW_PER_UM2 * leakage_area_um2

    return PowerReport(
        dynamic=dynamic_w * 1e3,
        clock=clock_w * 1e3,
        leakage=leakage_mw,
        frequency_mhz=frequency_mhz,
    )
