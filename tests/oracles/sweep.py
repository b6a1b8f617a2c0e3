"""One-design-at-a-time oracle for :func:`repro.core.explorer.sweep_wheelbase`."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.components.compute import BASIC_CHIP_POWER_W
from repro.core.design import DroneDesign
from repro.core.equations import InfeasibleDesignError
from repro.core.explorer import (
    CAPACITY_SWEEP_MAH,
    FIG10_CELL_COUNTS,
    SweepPoint,
    SweepResult,
)
from repro.physics import constants


def sweep_wheelbase(
    wheelbase_mm: float,
    cell_counts: Sequence[int] = FIG10_CELL_COUNTS,
    capacities_mah: Iterable[float] = CAPACITY_SWEEP_MAH,
    compute_power_w: float = BASIC_CHIP_POWER_W,
    compute_weight_g: float = 20.0,
    sensors_power_w: float = 2.0,
    sensors_weight_g: float = 0.0,
    payload_g: float = 0.0,
    twr: float = constants.MIN_FLYABLE_TWR,
    avionics_weight_g: Optional[float] = None,
) -> SweepResult:
    """Sweep capacity and cell count with one ``DroneDesign.evaluate`` each."""
    if avionics_weight_g is None:
        avionics_weight_g = min(120.0, max(10.0, 80.0 * wheelbase_mm / 450.0))
    result = SweepResult(wheelbase_mm=wheelbase_mm)
    cell_list = [int(c) for c in cell_counts]
    capacity_list = [float(c) for c in capacities_mah]
    for cells in cell_list:
        for capacity in capacity_list:
            design = DroneDesign(
                wheelbase_mm=wheelbase_mm,
                battery_cells=cells,
                battery_capacity_mah=capacity,
                compute_power_w=compute_power_w,
                compute_weight_g=compute_weight_g,
                sensors_power_w=sensors_power_w,
                sensors_weight_g=sensors_weight_g,
                payload_g=payload_g,
                twr=twr,
                avionics_weight_g=avionics_weight_g,
            )
            try:
                evaluation = design.evaluate()
            except InfeasibleDesignError as error:
                result.infeasible.append((cells, capacity, str(error)))
                continue
            result.points.append(
                SweepPoint(
                    wheelbase_mm=wheelbase_mm,
                    cells=cells,
                    capacity_mah=capacity,
                    evaluation=evaluation,
                )
            )
    return result
