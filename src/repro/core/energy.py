"""Energy accounting for simulated schedules.

The paper motivates heterogeneous systems with "performance **and power
efficiency**" (§1, §2.3: GPUs "use a lot less power when compared to CPUs
for similar computations") but never quantifies energy.  This module
closes that gap: given a finished schedule and a per-platform power
model, it integrates busy/idle power over the run.

The default model uses the published TDP/idle figures of the paper's
Table 6 devices (Intel i7-2600, Nvidia Tesla K20, Xilinx Virtex-7):

============  ==========  ==========
platform      busy (W)    idle (W)
============  ==========  ==========
CPU           95          30
GPU           225         25
FPGA          25          10
============  ==========  ==========

Energies are reported in joules (W × ms / 1000).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.metrics import SimulationMetrics, compute_metrics
from repro.core.schedule import Schedule
from repro.core.system import ProcessorType, SystemConfig


@dataclass(frozen=True)
class PowerModel:
    """Busy/idle power draw per processor category, in watts.

    ``transfer_watts`` (default: busy power) applies while a processor is
    occupied by an inbound data transfer.
    """

    busy_watts: Mapping[ProcessorType, float]
    idle_watts: Mapping[ProcessorType, float]
    transfer_watts: Mapping[ProcessorType, float] | None = None

    def __post_init__(self) -> None:
        for name, table in (("busy", self.busy_watts), ("idle", self.idle_watts)):
            for ptype, watts in table.items():
                if watts < 0:
                    raise ValueError(f"{name} power must be >= 0 for {ptype}: {watts}")
        for ptype in self.busy_watts:
            if ptype not in self.idle_watts:
                raise ValueError(f"missing idle power for {ptype}")

    def busy(self, ptype: ProcessorType) -> float:
        return self.busy_watts[ptype]

    def idle(self, ptype: ProcessorType) -> float:
        return self.idle_watts[ptype]

    def transfer(self, ptype: ProcessorType) -> float:
        if self.transfer_watts is not None and ptype in self.transfer_watts:
            return self.transfer_watts[ptype]
        return self.busy_watts[ptype]


#: Nominal figures for the paper's Table 6 devices.
DEFAULT_POWER_MODEL = PowerModel(
    busy_watts={
        ProcessorType.CPU: 95.0,
        ProcessorType.GPU: 225.0,
        ProcessorType.FPGA: 25.0,
    },
    idle_watts={
        ProcessorType.CPU: 30.0,
        ProcessorType.GPU: 25.0,
        ProcessorType.FPGA: 10.0,
    },
)


@dataclass(frozen=True)
class ProcessorEnergy:
    """Energy breakdown of one processor over a run (joules)."""

    processor: str
    compute_joules: float
    transfer_joules: float
    idle_joules: float

    @property
    def total_joules(self) -> float:
        return self.compute_joules + self.transfer_joules + self.idle_joules


@dataclass(frozen=True)
class EnergyReport:
    """System-level energy outcome of one schedule."""

    per_processor: Mapping[str, ProcessorEnergy]
    makespan_ms: float

    @property
    def total_joules(self) -> float:
        return sum(p.total_joules for p in self.per_processor.values())

    @property
    def busy_joules(self) -> float:
        return sum(
            p.compute_joules + p.transfer_joules for p in self.per_processor.values()
        )

    @property
    def energy_delay_product(self) -> float:
        """EDP in joule-seconds — the standard efficiency figure of merit."""
        return self.total_joules * (self.makespan_ms / 1e3)


def energy_of(
    schedule: Schedule,
    system: SystemConfig,
    power_model: PowerModel = DEFAULT_POWER_MODEL,
) -> EnergyReport:
    """Integrate the power model over a finished schedule.

    Every processor draws idle power from t = 0 to the makespan except
    while computing (busy power) or receiving data (transfer power) —
    the whole system is assumed powered for the duration of the run,
    matching how a shared heterogeneous node is actually billed.  The
    per-processor sums are :func:`~repro.core.metrics.compute_metrics`'
    usage, priced by :func:`energy_from_metrics`.
    """
    return energy_from_metrics(compute_metrics(schedule, system), system, power_model)


def energy_from_metrics(
    metrics: SimulationMetrics,
    system: SystemConfig,
    power_model: PowerModel = DEFAULT_POWER_MODEL,
) -> EnergyReport:
    """Integrate the power model over already-reduced usage metrics.

    The one energy reduction: :func:`energy_of` and every simulation
    result price their :class:`~repro.core.metrics.SimulationMetrics`
    here.  A ``retain_schedule=False`` run has no schedule, but its
    metrics carry exactly the per-processor compute/transfer/idle sums
    the integration needs — in the same reduction order as the batch
    path, so the report is bit-equal to :func:`energy_of` on the
    retained schedule (asserted in ``tests/test_energy.py``).
    """
    out: dict[str, ProcessorEnergy] = {}
    for proc in system:
        usage = metrics.usage[proc.name]
        out[proc.name] = ProcessorEnergy(
            processor=proc.name,
            compute_joules=usage.compute_time / 1e3 * power_model.busy(proc.ptype),
            transfer_joules=usage.transfer_time
            / 1e3
            * power_model.transfer(proc.ptype),
            idle_joules=usage.idle_time / 1e3 * power_model.idle(proc.ptype),
        )
    return EnergyReport(per_processor=out, makespan_ms=metrics.makespan)
