"""Core substrate: heterogeneous-system model, lookup table, discrete-event simulator.

The paper evaluates scheduling policies on a *simulated* CPU/GPU/FPGA
system driven by a table of measured kernel execution times.  This
subpackage rebuilds that simulator:

* :mod:`repro.core.system` — processors, link model, system configuration;
* :mod:`repro.core.topology` — interconnect graphs, routes, contention;
* :mod:`repro.core.lookup` — the kernel-execution-time lookup table;
* :mod:`repro.core.cost` — the unified assignment cost model;
* :mod:`repro.core.events` — the event queue driving the simulation;
* :mod:`repro.core.engine` — the layered event-engine core and the
  :class:`~repro.core.engine.RuntimeDynamics` hook protocol;
* :mod:`repro.core.dynamics` — the pluggable behavior layers (admission,
  contention, retirement, metrics, fault injection, preemption);
* :mod:`repro.core.simulator` — the simulator facade assembling them;
* :mod:`repro.core.reference` — the pre-refactor loop, kept as an oracle;
* :mod:`repro.core.schedule` — the schedule record a run produces;
* :mod:`repro.core.metrics` — makespan, utilization and λ-delay metrics;
* :mod:`repro.core.trace` — step-by-step state traces rebuilt from a
  schedule (Figure 5).
"""

from repro.core.system import Processor, ProcessorType, SystemConfig, CPU_GPU_FPGA
from repro.core.topology import (
    Route,
    TopoLink,
    Topology,
    bus_topology,
    fat_tree_topology,
    mesh_topology,
    star_topology,
    tree_topology,
)
from repro.core.lookup import LookupTable, LookupEntry
from repro.core.cost import CostModel, CostRow
from repro.core.events import Event, EventKind, EventQueue
from repro.core.engine import EngineCore, RuntimeDynamics, SchedulingError
from repro.core.dynamics import (
    DynamicsSpec,
    FaultDynamics,
    PreemptionDynamics,
    build_dynamics,
    parse_dynamics_arg,
)
from repro.core.simulator import (
    Simulator,
    SimulationResult,
    StreamResult,
    StreamStats,
)
from repro.core.reference import ReferenceSimulator
from repro.core.schedule import Schedule, ScheduleEntry
from repro.core.metrics import (
    AppServiceRecord,
    AppSpan,
    LambdaStats,
    ProcessorUsage,
    ServiceMetrics,
    SimulationMetrics,
    compute_service_metrics,
    rolling_utilization,
)
from repro.core.trace import StateTrace, StateSnapshot
from repro.core.energy import (
    DEFAULT_POWER_MODEL,
    EnergyReport,
    PowerModel,
    ProcessorEnergy,
    energy_of,
)

__all__ = [
    "Processor",
    "ProcessorType",
    "SystemConfig",
    "CPU_GPU_FPGA",
    "Topology",
    "TopoLink",
    "Route",
    "star_topology",
    "tree_topology",
    "mesh_topology",
    "bus_topology",
    "fat_tree_topology",
    "LookupTable",
    "LookupEntry",
    "CostModel",
    "CostRow",
    "Event",
    "EventKind",
    "EventQueue",
    "EngineCore",
    "RuntimeDynamics",
    "SchedulingError",
    "DynamicsSpec",
    "FaultDynamics",
    "PreemptionDynamics",
    "build_dynamics",
    "parse_dynamics_arg",
    "Simulator",
    "SimulationResult",
    "StreamResult",
    "StreamStats",
    "ReferenceSimulator",
    "Schedule",
    "ScheduleEntry",
    "SimulationMetrics",
    "ServiceMetrics",
    "AppServiceRecord",
    "AppSpan",
    "compute_service_metrics",
    "rolling_utilization",
    "LambdaStats",
    "ProcessorUsage",
    "StateTrace",
    "StateSnapshot",
    "PowerModel",
    "DEFAULT_POWER_MODEL",
    "EnergyReport",
    "ProcessorEnergy",
    "energy_of",
]
