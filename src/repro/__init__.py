"""repro — reproduction of *Alternative Processor within Threshold* (Karia, RIT 2017).

A production-quality library for scheduling kernel dataflow graphs on
heterogeneous CPU/GPU/FPGA systems.  It provides:

* a discrete-event simulator of a heterogeneous system with PCIe-style links
  (:mod:`repro.core`),
* the APT scheduling heuristic plus the six baselines the paper compares
  against (:mod:`repro.policies`),
* the paper's workload model — DFG Type-1 / Type-2 generators over seven
  real kernels (:mod:`repro.graphs`, :mod:`repro.kernels`),
* the measured execution-time lookup table from the paper
  (:mod:`repro.data`), and
* a full experiment harness reproducing every table and figure of the
  evaluation chapter (:mod:`repro.experiments`).

Quickstart
----------
>>> from repro import (CPU_GPU_FPGA, paper_lookup_table, Simulator,
...                    make_type1_dfg, APT, MET)
>>> import numpy as np
>>> system = CPU_GPU_FPGA(transfer_rate_gbps=4.0)
>>> lookup = paper_lookup_table()
>>> dfg = make_type1_dfg(n_kernels=20, rng=np.random.default_rng(0))
>>> sim = Simulator(system, lookup)
>>> result_apt = sim.run(dfg, APT(alpha=4.0))
>>> result_met = sim.run(dfg, MET())
"""

from repro.core.system import (
    Processor,
    ProcessorType,
    SystemConfig,
    CPU_GPU_FPGA,
)
from repro.core.lookup import LookupTable, LookupEntry
from repro.core.simulator import (
    Simulator,
    SimulationResult,
    StreamResult,
    StreamStats,
)
from repro.core.schedule import Schedule, ScheduleEntry
from repro.core.metrics import (
    AppServiceRecord,
    LambdaStats,
    ServiceMetrics,
    SimulationMetrics,
)
from repro.graphs.dfg import DFG, KernelSpec
from repro.graphs.generators import (
    make_type1_dfg,
    make_type2_dfg,
    make_layered_dfg,
    make_chain_dfg,
    make_fork_join_dfg,
)
from repro.policies import (
    APT,
    MinMin,
    MaxMin,
    Sufferage,
    CPOP,
    APT_RT,
    MET,
    SPN,
    SS,
    AG,
    HEFT,
    PEFT,
    OLB,
    RandomPolicy,
    get_policy,
    available_policies,
)
from repro.data.paper_tables import paper_lookup_table, figure5_lookup_table
from repro.core.energy import PowerModel, DEFAULT_POWER_MODEL, EnergyReport, energy_of
from repro.graphs.streams import ApplicationArrival, ApplicationStream, ArrivalSource
from repro.graphs.sources import (
    BurstProfile,
    DiurnalProfile,
    GeneratorSource,
    PoissonProfile,
)

__version__ = "1.0.0"

__all__ = [
    "Processor",
    "ProcessorType",
    "SystemConfig",
    "CPU_GPU_FPGA",
    "LookupTable",
    "LookupEntry",
    "Simulator",
    "SimulationResult",
    "StreamResult",
    "StreamStats",
    "Schedule",
    "ScheduleEntry",
    "SimulationMetrics",
    "ServiceMetrics",
    "AppServiceRecord",
    "LambdaStats",
    "DFG",
    "KernelSpec",
    "make_type1_dfg",
    "make_type2_dfg",
    "make_layered_dfg",
    "make_chain_dfg",
    "make_fork_join_dfg",
    "APT",
    "APT_RT",
    "MET",
    "SPN",
    "SS",
    "AG",
    "HEFT",
    "PEFT",
    "OLB",
    "RandomPolicy",
    "MinMin",
    "MaxMin",
    "Sufferage",
    "CPOP",
    "PowerModel",
    "DEFAULT_POWER_MODEL",
    "EnergyReport",
    "energy_of",
    "ApplicationArrival",
    "ApplicationStream",
    "ArrivalSource",
    "GeneratorSource",
    "PoissonProfile",
    "BurstProfile",
    "DiurnalProfile",
    "get_policy",
    "available_policies",
    "paper_lookup_table",
    "figure5_lookup_table",
    "__version__",
]
