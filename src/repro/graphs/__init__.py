"""Workload model: kernel dataflow graphs (DFGs) and generators.

The scheduler's input is "a stream of applications … represented as a DFG
of kernels" (paper §3.2).  This subpackage provides:

* :mod:`repro.graphs.dfg` — the DFG container;
* :mod:`repro.graphs.generators` — the paper's DFG Type-1 / Type-2 shapes
  plus general-purpose DAG generators;
* :mod:`repro.graphs.analysis` — critical path, levels, parallelism;
* :mod:`repro.graphs.streams` / :mod:`repro.graphs.sources` — application
  streams: arrival sources and their rate profiles;
* :mod:`repro.graphs.serialization` — JSON round-trips.
"""

from repro.graphs.dfg import DFG, KernelSpec
from repro.graphs.generators import (
    make_type1_dfg,
    make_type2_dfg,
    make_layered_dfg,
    make_chain_dfg,
    make_fork_join_dfg,
    make_independent_dfg,
    KernelPopulation,
    PAPER_KERNEL_POPULATION,
)
from repro.graphs.analysis import (
    critical_path,
    critical_path_length,
    levels,
    parallelism_profile,
    sequential_time,
    lower_bound_makespan,
)
from repro.graphs.serialization import dfg_to_dict, dfg_from_dict, save_dfg, load_dfg
from repro.graphs.streams import ApplicationArrival, ApplicationStream, ArrivalSource
from repro.graphs.sources import (
    BurstProfile,
    DiurnalProfile,
    GeneratorSource,
    PoissonProfile,
    RateProfile,
)

__all__ = [
    "DFG",
    "KernelSpec",
    "make_type1_dfg",
    "make_type2_dfg",
    "make_layered_dfg",
    "make_chain_dfg",
    "make_fork_join_dfg",
    "make_independent_dfg",
    "KernelPopulation",
    "PAPER_KERNEL_POPULATION",
    "critical_path",
    "critical_path_length",
    "levels",
    "parallelism_profile",
    "sequential_time",
    "lower_bound_makespan",
    "ApplicationArrival",
    "ApplicationStream",
    "ArrivalSource",
    "GeneratorSource",
    "RateProfile",
    "PoissonProfile",
    "BurstProfile",
    "DiurnalProfile",
    "dfg_to_dict",
    "dfg_from_dict",
    "save_dfg",
    "load_dfg",
]
