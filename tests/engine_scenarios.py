"""Scenario helpers shared by the engine fuzzer and the golden corpus.

Every helper takes plain scalars, so a scenario is fully described by
the keyword arguments that produced it: hypothesis prints them on a
falsifying example, and ``tests/golden_corpus.json`` stores them next to
each recorded digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from repro.core.dynamics import DynamicsSpec
from repro.core.simulator import Simulator
from repro.core.system import Processor, ProcessorType, SystemConfig
from repro.core.topology import star_topology
from repro.data.paper_tables import paper_lookup_table
from repro.graphs.generators import (
    make_chain_dfg,
    make_fork_join_dfg,
    make_independent_dfg,
    make_layered_dfg,
    make_pipeline_dfg,
    make_type1_dfg,
    make_type2_dfg,
)
from repro.graphs.streams import ApplicationArrival, ApplicationStream
from repro.policies.registry import available_policies, get_policy

LOOKUP = paper_lookup_table()

#: fault parameters far from the starvation regime (mttf ≫ service times)
FAULT_PARAMS = {"mttf_ms": 60000.0, "mttr_ms": 4000.0}

DYNAMICS_COMBOS = {
    "none": (),
    "fault": ("fault",),
    "preempt": ("preempt",),
    "fault+preempt": ("fault", "preempt"),
}

SHAPES = ("type1", "type2", "independent", "chain", "forkjoin", "pipeline",
          "layered")
STREAM_SHAPES = ("type1", "forkjoin", "pipeline", "chain")
TOPOLOGIES = ("flat", "star", "star_contended")

#: inclusive ranges of the integer draws
N_RANGE = (4, 24)
SEED_RANGE = (0, 2**16)
PROCS_RANGE = (1, 2)
DYNAMICS_SEED_RANGE = (0, 7)
N_APPS_RANGE = (1, 5)


def shipped_policies() -> tuple[str, ...]:
    """Every policy the package registers, whatever else the process
    imported or registered: the built-ins plus the ablation variant."""
    import repro.experiments.ablations  # noqa: F401  (registers apt_longest_first)

    return tuple(
        name for name in available_policies()
        if type(get_policy(name)).__module__.startswith("repro.")
    )


def build_dfg(shape: str, n: int, graph_seed: int):
    rng = np.random.default_rng(graph_seed)
    if shape == "type1":
        return make_type1_dfg(max(n, 2), rng=rng)
    if shape == "type2":
        return make_type2_dfg(max(n, 13), rng=rng)
    if shape == "independent":
        return make_independent_dfg(n, rng=rng)
    if shape == "chain":
        return make_chain_dfg(n, rng=rng)
    if shape == "forkjoin":
        return make_fork_join_dfg(max(n - 2, 1), rng=rng)
    if shape == "pipeline":
        return make_pipeline_dfg(n, rng=rng, stage_width=3)
    assert shape == "layered"
    return make_layered_dfg(n, min(4, n), rng=rng)


def build_system(n_cpu: int, n_gpu: int, n_fpga: int, topology: str):
    procs = (
        [Processor(f"cpu{i}", ProcessorType.CPU) for i in range(n_cpu)]
        + [Processor(f"gpu{i}", ProcessorType.GPU) for i in range(n_gpu)]
        + [Processor(f"fpga{i}", ProcessorType.FPGA) for i in range(n_fpga)]
    )
    if topology == "flat":
        return SystemConfig(procs, transfer_rate_gbps=4.0)
    return SystemConfig(
        procs,
        topology=star_topology(
            [p.name for p in procs],
            rate_gbps=4.0,
            contention=(topology == "star_contended"),
        ),
    )


def build_dynamics(combo: str, seed: int):
    specs = []
    for kind in DYNAMICS_COMBOS[combo]:
        if kind == "fault":
            specs.append(DynamicsSpec("fault", {**FAULT_PARAMS, "seed": seed}))
        else:
            specs.append(DynamicsSpec("preempt", {"penalty_ms": 2.0}))
    return specs


def staggered_arrivals(dfg, arrival_seed: int) -> dict[int, float]:
    rng = np.random.default_rng(arrival_seed)
    return {kid: float(rng.exponential(500.0)) for kid in dfg.entry_kernels()}


def reference_applies(topology: str, dynamics_combo: str) -> bool:
    """Whether :class:`~repro.core.reference.ReferenceSimulator` can run
    the scenario: it predates dynamics and contention."""
    return dynamics_combo == "none" and topology != "star_contended"


def run_scenario(sim_cls, *, shape, n, graph_seed, n_cpu, n_gpu, n_fpga,
                 topology, policy_name, noise, dynamics_combo, dynamics_seed,
                 arrival_seed, staggered):
    """One ``Simulator.run`` scenario, on ``sim_cls``."""
    dfg = build_dfg(shape, n, graph_seed)
    dynamics = build_dynamics(dynamics_combo, dynamics_seed)
    sim = sim_cls(
        build_system(n_cpu, n_gpu, n_fpga, topology),
        LOOKUP,
        exec_noise_sigma=0.25 if noise else 0.0,
        noise_seed=13,
        dynamics=dynamics or None,
    )
    arrivals = staggered_arrivals(dfg, arrival_seed) if staggered else None
    return sim.run(dfg, get_policy(policy_name), arrivals=arrivals)


def build_stream(n_apps: int, shapes, graph_seed: int, arrival_seed: int):
    rng = np.random.default_rng(arrival_seed)
    t = 0.0
    apps = []
    for i in range(n_apps):
        apps.append(ApplicationArrival(build_dfg(shapes[i], 6, graph_seed + i), t))
        t += float(rng.exponential(2000.0))
    return ApplicationStream(apps)


def stream_simulator(dynamics_combo: str) -> Simulator:
    """The flat 2+1+1 system every stream scenario runs on."""
    dynamics = build_dynamics(dynamics_combo, 1)
    return Simulator(
        build_system(2, 1, 1, "flat"), LOOKUP, dynamics=dynamics or None
    )


def run_stream_scenario(*, n_apps, shapes, graph_seed, arrival_seed,
                        policy_name, dynamics_combo):
    """One ``Simulator.run_stream`` scenario."""
    stream = build_stream(n_apps, shapes, graph_seed, arrival_seed)
    sim = stream_simulator(dynamics_combo)
    return sim.run_stream(stream, get_policy(policy_name))


def assert_same_run(a, b, label: str) -> None:
    assert list(a.schedule) == list(b.schedule), f"schedule divergence ({label})"
    assert a.metrics == b.metrics, f"metrics divergence ({label})"
    assert a.policy_stats == b.policy_stats, f"policy-stats divergence ({label})"


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot digest {type(value).__name__}")


def result_digest(result) -> str:
    """sha256 of a run's schedule, metrics, policy stats and dynamics
    stats, plus its service metrics when it is a stream result.

    Floats are written with ``repr`` (json's float format), so the digest
    changes with the last bit of any simulated time.
    """
    payload = {
        "schedule": [e._asdict() for e in result.schedule],
        "metrics": dataclasses.asdict(result.metrics),
        "policy_stats": result.policy_stats,
        "dynamics_stats": result.dynamics_stats,
    }
    service = getattr(result, "service", None)
    if service is not None:
        payload["service"] = dataclasses.asdict(service)
    text = json.dumps(payload, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
