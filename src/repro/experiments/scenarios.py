"""Declarative scenario registry: system topology × workload × policy grid.

A **scenario** bundles everything one experiment needs — the hardware
platform (including its interconnect :class:`~repro.core.topology.
Topology`), a declaratively-named workload, the policy grid and the
simulation settings — into one serializable :class:`ScenarioSpec`.
Specs are plain dataclasses of JSON-safe parts (``to_dict`` /
``from_dict`` round-trip), so a scenario can live in a config file, a
cache key or a CLI invocation equally well.

The module ships a catalog of registered scenarios (the paper suites on
their star-topology equivalent, a dual-socket PCIe switch tree, an
NVLink-style GPU mesh, an edge cluster on a shared bus, and a 10k-kernel
stream on a 12-processor fat tree) and :func:`run_scenarios`, the one
way a grid runs: it expands specs into :class:`~repro.experiments.sweep.
SweepJob` items and executes them as one batch of the cached sweep
engine — so re-running a scenario only simulates what changed.

Authoring guide with a topology cookbook: ``docs/scenarios.md``.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.dynamics import DynamicsSpec
from repro.core.lookup import LookupTable
from repro.core.system import CPU_GPU_FPGA, Processor, ProcessorType, SystemConfig
from repro.core.topology import (
    bus_topology,
    fat_tree_topology,
    mesh_topology,
    star_topology,
    tree_topology,
)
from repro.data.paper_tables import paper_lookup_table
from repro.experiments.report import TableResult
from repro.experiments.sweep import (
    LINK_OVERRIDES_ERROR,
    BoundedLRU,
    JobResult,
    PolicySpec,
    SimSettings,
    SweepEngine,
    SweepJob,
    make_job,
    system_from_dict,
    system_to_dict,
)
from repro.experiments.workloads import (
    DEFAULT_SEED,
    WORKLOAD_KINDS,
    WorkloadUnit,
    build_workload,
)


@dataclass(frozen=True)
class WorkloadSpec:
    """A declaratively-named workload: a kind plus sorted parameters.

    ``kind`` indexes :data:`~repro.experiments.workloads.WORKLOAD_KINDS`;
    ``params`` is a sorted tuple of (key, value) pairs so specs are
    order-insensitive and JSON-stable (the same convention as
    :class:`~repro.experiments.sweep.PolicySpec`).

    Construction rejects a kind that is not registered (``ValueError``)
    and parameters its builder's signature cannot bind (``TypeError``),
    so a bad spec fails where it enters, not when it is expanded.
    """

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        builder = WORKLOAD_KINDS.get(self.kind)
        if builder is None:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; "
                f"available: {sorted(WORKLOAD_KINDS)}"
            )
        try:
            inspect.signature(builder).bind(**dict(self.params))
        except TypeError as exc:
            raise TypeError(f"workload {self.kind!r}: {exc}") from None

    @classmethod
    def of(cls, kind: str, **params: object) -> "WorkloadSpec":
        return cls(kind=kind, params=tuple(sorted(params.items())))

    def build(self):
        """Materialize the workload: a list of ``(DFG, arrivals)`` units."""
        return build_workload(self.kind, **dict(self.params))

    def to_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "WorkloadSpec":
        return cls.of(str(data["kind"]), **dict(data.get("params") or {}))  # type: ignore[arg-type]


#: Most kernels the expansion memo retains.  A built and serialized unit
#: holds about 0.8 KiB per kernel (7.7 MiB for the 10,008-kernel
#: ``fat_tree_streaming`` stream), so the memo stays under 16 MiB; every
#: registered scenario's workload fits at once.
_UNIT_MEMO_KERNELS = 20_000
#: canonical workload JSON -> its units, weighed by their kernel count
_UNIT_MEMO = BoundedLRU(_UNIT_MEMO_KERNELS)


def _expansion_units(workload: WorkloadSpec) -> list[WorkloadUnit]:
    """``workload.build()``, built once per process while it fits the memo.

    Only :meth:`ScenarioSpec.jobs` reads these units, and it only
    serializes them, so no caller ever holds a shared DFG.  The key is
    the workload's canonical JSON, not spec equality, which takes
    ``seed=2017.0`` for ``seed=2017``; a workload whose parameters are
    not JSON is built every time.
    """
    try:
        key = json.dumps(workload.to_dict(), sort_keys=True)
    except (TypeError, ValueError):
        return workload.build()
    units = _UNIT_MEMO.get(key)
    if units is None:
        units = workload.build()
        _UNIT_MEMO.put(key, units, sum(len(unit.dfg) for unit in units))
    return units  # type: ignore[return-value]


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-described experiment scenario.

    ``system`` is the :func:`~repro.experiments.sweep.system_to_dict`
    form of the platform (processors, flat rate, optional topology) —
    already the serialization the sweep engine hashes, so the scenario's
    platform enters every job's cache key unchanged.

    Construction rejects a ``system`` whose ``link_overrides`` is not
    empty, so such a spec fails where it enters, not when it is expanded.
    """

    name: str
    description: str
    system: Mapping[str, object]
    workload: WorkloadSpec
    policies: tuple[PolicySpec, ...]
    settings: SimSettings = field(default_factory=SimSettings)
    #: ordered runtime-dynamics stack applied to every job of the
    #: scenario (fault injection, preemption); hashed into the cache key.
    dynamics: tuple[DynamicsSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.policies:
            raise ValueError(f"scenario {self.name!r} has an empty policy grid")
        if self.system.get("link_overrides"):
            raise ValueError(LINK_OVERRIDES_ERROR)

    # ------------------------------------------------------------------
    def build_system(self) -> SystemConfig:
        return system_from_dict(self.system)

    def jobs(self, lookup: LookupTable | None = None) -> list[SweepJob]:
        """Expand the scenario into sweep jobs (policy-major, then DFG)."""
        lookup = lookup if lookup is not None else paper_lookup_table()
        system = self.build_system()
        units = _expansion_units(self.workload)
        out: list[SweepJob] = []
        for policy in self.policies:
            for index, unit in enumerate(units):
                out.append(
                    make_job(
                        unit.dfg,
                        policy,
                        system,
                        lookup,
                        settings=self.settings,
                        arrivals=unit.arrivals,
                        app_spans=unit.app_spans,
                        source=unit.source,
                        dynamics=self.dynamics or None,
                        tag={
                            "scenario": self.name,
                            "policy": policy.name,
                            "graph_index": index,
                        },
                    )
                )
        return out

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "system": dict(self.system),
            "workload": self.workload.to_dict(),
            "policies": [p.to_dict() for p in self.policies],
            "settings": self.settings.noise_dict(),
            "dynamics": [d.to_dict() for d in self.dynamics],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioSpec":
        return cls(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            system=dict(data["system"]),  # type: ignore[arg-type]
            workload=WorkloadSpec.from_dict(data["workload"]),  # type: ignore[arg-type]
            policies=tuple(
                PolicySpec.from_dict(p) for p in data["policies"]  # type: ignore[union-attr]
            ),
            settings=SimSettings.from_dict(data["settings"]),  # type: ignore[arg-type]
            dynamics=tuple(
                DynamicsSpec.from_dict(d) for d in data.get("dynamics") or ()  # type: ignore[union-attr]
            ),
        )

    def describe(self) -> str:
        """Multi-line human-readable summary (the CLI's ``scenario show``)."""
        lines = [
            f"scenario : {self.name}",
            f"  {self.description}",
            f"workload : {self.workload.kind} {dict(self.workload.params)}",
            f"policies : {', '.join(policy_labels(self.policies))}",
        ]
        if self.dynamics:
            lines.append(
                "dynamics : "
                + "; ".join(
                    f"{d.kind} {dict(d.params)}" if d.params else d.kind
                    for d in self.dynamics
                )
            )
        lines.append(self.build_system().describe())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_SCENARIOS: dict[str, ScenarioSpec] = {}


def register_scenario(
    factory: Callable[[], ScenarioSpec],
) -> Callable[[], ScenarioSpec]:
    """Register a scenario factory; the spec's ``name`` is the key.

    Used as a decorator on a zero-argument function returning a
    :class:`ScenarioSpec`.  The factory runs once at registration (specs
    are cheap — workloads stay declarative until :func:`run_scenarios`).
    """
    spec = factory()
    if spec.name in _SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _SCENARIOS[spec.name] = spec
    return factory


def available_scenarios() -> tuple[str, ...]:
    """All registered scenario names, alphabetically."""
    return tuple(sorted(_SCENARIOS))


def get_scenario(name: str) -> ScenarioSpec:
    spec = _SCENARIOS.get(name)
    if spec is None:
        raise KeyError(
            f"unknown scenario {name!r}; available: {list(available_scenarios())}"
        )
    return spec


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def policy_labels(policies: Sequence[PolicySpec]) -> list[str]:
    """Display labels, one per spec — disambiguated by parameters when
    the same registry name appears more than once in a grid (e.g. plain
    vs preemptive ``apt_rt``)."""
    counts: dict[str, int] = {}
    for spec in policies:
        counts[spec.name] = counts.get(spec.name, 0) + 1
    labels = []
    for spec in policies:
        if counts[spec.name] > 1 and spec.params:
            params = ",".join(f"{k}={v}" for k, v in spec.params)
            labels.append(f"{spec.name}({params})")
        else:
            labels.append(spec.name)
    return labels


@dataclass(frozen=True)
class ScenarioOutcome:
    """A scenario's results, one :class:`JobResult` per (policy, DFG)."""

    spec: ScenarioSpec
    results: tuple[JobResult, ...]

    def by_policy(self) -> list[list[JobResult]]:
        """One list per spec policy, in grid order, each in workload-unit
        order (a grid that lists a policy twice keeps both lists)."""
        n = len(self.results) // len(self.spec.policies)
        return [
            list(self.results[i * n : (i + 1) * n])
            for i in range(len(self.spec.policies))
        ]

    def table(self) -> TableResult:
        """Mean makespan / λ / energy per policy, ready for rendering.

        Open-system scenarios (jobs carrying app spans) additionally
        report the service-level block: mean/p95 response time, mean
        slowdown and application throughput.  Scenarios carrying runtime
        dynamics (fault injection, preemption) report the availability
        block: mean processor availability, fault and preemption counts.
        """
        service = any(r.n_applications for r in self.results)
        faulty = any("fault" in r.dynamics for r in self.results)
        preemptive = any("preempt" in r.dynamics for r in self.results)
        rows = []
        for name, results in zip(policy_labels(self.spec.policies), self.by_policy()):
            base, sep, rest = name.partition("(")
            n = len(results)
            row = [
                base.upper() + sep + rest,
                n,
                sum(r.makespan for r in results) / n,
                sum(r.total_lambda for r in results) / n,
                sum(r.energy_joules for r in results) / n,
            ]
            if service:
                row += [
                    sum(r.mean_response_ms for r in results) / n,
                    sum(r.p95_response_ms for r in results) / n,
                    sum(r.mean_slowdown for r in results) / n,
                    sum(r.throughput_apps_per_s for r in results) / n,
                ]
            if faulty:
                row += [
                    100.0 * sum(r.mean_availability for r in results) / n,
                    sum(r.n_faults for r in results) / n,
                ]
            if preemptive:
                row.append(sum(r.n_preemptions for r in results) / n)
            rows.append(tuple(row))
        headers = ["Policy", "Graphs", "Makespan (ms)", "Total λ (ms)", "Energy (J)"]
        if service:
            headers += ["Resp (ms)", "p95 Resp (ms)", "Slowdown", "Apps/s"]
        if faulty:
            headers += ["Avail (%)", "Faults"]
        if preemptive:
            headers.append("Preempts")
        return TableResult(
            title=f"Scenario {self.spec.name}",
            headers=tuple(headers),
            rows=tuple(rows),
            notes=self.spec.description,
        )


def run_scenarios(
    specs: Sequence[ScenarioSpec],
    engine: SweepEngine | None = None,
    lookup: LookupTable | None = None,
) -> list[ScenarioOutcome]:
    """Run every job of ``specs`` as one batch of the (cached, parallel)
    sweep engine, so a multi-worker engine parallelizes the whole grid;
    one outcome per spec, in order."""
    engine = engine if engine is not None else SweepEngine()
    lookup = lookup if lookup is not None else paper_lookup_table()
    expanded = [spec.jobs(lookup) for spec in specs]
    results = iter(engine.run_jobs([job for jobs in expanded for job in jobs]))
    return [
        ScenarioOutcome(spec=spec, results=tuple(islice(results, len(jobs))))
        for spec, jobs in zip(specs, expanded)
    ]


def run_scenario(
    scenario: "str | ScenarioSpec",
    engine: SweepEngine | None = None,
    lookup: LookupTable | None = None,
) -> ScenarioOutcome:
    """Run one scenario (a registered name or a spec)."""
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    [outcome] = run_scenarios([spec], engine, lookup)
    return outcome


# ----------------------------------------------------------------------
# the shipped catalog
# ----------------------------------------------------------------------
def _system_dict(
    processors: Iterable[Processor], topology, rate_gbps: float = 4.0
) -> dict[str, object]:
    return system_to_dict(
        SystemConfig(list(processors), transfer_rate_gbps=rate_gbps, topology=topology)
    )


def _paper_star_scenario(dfg_type: int) -> ScenarioSpec:
    # The paper's flat 4 GB/s link table, expressed as its star-topology
    # equivalent: per-processor 4 GB/s edges into an infinite hub,
    # contention off.  Bit-for-bit the flat numbers (asserted in
    # tests/test_scenarios.py).
    flat = CPU_GPU_FPGA(transfer_rate_gbps=4.0)
    procs = list(flat)
    topo = star_topology([p.name for p in procs], rate_gbps=4.0, name="paper_star")
    return ScenarioSpec(
        name=f"paper_type{dfg_type}",
        description=(
            f"The paper's Type-{dfg_type} evaluation suite on the flat "
            "4 GB/s platform expressed as an equivalent star topology."
        ),
        system=_system_dict(procs, topo),
        workload=WorkloadSpec.of("paper_suite", dfg_type=dfg_type, seed=DEFAULT_SEED),
        policies=tuple(
            PolicySpec.of(name, alpha=1.5) if name == "apt" else PolicySpec.of(name)
            for name in ("apt", "met", "spn", "ss", "ag", "heft", "peft")
        ),
    )


@register_scenario
def paper_type1_scenario() -> ScenarioSpec:
    return _paper_star_scenario(1)


@register_scenario
def paper_type2_scenario() -> ScenarioSpec:
    return _paper_star_scenario(2)


@register_scenario
def dual_socket_tree_scenario() -> ScenarioSpec:
    # Two PCIe switches (one per socket) with 8 GB/s leaf links and a
    # 16 GB/s inter-socket uplink pair through the root complex.
    procs = [
        Processor("cpu0", ProcessorType.CPU),
        Processor("gpu0", ProcessorType.GPU),
        Processor("fpga0", ProcessorType.FPGA),
        Processor("cpu1", ProcessorType.CPU),
        Processor("gpu1", ProcessorType.GPU),
        Processor("fpga1", ProcessorType.FPGA),
    ]
    topo = tree_topology(
        {
            "socket0": ["cpu0", "gpu0", "fpga0"],
            "socket1": ["cpu1", "gpu1", "fpga1"],
        },
        leaf_gbps=8.0,
        uplink_gbps=16.0,
        contention=True,
        name="dual_socket_tree",
    )
    return ScenarioSpec(
        name="dual_socket_tree",
        description=(
            "Dual-socket PCIe-switch tree (2 CPUs + 2 GPUs + 2 FPGAs); "
            "cross-socket transfers contend on the 16 GB/s uplinks."
        ),
        system=_system_dict(procs, topo),
        workload=WorkloadSpec.of("paper_suite", dfg_type=1, seed=DEFAULT_SEED, n_graphs=4),
        policies=(PolicySpec.of("apt", alpha=2.0), PolicySpec.of("met"), PolicySpec.of("heft")),
    )


@register_scenario
def nvlink_mesh_scenario() -> ScenarioSpec:
    # Four GPUs on a 25 GB/s all-to-all mesh; the host CPU and an FPGA
    # reach them over a conventional 4 GB/s PCIe star.
    procs = [
        Processor("cpu0", ProcessorType.CPU),
        Processor("gpu0", ProcessorType.GPU),
        Processor("gpu1", ProcessorType.GPU),
        Processor("gpu2", ProcessorType.GPU),
        Processor("gpu3", ProcessorType.GPU),
        Processor("fpga0", ProcessorType.FPGA),
    ]
    topo = mesh_topology(
        ["gpu0", "gpu1", "gpu2", "gpu3"],
        mesh_gbps=25.0,
        hub_processors=["cpu0", "fpga0"],
        hub_gbps=4.0,
        contention=True,
        name="nvlink_mesh",
    )
    return ScenarioSpec(
        name="nvlink_mesh",
        description=(
            "NVLink-style 4-GPU mesh (25 GB/s point-to-point) with host "
            "CPU and FPGA behind a 4 GB/s PCIe hub."
        ),
        system=_system_dict(procs, topo),
        workload=WorkloadSpec.of("paper_suite", dfg_type=2, seed=DEFAULT_SEED, n_graphs=4),
        policies=(PolicySpec.of("apt", alpha=4.0), PolicySpec.of("ss"), PolicySpec.of("heft")),
    )


@register_scenario
def edge_cluster_bus_scenario() -> ScenarioSpec:
    # Four embedded CPUs and one GPU sharing a 1 GB/s bus with 50 µs
    # arbitration latency: every concurrent transfer contends with every
    # other, the harshest interconnect in the catalog.
    procs = [Processor(f"cpu{i}", ProcessorType.CPU) for i in range(4)]
    procs.append(Processor("gpu0", ProcessorType.GPU))
    topo = bus_topology(
        [p.name for p in procs],
        bus_gbps=1.0,
        latency_ms=0.05,
        contention=True,
        name="edge_bus",
    )
    return ScenarioSpec(
        name="edge_cluster_bus",
        description=(
            "Edge cluster: 4 CPUs + 1 GPU on a single shared 1 GB/s bus "
            "(50 µs latency); all transfers contend on one channel."
        ),
        system=_system_dict(procs, topo),
        workload=WorkloadSpec.of("pipeline", n_kernels=60, stage_width=4, seed=DEFAULT_SEED),
        policies=(PolicySpec.of("apt", alpha=2.0), PolicySpec.of("olb"), PolicySpec.of("ag")),
    )


@register_scenario
def fat_tree_streaming_scenario() -> ScenarioSpec:
    # The PR 2 scale scenario on a real interconnect: 12 processors in a
    # fat tree (leaves of 3 at 8 GB/s, 16 GB/s uplinks), streaming
    # ~10k kernels of Poisson-arriving applications.
    procs = (
        [Processor(f"cpu{i}", ProcessorType.CPU) for i in range(4)]
        + [Processor(f"gpu{i}", ProcessorType.GPU) for i in range(4)]
        + [Processor(f"fpga{i}", ProcessorType.FPGA) for i in range(4)]
    )
    topo = fat_tree_topology(
        [p.name for p in procs],
        leaf_size=3,
        edge_gbps=8.0,
        uplink_gbps=16.0,
        contention=True,
        name="fat_tree_12",
    )
    return ScenarioSpec(
        name="fat_tree_streaming",
        description=(
            "10k-kernel Poisson application stream on a 12-processor "
            "fat tree (3-processor leaves at 8 GB/s, 16 GB/s uplinks)."
        ),
        system=_system_dict(procs, topo, rate_gbps=8.0),
        workload=WorkloadSpec.of("streaming", n_kernels=10_000, seed=DEFAULT_SEED),
        policies=(PolicySpec.of("apt", alpha=4.0), PolicySpec.of("met")),
    )


# ----------------------------------------------------------------------
# open-system scenarios: arrival-rate-parameterized streams with
# service-level (response/slowdown/throughput) accounting
# ----------------------------------------------------------------------
_OPEN_SYSTEM_POLICIES = (
    PolicySpec.of("apt", alpha=4.0),
    PolicySpec.of("met"),
    PolicySpec.of("ss"),
)


@register_scenario
def open_system_poisson_scenario() -> ScenarioSpec:
    # The paper's 3-processor platform under sustained Poisson overload
    # (offered load a few times its service capacity) — the regime where
    # placement quality separates the dynamic policies; raise
    # mean_interarrival_ms toward ~30 s to bring it under the knee.
    flat = CPU_GPU_FPGA(transfer_rate_gbps=4.0)
    return ScenarioSpec(
        name="open_system_poisson",
        description=(
            "Open system: 24 Poisson-arriving mixed applications "
            "(8–16 kernels) on the paper's CPU+GPU+FPGA platform; "
            "service metrics per policy."
        ),
        system=system_to_dict(flat),
        workload=WorkloadSpec.of(
            "open_system",
            n_applications=24,
            seed=DEFAULT_SEED,
            profile="poisson",
            mean_interarrival_ms=8000.0,
        ),
        policies=_OPEN_SYSTEM_POLICIES,
    )


@register_scenario
def open_system_burst_scenario() -> ScenarioSpec:
    # Same platform and application pool, but arrivals land in
    # synchronized bursts of 6 — the admission-control stress case:
    # equal offered load, very different queueing behavior.
    flat = CPU_GPU_FPGA(transfer_rate_gbps=4.0)
    return ScenarioSpec(
        name="open_system_burst",
        description=(
            "Open system: bursts of 6 back-to-back applications every "
            "48 s on the paper platform; equal mean load to the Poisson "
            "twin, far burstier queueing."
        ),
        system=system_to_dict(flat),
        workload=WorkloadSpec.of(
            "open_system",
            n_applications=24,
            seed=DEFAULT_SEED,
            profile="burst",
            burst_size=6,
            within_burst_ms=100.0,
            between_bursts_ms=48_000.0,
        ),
        policies=_OPEN_SYSTEM_POLICIES,
    )


@register_scenario
def open_system_diurnal_scenario() -> ScenarioSpec:
    # Sinusoidally rate-modulated load (a compressed day/night cycle):
    # the system alternates between overload peaks and recovery troughs.
    flat = CPU_GPU_FPGA(transfer_rate_gbps=4.0)
    return ScenarioSpec(
        name="open_system_diurnal",
        description=(
            "Open system: diurnally rate-modulated arrivals (amplitude "
            "0.9, 60 s period) on the paper platform; overload peaks "
            "alternate with recovery troughs."
        ),
        system=system_to_dict(flat),
        workload=WorkloadSpec.of(
            "open_system",
            n_applications=24,
            seed=DEFAULT_SEED,
            profile="diurnal",
            base_mean_ms=8000.0,
            amplitude=0.9,
            period_ms=60_000.0,
        ),
        policies=_OPEN_SYSTEM_POLICIES,
    )


# ----------------------------------------------------------------------
# runtime-dynamics scenarios: fault injection and preemption exercising
# the engine's RuntimeDynamics seams
# ----------------------------------------------------------------------
@register_scenario
def faulty_edge_cluster_scenario() -> ScenarioSpec:
    # The edge-cluster bus platform under processor failures: every
    # device fails on average once a minute (exponential MTTF) and is
    # repaired within seconds.  In-flight kernels on a failed device are
    # re-enqueued and the policies re-consulted — the regime where
    # adaptive placement (APT) separates hardest from load-oblivious
    # baselines, since a static queue keeps feeding a dead processor's
    # neighbors while APT routes around the outage.
    procs = [Processor(f"cpu{i}", ProcessorType.CPU) for i in range(4)]
    procs.append(Processor("gpu0", ProcessorType.GPU))
    topo = bus_topology(
        [p.name for p in procs],
        bus_gbps=1.0,
        latency_ms=0.05,
        contention=True,
        name="edge_bus",
    )
    return ScenarioSpec(
        name="faulty_edge_cluster",
        description=(
            "Edge cluster (4 CPUs + 1 GPU, shared 1 GB/s bus) with "
            "processor failures: MTTF 60 s, MTTR 4 s per device; "
            "in-flight kernels are re-enqueued and rescheduled."
        ),
        system=_system_dict(procs, topo),
        workload=WorkloadSpec.of("pipeline", n_kernels=60, stage_width=4, seed=DEFAULT_SEED),
        policies=(PolicySpec.of("apt", alpha=2.0), PolicySpec.of("olb"), PolicySpec.of("ag")),
        dynamics=(
            DynamicsSpec.of("fault", mttf_ms=60_000.0, mttr_ms=4_000.0, seed=DEFAULT_SEED),
        ),
    )


@register_scenario
def preemptive_rt_scenario() -> ScenarioSpec:
    # APT-RT's real-time lever: on a lightly-loaded open system, a ready
    # kernel stuck behind a long occupant of its best processor (no
    # alternative within the threshold) may evict it under a 2 ms
    # context-switch penalty when the SRPT-style economics pay.  The
    # preemptive variant trades a sliver of mean response for a lower
    # total λ — the per-kernel waiting the paper's metric measures.
    flat = CPU_GPU_FPGA(transfer_rate_gbps=4.0)
    return ScenarioSpec(
        name="preemptive_rt",
        description=(
            "Open system (24 Poisson applications, light load) with "
            "preemption enabled at a 2 ms penalty: plain vs preemptive "
            "APT-RT, with MET as the inflexible baseline."
        ),
        system=system_to_dict(flat),
        workload=WorkloadSpec.of(
            "open_system",
            n_applications=24,
            seed=DEFAULT_SEED,
            profile="poisson",
            mean_interarrival_ms=30_000.0,
        ),
        policies=(
            PolicySpec.of("apt_rt", alpha=1.5),
            PolicySpec.of("apt_rt", alpha=1.5, preemptive=True, preempt_factor=1.5),
            PolicySpec.of("met"),
        ),
        dynamics=(DynamicsSpec.of("preempt", penalty_ms=2.0),),
    )


__all__ = [
    "ScenarioOutcome",
    "ScenarioSpec",
    "WorkloadSpec",
    "available_scenarios",
    "get_scenario",
    "policy_labels",
    "register_scenario",
    "run_scenario",
    "run_scenarios",
]
