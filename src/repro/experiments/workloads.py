"""The evaluation workload suites.

The paper evaluates on 10 graphs per DFG type whose kernel counts are
published in Tables 15/16 (46, 58, 50, 73, 69, 81, 125, 93, 132, 157) but
whose exact contents are not.  We regenerate them with seeded RNGs from
the paper's kernel/data-size population, so every experiment in this repo
is exactly reproducible even though absolute milliseconds differ from the
paper (see docs/architecture.md, "Reproduction notes").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.metrics import AppSpan, stream_app_spans
from repro.core.system import CPU_GPU_FPGA, SystemConfig
from repro.data.paper_tables import PAPER_GRAPH_SIZES
from repro.graphs.dfg import DFG
from repro.graphs.generators import (
    PAPER_KERNEL_POPULATION,
    KernelPopulation,
    make_fork_join_dfg,
    make_pipeline_dfg,
    make_type1_dfg,
    make_type2_dfg,
)
from repro.graphs.sources import (
    ArrivalSource,
    BurstProfile,
    DiurnalProfile,
    GeneratorSource,
    PoissonProfile,
    RateProfile,
)
from repro.graphs.streams import (
    ApplicationArrival,
    ApplicationStream,
    poisson_stream,
)

#: Year of the paper — the suite's default base seed.
DEFAULT_SEED = 2017


def paper_type1_suite(
    seed: int = DEFAULT_SEED,
    population: KernelPopulation = PAPER_KERNEL_POPULATION,
    sizes: tuple[int, ...] = PAPER_GRAPH_SIZES,
) -> list[DFG]:
    """The ten DFG Type-1 evaluation graphs (seeded)."""
    return [
        make_type1_dfg(
            n,
            rng=np.random.default_rng(seed * 1000 + i),
            population=population,
            name=f"type1_exp{i + 1}_n{n}",
        )
        for i, n in enumerate(sizes)
    ]


def paper_type2_suite(
    seed: int = DEFAULT_SEED,
    population: KernelPopulation = PAPER_KERNEL_POPULATION,
    sizes: tuple[int, ...] = PAPER_GRAPH_SIZES,
) -> list[DFG]:
    """The ten DFG Type-2 evaluation graphs (seeded).

    Uses the same kernel streams as the Type-1 suite (same seeds), echoing
    the paper's method of fitting one series of kernels into either graph
    model.
    """
    return [
        make_type2_dfg(
            n,
            rng=np.random.default_rng(seed * 1000 + i),
            population=population,
            name=f"type2_exp{i + 1}_n{n}",
        )
        for i, n in enumerate(sizes)
    ]


def paper_suite(dfg_type: int, seed: int = DEFAULT_SEED) -> list[DFG]:
    """Suite selector: ``dfg_type`` 1 or 2."""
    if dfg_type == 1:
        return paper_type1_suite(seed)
    if dfg_type == 2:
        return paper_type2_suite(seed)
    raise ValueError(f"dfg_type must be 1 or 2, got {dfg_type}")


# ----------------------------------------------------------------------
# scale scenarios (beyond the paper's 10-graph suites)
# ----------------------------------------------------------------------


def scale_system(
    n_cpu: int = 4,
    n_gpu: int = 4,
    n_fpga: int = 4,
    transfer_rate_gbps: float = 8.0,
) -> SystemConfig:
    """A many-processor platform (default 12 devices: 4×CPU+4×GPU+4×FPGA).

    The paper's evaluation uses one device per category; this is the
    many-GPU / many-FPGA configuration the scale scenarios (and the
    ``lumos``-style heterogeneous-system models in the related work)
    target.  Uniform links, PCIe 2.0 ×16 by default.
    """
    return CPU_GPU_FPGA(
        transfer_rate_gbps=transfer_rate_gbps,
        n_cpu=n_cpu,
        n_gpu=n_gpu,
        n_fpga=n_fpga,
    )


def streaming_scale_stream(
    n_kernels: int = 10_000,
    seed: int = DEFAULT_SEED,
    mean_interarrival_ms: float = 3000.0,
    population: KernelPopulation = PAPER_KERNEL_POPULATION,
) -> ApplicationStream:
    """A Poisson stream of small applications totalling ≈ ``n_kernels``.

    Applications alternate between the paper's Type-1 shape, small
    fork-joins and short pipelines (8–16 kernels each), arriving with
    exponential gaps — the online regime the paper frames but does not
    evaluate.  Deterministic for a fixed seed.

    The default inter-arrival mean (3 s for ~12-kernel applications
    of Table 14 kernels) keeps a 12-processor system loaded but not
    unboundedly backlogged, so the ready set stays realistic for a
    service deployment rather than growing without limit.
    """
    if n_kernels < 8:
        raise ValueError("a scale stream needs at least 8 kernels")
    rng = np.random.default_rng(seed)
    sizes: list[int] = []
    total = 0
    while total < n_kernels:
        n = int(rng.integers(8, 17))
        sizes.append(n)
        total += n

    def factory(i: int, rng: np.random.Generator) -> DFG:
        n = sizes[i]
        shape = i % 3
        if shape == 0:
            return make_type1_dfg(n, rng=rng, population=population, name=f"app{i}_t1")
        if shape == 1:
            return make_fork_join_dfg(
                n - 2, rng=rng, population=population, name=f"app{i}_fj"
            )
        return make_pipeline_dfg(
            n, rng=rng, population=population, stage_width=4, name=f"app{i}_pipe"
        )

    return poisson_stream(len(sizes), mean_interarrival_ms, factory, rng)


class _ScaleStreamSource(ArrivalSource):
    """Lazy form of :func:`streaming_scale_stream`.

    Replays the eager builder's RNG consumption order exactly — the
    size pre-draw, then per application the DFG draws followed by the
    exponential gap — so ``materialize()`` is bit-for-bit the stream
    :func:`streaming_scale_stream` returns with the same parameters
    (pinned by ``tests/test_simulator_stream.py``).  With streaming
    admission and retirement, peak memory stays bounded by the *live*
    window, not the stream length.
    """

    def __init__(
        self,
        n_kernels: int = 10_000,
        seed: int = DEFAULT_SEED,
        mean_interarrival_ms: float = 3000.0,
        population: KernelPopulation = PAPER_KERNEL_POPULATION,
    ) -> None:
        if n_kernels < 8:
            raise ValueError("a scale stream needs at least 8 kernels")
        if mean_interarrival_ms <= 0:
            raise ValueError("mean_interarrival_ms must be positive")
        self.n_kernels = int(n_kernels)
        self.seed = int(seed)
        self.mean_interarrival_ms = float(mean_interarrival_ms)
        self.population = population
        # The size pre-draw is cheap (~n/12 ints) — running it here too
        # fixes __len__ and the total without disturbing _generate's
        # replay, which repeats the same draws from the same seed.
        self._sizes = self._draw_sizes(np.random.default_rng(self.seed))
        self.total_kernels = sum(self._sizes)
        self.name = f"scale_stream_n{self.total_kernels}_s{self.seed}"

    def _draw_sizes(self, rng: np.random.Generator) -> list[int]:
        sizes: list[int] = []
        total = 0
        while total < self.n_kernels:
            n = int(rng.integers(8, 17))
            sizes.append(n)
            total += n
        return sizes

    def __len__(self) -> int:
        return len(self._sizes)

    def _generate(self) -> Iterator[ApplicationArrival]:
        rng = np.random.default_rng(self.seed)
        sizes = self._draw_sizes(rng)  # advance rng past the pre-draw
        population = self.population
        t = 0.0
        for i, n in enumerate(sizes):
            shape = i % 3
            if shape == 0:
                dfg = make_type1_dfg(
                    n, rng=rng, population=population, name=f"app{i}_t1"
                )
            elif shape == 1:
                dfg = make_fork_join_dfg(
                    n - 2, rng=rng, population=population, name=f"app{i}_fj"
                )
            else:
                dfg = make_pipeline_dfg(
                    n, rng=rng, population=population, stage_width=4,
                    name=f"app{i}_pipe",
                )
            yield ApplicationArrival(dfg, t)
            t += float(rng.exponential(self.mean_interarrival_ms))


def streaming_scale_source(
    n_kernels: int = 10_000,
    seed: int = DEFAULT_SEED,
    mean_interarrival_ms: float = 3000.0,
    population: KernelPopulation = PAPER_KERNEL_POPULATION,
) -> _ScaleStreamSource:
    """The lazy :class:`ArrivalSource` twin of :func:`streaming_scale_stream`."""
    return _ScaleStreamSource(n_kernels, seed, mean_interarrival_ms, population)


def streaming_scale_workload(
    n_kernels: int = 10_000,
    seed: int = DEFAULT_SEED,
    mean_interarrival_ms: float = 3000.0,
    population: KernelPopulation = PAPER_KERNEL_POPULATION,
) -> tuple[DFG, dict[int, float]]:
    """The merged (DFG, arrivals) form of :func:`streaming_scale_stream`.

    Ready for ``Simulator.run(dfg, policy, arrivals=arrivals)``; the
    benchmark scenario of ``benchmarks/test_bench_simulator_scale.py``
    pairs it with :func:`scale_system`.
    """
    stream = streaming_scale_stream(
        n_kernels, seed, mean_interarrival_ms, population
    )
    return stream.merged(name=f"scale_stream_n{stream.n_kernels}_s{seed}")


# ----------------------------------------------------------------------
# declarative workload kinds (the scenario registry's vocabulary)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadUnit:
    """One simulation unit a workload expands to.

    ``arrivals`` is the per-kernel arrival map (``None`` for
    submitted-at-once workloads); ``app_spans`` attributes kernel-id
    blocks to applications for service-level metrics; ``source``
    optionally carries the declarative arrival-source description, which
    the sweep engine folds into the job's cache key.
    """

    dfg: DFG
    arrivals: "dict[int, float] | None" = None
    app_spans: "tuple[AppSpan, ...] | None" = None
    source: "dict[str, object] | None" = None


def _paper_suite_workload(
    dfg_type: int = 1, seed: int = DEFAULT_SEED, n_graphs: int | None = None
) -> list[WorkloadUnit]:
    suite = paper_suite(dfg_type, seed)
    if n_graphs is not None:
        suite = suite[:n_graphs]
    return [WorkloadUnit(dfg) for dfg in suite]


def _streaming_workload(
    n_kernels: int = 10_000,
    seed: int = DEFAULT_SEED,
    mean_interarrival_ms: float = 3000.0,
) -> list[WorkloadUnit]:
    stream = streaming_scale_stream(n_kernels, seed, mean_interarrival_ms)
    dfg, arrivals = stream.merged(name=f"scale_stream_n{stream.n_kernels}_s{seed}")
    return [
        WorkloadUnit(
            dfg,
            arrivals=arrivals,
            app_spans=stream_app_spans(stream),
            source={
                "kind": "streaming",
                "n_kernels": n_kernels,
                "seed": seed,
                "mean_interarrival_ms": mean_interarrival_ms,
            },
        )
    ]


def _pipeline_workload(
    n_kernels: int = 64,
    stage_width: int = 4,
    seed: int = DEFAULT_SEED,
) -> list[WorkloadUnit]:
    dfg = make_pipeline_dfg(
        n_kernels,
        rng=np.random.default_rng(seed),
        stage_width=stage_width,
        name=f"pipeline_n{n_kernels}_s{seed}",
    )
    return [WorkloadUnit(dfg)]


# ----------------------------------------------------------------------
# open-system workloads (arrival-rate-parameterized streams)
# ----------------------------------------------------------------------


def mixed_application_factory(
    min_kernels: int = 8,
    max_kernels: int = 16,
    population: KernelPopulation = PAPER_KERNEL_POPULATION,
):
    """Applications cycling through the three stream shapes.

    Each application draws its kernel count uniformly in
    ``[min_kernels, max_kernels]`` and takes the paper's Type-1 shape, a
    fork-join or a short pipeline by index — the same mix as
    :func:`streaming_scale_stream`, but sized lazily so a
    :class:`~repro.graphs.sources.GeneratorSource` can build applications
    on demand.
    """
    if not (1 <= min_kernels <= max_kernels):
        raise ValueError("need 1 <= min_kernels <= max_kernels")

    def factory(i: int, rng: np.random.Generator) -> DFG:
        n = int(rng.integers(min_kernels, max_kernels + 1))
        shape = i % 3
        if shape == 0:
            return make_type1_dfg(n, rng=rng, population=population, name=f"app{i}_t1")
        if shape == 1:
            return make_fork_join_dfg(
                max(n - 2, 1), rng=rng, population=population, name=f"app{i}_fj"
            )
        return make_pipeline_dfg(
            n, rng=rng, population=population, stage_width=4, name=f"app{i}_pipe"
        )

    return factory


def open_system_profile(profile: str = "poisson", **params: object) -> RateProfile:
    """Build the :class:`~repro.graphs.sources.RateProfile` of an
    open-system workload from flat, JSON-safe parameters.

    Unknown parameters raise ``TypeError`` — a spec typo must fail
    loudly, not silently fall back to a default rate.
    """
    if profile == "poisson":
        out: RateProfile = PoissonProfile(
            mean_interarrival_ms=float(params.pop("mean_interarrival_ms", 1000.0)),  # type: ignore[arg-type]
        )
    elif profile == "burst":
        out = BurstProfile(
            burst_size=int(params.pop("burst_size", 5)),  # type: ignore[arg-type]
            within_burst_ms=float(params.pop("within_burst_ms", 50.0)),  # type: ignore[arg-type]
            between_bursts_ms=float(params.pop("between_bursts_ms", 5000.0)),  # type: ignore[arg-type]
        )
    elif profile == "diurnal":
        out = DiurnalProfile(
            base_mean_ms=float(params.pop("base_mean_ms", 1000.0)),  # type: ignore[arg-type]
            amplitude=float(params.pop("amplitude", 0.8)),  # type: ignore[arg-type]
            period_ms=float(params.pop("period_ms", 30_000.0)),  # type: ignore[arg-type]
        )
    else:
        raise ValueError(f"unknown open-system profile {profile!r}")
    if params:
        raise TypeError(
            f"unknown parameters for {profile!r} profile: {sorted(params)}"
        )
    return out


def open_system_source(
    n_applications: int = 24,
    seed: int = DEFAULT_SEED,
    profile: str = "poisson",
    min_kernels: int = 8,
    max_kernels: int = 16,
    **profile_params: object,
) -> GeneratorSource:
    """A lazy open-system arrival source over the mixed application pool."""
    rate = open_system_profile(profile, **profile_params)
    return GeneratorSource(
        n_applications,
        mixed_application_factory(min_kernels, max_kernels),
        rate,
        seed=seed,
        name=f"open_{profile}_a{n_applications}_s{seed}",
    )


def _open_system_workload(
    n_applications: int = 24,
    seed: int = DEFAULT_SEED,
    profile: str = "poisson",
    min_kernels: int = 8,
    max_kernels: int = 16,
    **profile_params: object,
) -> list[WorkloadUnit]:
    """The merged (closed-form) unit of an open-system stream.

    The sweep engine executes merged DFGs; the ``source`` descriptor and
    ``app_spans`` carry the open-system identity into the cache key and
    the service-metric computation.  ``Simulator.run_stream`` on
    :func:`open_system_source` with the same parameters reproduces these
    schedules bit-for-bit.
    """
    source = open_system_source(
        n_applications,
        seed,
        profile,
        min_kernels,
        max_kernels,
        **profile_params,
    )
    stream = source.materialize()
    dfg, arrivals = stream.merged(name=source.name)
    return [
        WorkloadUnit(
            dfg,
            arrivals=arrivals,
            app_spans=stream_app_spans(stream),
            source={
                "kind": "open_system",
                "n_applications": n_applications,
                "seed": seed,
                "profile": source.profile.to_dict(),
                "min_kernels": min_kernels,
                "max_kernels": max_kernels,
            },
        )
    ]


#: kind name → builder.  Every builder takes only JSON-safe keyword
#: parameters and is deterministic in them, so a
#: :class:`~repro.experiments.scenarios.ScenarioSpec` can name a
#: workload declaratively and reproduce it anywhere.
WORKLOAD_KINDS = {
    "paper_suite": _paper_suite_workload,
    "streaming": _streaming_workload,
    "pipeline": _pipeline_workload,
    "open_system": _open_system_workload,
}


def build_workload(kind: str, **params: object) -> list[WorkloadUnit]:
    """Materialize a declarative workload: ``(DFG, arrivals)`` units.

    ``kind`` is one of :data:`WORKLOAD_KINDS`; ``params`` are forwarded
    to the builder (unknown parameters raise ``TypeError`` — a spec typo
    should fail loudly, not silently fall back to a default).
    """
    builder = WORKLOAD_KINDS.get(kind)
    if builder is None:
        raise ValueError(
            f"unknown workload kind {kind!r}; available: {sorted(WORKLOAD_KINDS)}"
        )
    return builder(**params)  # type: ignore[operator]
