"""The evaluation workload suites.

The paper evaluates on 10 graphs per DFG type whose kernel counts are
published in Tables 15/16 (46, 58, 50, 73, 69, 81, 125, 93, 132, 157) but
whose exact contents are not.  We regenerate them with seeded RNGs from
the paper's kernel/data-size population, so every experiment in this repo
is exactly reproducible even though absolute milliseconds differ from the
paper (see docs/architecture.md, "Reproduction notes").
"""

from __future__ import annotations

import numbers
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
    BurstProfile,
    DiurnalProfile,
    GeneratorSource,
    PoissonProfile,
    RateProfile,
)
from repro.graphs.streams import ApplicationArrival, ArrivalSource

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


def _mixed_application(
    i: int, n: int, rng: np.random.Generator, population: KernelPopulation
) -> DFG:
    """Application ``i`` of a stream's shape mix, sized ``n``: the paper's
    Type-1 shape, a fork-join of ``max(n - 2, 1)`` or a stage-width-4
    pipeline, by ``i % 3``."""
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


class _ScaleStreamSource(ArrivalSource):
    """A Poisson stream of small applications totalling ≈ ``n_kernels``.

    Applications cycle through the shape mix of :func:`_mixed_application`
    (8–16 kernels each), arriving with exponential gaps — the online
    regime the paper frames but does not evaluate.  One RNG,
    ``default_rng(seed)``, first draws every application's size, then
    per application its DFG followed by the gap to the next arrival, so
    the stream is deterministic for a fixed seed.  ``Simulator.run_stream``
    generates it lazily, so peak memory stays bounded by the *live*
    window, not the stream length; ``materialize()`` is the stream the
    ``streaming`` workload kind merges.

    The default inter-arrival mean (3 s for ~12-kernel applications
    of Table 14 kernels) keeps a 12-processor system loaded but not
    unboundedly backlogged, so the ready set stays realistic for a
    service deployment rather than growing without limit.
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
        self.seed = seed
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
            yield ApplicationArrival(_mixed_application(i, n, rng, population), t)
            t += float(rng.exponential(self.mean_interarrival_ms))


def streaming_scale_source(
    n_kernels: int = 10_000,
    seed: int = DEFAULT_SEED,
    mean_interarrival_ms: float = 3000.0,
    population: KernelPopulation = PAPER_KERNEL_POPULATION,
) -> _ScaleStreamSource:
    """The scale stream (:class:`_ScaleStreamSource`): ~``n_kernels``
    kernels in 8–16-kernel applications, Poisson arrivals.

    ``Simulator.run_stream`` admits it lazily; ``materialize()`` and
    ``ApplicationStream.merged`` give the ``(DFG, arrivals)`` form for
    ``Simulator.run`` (the benchmark scenario of
    ``benchmarks/test_bench_simulator_scale.py``, on :func:`scale_system`).
    """
    return _ScaleStreamSource(n_kernels, seed, mean_interarrival_ms, population)


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


def _integer(name: str, value: object) -> int:
    """A workload's count or seed: an integral number (numpy ints
    included, ``bool`` not), stored as ``int``; anything else raises
    ``TypeError``.  So ``60`` and ``np.int64(60)`` name one workload and
    cache key, and ``60.0`` names none."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value: object) -> float:
    """A workload's rate parameter, stored as ``float`` (so ``3000`` and
    ``3000.0`` name one workload); a non-number raises ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def _paper_suite_workload(
    dfg_type: int = 1, seed: int = DEFAULT_SEED, n_graphs: int | None = None
) -> list[WorkloadUnit]:
    suite = paper_suite(dfg_type, _integer("seed", seed))
    if n_graphs is not None:
        suite = suite[: _integer("n_graphs", n_graphs)]
    return [WorkloadUnit(dfg) for dfg in suite]


def _streaming_workload(
    n_kernels: int = 10_000,
    seed: int = DEFAULT_SEED,
    mean_interarrival_ms: float = 3000.0,
) -> list[WorkloadUnit]:
    n_kernels = _integer("n_kernels", n_kernels)
    seed = _integer("seed", seed)
    mean_interarrival_ms = _real("mean_interarrival_ms", mean_interarrival_ms)
    stream = streaming_scale_source(
        n_kernels, seed, mean_interarrival_ms
    ).materialize()
    dfg, arrivals = stream.merged()
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


def _fork_join_stream_workload(
    n_applications: int = 25,
    mean_interarrival_ms: float = 1000.0,
    seed: int = DEFAULT_SEED,
) -> list[WorkloadUnit]:
    """Poisson-arriving four-kernel fork-joins, merged into one unit.

    The streaming extension study's workload.  Its unit carries the
    arrivals only — no app spans, no source descriptor — so its jobs keep
    the cache keys that study has always had.
    """

    def factory(index: int, rng: np.random.Generator) -> DFG:
        return make_fork_join_dfg(2, rng=rng, name=f"app{index}")

    mean_interarrival_ms = _real("mean_interarrival_ms", mean_interarrival_ms)
    stream = GeneratorSource(
        _integer("n_applications", n_applications),
        factory,
        PoissonProfile(mean_interarrival_ms),
        _integer("seed", seed),
    ).materialize()
    dfg, arrivals = stream.merged(name=f"stream_ia{mean_interarrival_ms:g}")
    return [WorkloadUnit(dfg, arrivals=arrivals)]


def _pipeline_workload(
    n_kernels: int = 64,
    stage_width: int = 4,
    seed: int = DEFAULT_SEED,
) -> list[WorkloadUnit]:
    n_kernels = _integer("n_kernels", n_kernels)
    seed = _integer("seed", seed)
    dfg = make_pipeline_dfg(
        n_kernels,
        rng=np.random.default_rng(seed),
        stage_width=_integer("stage_width", stage_width),
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
    ``[min_kernels, max_kernels]``, then takes its shape from
    :func:`_mixed_application` — the scale stream's mix, but sized
    lazily so a :class:`~repro.graphs.sources.GeneratorSource` can build
    applications on demand.
    """
    if not (1 <= min_kernels <= max_kernels):
        raise ValueError("need 1 <= min_kernels <= max_kernels")

    def factory(i: int, rng: np.random.Generator) -> DFG:
        n = int(rng.integers(min_kernels, max_kernels + 1))
        return _mixed_application(i, n, rng, population)

    return factory


def open_system_profile(profile: str = "poisson", **params: object) -> RateProfile:
    """Build the :class:`~repro.graphs.sources.RateProfile` of an
    open-system workload from flat, JSON-safe parameters.

    Unknown parameters raise ``TypeError`` — a spec typo must fail
    loudly, not silently fall back to a default rate — and so do
    parameters of the wrong type: a burst size must be an integer, every
    other parameter a number (stored as ``float``).
    """
    if profile == "poisson":
        out: RateProfile = PoissonProfile(
            mean_interarrival_ms=_real(
                "mean_interarrival_ms", params.pop("mean_interarrival_ms", 1000.0)
            ),
        )
    elif profile == "burst":
        out = BurstProfile(
            burst_size=_integer("burst_size", params.pop("burst_size", 5)),
            within_burst_ms=_real("within_burst_ms", params.pop("within_burst_ms", 50.0)),
            between_bursts_ms=_real(
                "between_bursts_ms", params.pop("between_bursts_ms", 5000.0)
            ),
        )
    elif profile == "diurnal":
        out = DiurnalProfile(
            base_mean_ms=_real("base_mean_ms", params.pop("base_mean_ms", 1000.0)),
            amplitude=_real("amplitude", params.pop("amplitude", 0.8)),
            period_ms=_real("period_ms", params.pop("period_ms", 30_000.0)),
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
    n_applications = _integer("n_applications", n_applications)
    seed = _integer("seed", seed)
    min_kernels = _integer("min_kernels", min_kernels)
    max_kernels = _integer("max_kernels", max_kernels)
    source = open_system_source(
        n_applications,
        seed,
        profile,
        min_kernels,
        max_kernels,
        **profile_params,
    )
    stream = source.materialize()
    dfg, arrivals = stream.merged()
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
    "fork_join_stream": _fork_join_stream_workload,
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
