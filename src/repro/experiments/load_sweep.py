"""Throughput–latency load sweeps: λ from light load to saturation.

The defining experiment of an open system: fix the platform and the
application pool, sweep the offered arrival rate λ, and record each
policy's **throughput–latency curve** — sustained applications/second
against mean and tail response time.  At light load every sane policy
tracks the arrival process (response ≈ isolated runtime, slowdown ≈ 1);
as λ approaches the service capacity, queueing dominates and placement
quality separates the policies; past saturation the backlog — and with
it response time — grows without bound over the finite stream.

Each rate is one :class:`~repro.experiments.scenarios.ScenarioSpec`
over the ``open_system`` workload, and each (rate, policy) cell one of
its jobs, carrying the stream's app spans and declarative source
description.  All cells run as one batch through the shared cached
engine — so a re-run with one new rate only simulates that rate, and
curves are bit-stable across runs and processes.

The CLI front-end is ``apt-sched load-sweep`` (results under
``results/load_sweep_*.txt``); ``examples/open_system_saturation.py``
walks the same API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.lookup import LookupTable
from repro.core.system import SystemConfig
from repro.experiments.report import TableResult
from repro.experiments.scenarios import ScenarioSpec, WorkloadSpec, run_scenarios
from repro.experiments.sweep import (
    JobResult,
    PolicySpec,
    SimSettings,
    SweepEngine,
    system_to_dict,
)
from repro.experiments.workloads import DEFAULT_SEED, scale_system

#: Default λ grid (applications per second): light load through past the
#: 12-processor scale platform's saturation point.
DEFAULT_RATES_PER_S = (0.1, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class LoadPoint:
    """One (policy, arrival rate) cell of a load sweep."""

    policy: str
    rate_per_s: float
    mean_interarrival_ms: float
    result: JobResult

    @property
    def throughput_apps_per_s(self) -> float:
        return self.result.throughput_apps_per_s

    @property
    def mean_response_ms(self) -> float:
        return self.result.mean_response_ms

    @property
    def p95_response_ms(self) -> float:
        return self.result.p95_response_ms

    @property
    def mean_slowdown(self) -> float:
        return self.result.mean_slowdown


@dataclass(frozen=True)
class LoadSweepResult:
    """Per-policy throughput–latency curves over a λ grid."""

    profile: str
    n_applications: int
    seed: int
    points: tuple[LoadPoint, ...]

    def curve(self, policy: str) -> list[LoadPoint]:
        """One policy's points, in ascending offered-rate order."""
        return sorted(
            (p for p in self.points if p.policy == policy),
            key=lambda p: p.rate_per_s,
        )

    def policies(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for p in self.points:
            seen.setdefault(p.policy, None)
        return tuple(seen)

    def table(self) -> TableResult:
        rows = []
        for p in self.points:
            rows.append(
                (
                    p.policy.upper(),
                    p.rate_per_s,
                    p.throughput_apps_per_s,
                    p.mean_response_ms,
                    p.p95_response_ms,
                    p.mean_slowdown,
                )
            )
        return TableResult(
            title=f"Load sweep — {self.profile} arrivals, "
            f"{self.n_applications} applications",
            headers=(
                "Policy",
                "λ (apps/s)",
                "Throughput (apps/s)",
                "Resp (ms)",
                "p95 Resp (ms)",
                "Slowdown",
            ),
            rows=tuple(rows),
            notes=(
                "Offered arrival rate λ vs sustained throughput and response "
                "time; throughput saturates (and response diverges) once λ "
                "exceeds the platform's service capacity. "
                f"Seed {self.seed}; deterministic model quantities only."
            ),
        )


def load_sweep(
    policies: Sequence[str] = ("apt", "met"),
    rates_per_s: Sequence[float] = DEFAULT_RATES_PER_S,
    n_applications: int = 32,
    seed: int = DEFAULT_SEED,
    profile: str = "poisson",
    apt_alpha: float = 4.0,
    system: SystemConfig | None = None,
    lookup: LookupTable | None = None,
    engine: SweepEngine | None = None,
    min_kernels: int = 8,
    max_kernels: int = 16,
    settings: SimSettings = SimSettings(),
) -> LoadSweepResult:
    """Sweep λ across ``rates_per_s`` for each policy.

    For the non-Poisson profiles, λ rescales the profile's time axis —
    burst spacing or the diurnal base mean — so the *shape* of the
    arrival process is held fixed while its offered load moves.  Only
    dynamic policies are accepted: a static plan computed over the whole
    merged stream would be a clairvoyant baseline, not an open-system
    measurement, so static policy names raise ``ValueError`` up front.
    """
    if not rates_per_s:
        raise ValueError("need at least one arrival rate")
    if any(r <= 0 for r in rates_per_s):
        raise ValueError("arrival rates must be positive")
    specs = [PolicySpec.at_alpha(name, apt_alpha) for name in policies]
    for name, spec in zip(policies, specs):
        if not spec.build().is_dynamic:
            raise ValueError(
                f"load_sweep takes dynamic policies only; {name!r} is static "
                "(it would plan with clairvoyant knowledge of the stream)"
            )
    platform = system_to_dict(system if system is not None else scale_system())

    scenarios = []
    for rate in rates_per_s:
        mean_ia = 1000.0 / rate
        profile_params: dict[str, object]
        if profile == "poisson":
            profile_params = {"mean_interarrival_ms": mean_ia}
        elif profile == "burst":
            # bursts of 6 whose *average* spacing is the requested λ
            profile_params = {
                "burst_size": 6,
                "within_burst_ms": mean_ia / 10.0,
                "between_bursts_ms": 6 * mean_ia - 5 * (mean_ia / 10.0),
            }
        elif profile == "diurnal":
            profile_params = {
                "base_mean_ms": mean_ia,
                "amplitude": 0.8,
                "period_ms": max(20_000.0, 10 * mean_ia),
            }
        else:
            raise ValueError(f"unknown load-sweep profile {profile!r}")
        # the same workload (and therefore the same cache keys) the
        # `open_system` scenarios produce
        scenarios.append(
            ScenarioSpec(
                name=f"load_sweep_{profile}_{rate:g}",
                description=f"{profile} arrivals at λ={rate:g} apps/s",
                system=platform,
                workload=WorkloadSpec.of(
                    "open_system",
                    n_applications=n_applications,
                    seed=seed,
                    profile=profile,
                    min_kernels=min_kernels,
                    max_kernels=max_kernels,
                    **profile_params,
                ),
                policies=tuple(specs),
                settings=settings,
            )
        )

    outcomes = run_scenarios(scenarios, engine, lookup)
    points = tuple(
        LoadPoint(
            policy=name, rate_per_s=rate, mean_interarrival_ms=1000.0 / rate, result=res
        )
        for rate, outcome in zip(rates_per_s, outcomes)
        for name, res in zip(policies, outcome.results)
    )
    return LoadSweepResult(
        profile=profile,
        n_applications=n_applications,
        seed=seed,
        points=points,
    )


__all__ = [
    "DEFAULT_RATES_PER_S",
    "LoadPoint",
    "LoadSweepResult",
    "load_sweep",
]
