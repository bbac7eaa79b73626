"""Streaming application workloads.

The paper frames its input as "a stream of applications … [that] can
have as many applications, and there is no specific number of instances
or order in which the applications occur" (§3.2) but evaluates the
submitted-at-once case.  This module generalizes to *online* streams:
applications (DFGs) arriving over time, merged into one simulation whose
kernels carry arrival times.

Static policies plan on the full merged DFG, so on streams they act as a
clairvoyant upper baseline; the dynamic policies (APT included) only ever
see kernels that have actually arrived — the regime the paper argues
dynamic scheduling is for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.graphs.dfg import DFG


@dataclass(frozen=True)
class ApplicationArrival:
    """One application joining the stream at ``arrival_ms``."""

    dfg: DFG
    arrival_ms: float

    def __post_init__(self) -> None:
        if self.arrival_ms < 0:
            raise ValueError(f"arrival_ms must be >= 0, got {self.arrival_ms}")
        if self.dfg.is_empty():
            raise ValueError("an application must contain at least one kernel")


class ApplicationStream:
    """An ordered sequence of application arrivals.

    ``merged()`` produces the single DFG + arrivals map the simulator
    consumes: kernel ids are renumbered contiguously in arrival order
    (preserving each application's internal arrival order), and every
    kernel inherits its application's arrival time.
    """

    def __init__(self, arrivals: Sequence[ApplicationArrival]) -> None:
        if not arrivals:
            raise ValueError("a stream needs at least one application")
        self._arrivals = sorted(arrivals, key=lambda a: a.arrival_ms)

    def __len__(self) -> int:
        return len(self._arrivals)

    def __iter__(self) -> Iterator[ApplicationArrival]:
        return iter(self._arrivals)

    @property
    def n_kernels(self) -> int:
        return sum(len(a.dfg) for a in self._arrivals)

    @property
    def last_arrival_ms(self) -> float:
        """Arrival time of the last application to join the stream.

        This is an *input* property of the stream — distinct from the
        run's **horizon** (when the last kernel finishes), which depends
        on the policy and platform and lives in the simulation's metrics
        (``SimulationMetrics.makespan`` / ``ServiceMetrics.horizon_ms``).
        """
        return self._arrivals[-1].arrival_ms

    @property
    def span_ms(self) -> float:
        """Alias of :attr:`last_arrival_ms` (kept for back-compat).

        Note this is the span of the *arrival process only* — the time
        over which applications keep joining — not the execution horizon;
        a saturated system finishes long after the last arrival.
        """
        return self.last_arrival_ms

    def merged(self, name: str = "stream") -> tuple[DFG, dict[int, float]]:
        """One DFG plus the per-kernel arrival map for ``Simulator.run``."""
        merged = DFG(name)
        arrivals: dict[int, float] = {}
        offset = 0
        for app in self._arrivals:
            id_map: dict[int, int] = {}
            for kid in app.dfg.kernel_ids():
                new_id = merged.add_kernel(app.dfg.spec(kid), kid=offset + len(id_map))
                id_map[kid] = new_id
                arrivals[new_id] = app.arrival_ms
            merged.add_dependencies(
                (id_map[u], id_map[v]) for u, v in app.dfg.edges()
            )
            offset += len(app.dfg)
        return merged, arrivals


def poisson_stream(
    n_applications: int,
    mean_interarrival_ms: float,
    application_factory: Callable[[int, np.random.Generator], DFG],
    rng: np.random.Generator,
) -> ApplicationStream:
    """A Poisson-arrival stream of applications.

    ``application_factory(index, rng)`` builds each application's DFG;
    inter-arrival gaps are exponential with the given mean.  The first
    application arrives at t = 0 so the system never idles on an empty
    queue at start.
    """
    if n_applications < 1:
        raise ValueError("need at least one application")
    if mean_interarrival_ms <= 0:
        raise ValueError("mean_interarrival_ms must be positive")
    t = 0.0
    out = []
    for i in range(n_applications):
        out.append(ApplicationArrival(application_factory(i, rng), t))
        t += float(rng.exponential(mean_interarrival_ms))
    return ApplicationStream(out)


def periodic_stream(
    n_applications: int,
    period_ms: float,
    application_factory: Callable[[int, np.random.Generator], DFG],
    rng: np.random.Generator,
) -> ApplicationStream:
    """A fixed-period stream (frame pipelines, sensor batches)."""
    if n_applications < 1:
        raise ValueError("need at least one application")
    if period_ms < 0:
        raise ValueError("period_ms must be >= 0")
    return ApplicationStream(
        [
            ApplicationArrival(application_factory(i, rng), i * period_ms)
            for i in range(n_applications)
        ]
    )
