"""Streaming application workloads.

The paper frames its input as "a stream of applications … [that] can
have as many applications, and there is no specific number of instances
or order in which the applications occur" (§3.2) but evaluates the
submitted-at-once case.  This module generalizes to *online* streams:
applications (DFGs) arriving over time.  An :class:`ArrivalSource`
describes such a stream; :class:`ApplicationStream` is the source whose
applications are all in memory, and ``merged()`` folds it into one
simulation whose kernels carry arrival times.  Lazy sources and rate
profiles live in :mod:`repro.graphs.sources`.

Static policies plan on the full merged DFG, so on streams they act as a
clairvoyant upper baseline; the dynamic policies (APT included) only ever
see kernels that have actually arrived — the regime the paper argues
dynamic scheduling is for.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterator, Sequence

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


class ArrivalSource(abc.ABC):
    """A (possibly lazy) producer of application arrivals.

    ``arrivals()`` yields :class:`ApplicationArrival` objects in
    non-decreasing ``arrival_ms`` order — the contract the simulator's
    streaming admission depends on (violations raise at iteration time).
    """

    #: human-readable identifier (used as the run's DFG name).
    name: str = "source"

    @abc.abstractmethod
    def _generate(self) -> Iterator[ApplicationArrival]:
        """Yield arrivals; concrete sources implement this."""

    def arrivals(self) -> Iterator[ApplicationArrival]:
        """The checked arrival iterator (enforces time ordering)."""
        last = 0.0
        for arrival in self._generate():
            if arrival.arrival_ms < last:
                raise ValueError(
                    f"{type(self).__name__} yielded arrivals out of order: "
                    f"{arrival.arrival_ms} after {last}"
                )
            last = arrival.arrival_ms
            yield arrival

    def __iter__(self) -> Iterator[ApplicationArrival]:
        return self.arrivals()

    def materialize(self) -> "ApplicationStream":
        """Realize the whole source as an :class:`ApplicationStream` of
        the same name.

        Requires the source to be finite; the result holds every
        application in memory (the clairvoyant-baseline form static
        policies plan on).
        """
        return ApplicationStream(list(self.arrivals()), name=self.name)


class ApplicationStream(ArrivalSource):
    """A source whose applications are all in memory, in arrival order.

    ``merged()`` produces the single DFG + arrivals map the simulator
    consumes: kernel ids are renumbered contiguously in arrival order
    (preserving each application's internal arrival order), and every
    kernel inherits its application's arrival time.
    """

    def __init__(
        self, arrivals: Sequence[ApplicationArrival], name: str = "stream"
    ) -> None:
        if not arrivals:
            raise ValueError("a stream needs at least one application")
        self._arrivals = sorted(arrivals, key=lambda a: a.arrival_ms)
        self.name = name

    def __len__(self) -> int:
        return len(self._arrivals)

    def _generate(self) -> Iterator[ApplicationArrival]:
        return iter(self._arrivals)

    def materialize(self) -> "ApplicationStream":
        return self

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

    def merged(self, name: str | None = None) -> tuple[DFG, dict[int, float]]:
        """One DFG (named ``name``, by default the stream's) plus the
        per-kernel arrival map for ``Simulator.run``."""
        merged = DFG(self.name if name is None else name)
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
