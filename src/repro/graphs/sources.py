"""Arrival sources: the open-system side of application streams.

An :class:`~repro.graphs.streams.ApplicationStream` holds every
application DFG in memory at once, which caps stream length long before
the simulator does.  This module provides the lazy sources: a
:class:`GeneratorSource` yields
:class:`~repro.graphs.streams.ApplicationArrival` objects one at a time,
in non-decreasing arrival order, so the simulator's streaming path
(``Simulator.run_stream``) can admit applications as they arrive and
retire them as they complete — peak resident state then tracks the
*concurrency* of the stream, not its length.

* :class:`GeneratorSource` builds each application's DFG on demand
  from a factory and draws inter-arrival gaps from a
  :class:`RateProfile`;
* rate profiles — :class:`PoissonProfile` (memoryless, constant rate),
  :class:`BurstProfile` (tight bursts separated by quiet gaps) and
  :class:`DiurnalProfile` (sinusoidally rate-modulated Poisson), all
  deterministic for a fixed seed and serializable for scenario specs.

Determinism contract: a source's arrival sequence — times, DFG shapes,
kernel specs — is bit-for-bit reproducible from its constructor
arguments, in any process (guarded by ``tests/test_sources.py``).  A
``GeneratorSource(n, factory, PoissonProfile(m), seed)`` consumes one
RNG, ``default_rng(seed)``, in strict alternation: DFG ``i``, then the
gap to arrival ``i + 1``.  ``materialize()`` is its eager form.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.graphs.dfg import DFG
from repro.graphs.streams import ApplicationArrival, ArrivalSource


# ----------------------------------------------------------------------
# rate profiles
# ----------------------------------------------------------------------
class RateProfile(abc.ABC):
    """An inter-arrival-gap process: how fast applications arrive.

    ``gap_ms(index, now_ms, rng)`` returns the gap between arrival
    ``index`` (already placed at ``now_ms``) and arrival ``index + 1``.
    Implementations must be deterministic in ``(index, now_ms)`` and the
    RNG stream, and must serialize via ``to_dict`` so an open-system
    workload's cache key can carry them.
    """

    #: registry key; set by each concrete profile.
    kind: str = ""

    @abc.abstractmethod
    def gap_ms(self, index: int, now_ms: float, rng: np.random.Generator) -> float:
        """Gap (ms) between arrival ``index`` at ``now_ms`` and the next."""

    @abc.abstractmethod
    def to_dict(self) -> dict[str, object]:
        """JSON-safe form: ``{"kind": ..., <parameters>}``."""


@dataclass(frozen=True)
class PoissonProfile(RateProfile):
    """Memoryless arrivals: exponential gaps with a constant mean."""

    mean_interarrival_ms: float
    kind = "poisson"

    def __post_init__(self) -> None:
        if self.mean_interarrival_ms <= 0:
            raise ValueError("mean_interarrival_ms must be positive")

    def gap_ms(self, index: int, now_ms: float, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mean_interarrival_ms))

    def to_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "mean_interarrival_ms": self.mean_interarrival_ms}


@dataclass(frozen=True)
class BurstProfile(RateProfile):
    """Bursty arrivals: ``burst_size`` back-to-back applications
    (``within_burst_ms`` apart), then a quiet gap of ``between_bursts_ms``.

    Gaps are deterministic — the profile draws nothing from the RNG —
    which makes burst scenarios exactly reproducible and easy to reason
    about (the worst case for admission control is a *synchronized*
    burst, not a jittered one).
    """

    burst_size: int
    within_burst_ms: float
    between_bursts_ms: float
    kind = "burst"

    def __post_init__(self) -> None:
        if self.burst_size < 1:
            raise ValueError("burst_size must be >= 1")
        if self.within_burst_ms < 0 or self.between_bursts_ms < 0:
            raise ValueError("burst gaps must be >= 0")

    def gap_ms(self, index: int, now_ms: float, rng: np.random.Generator) -> float:
        if (index + 1) % self.burst_size == 0:
            return self.between_bursts_ms
        return self.within_burst_ms

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "burst_size": self.burst_size,
            "within_burst_ms": self.within_burst_ms,
            "between_bursts_ms": self.between_bursts_ms,
        }


@dataclass(frozen=True)
class DiurnalProfile(RateProfile):
    """Sinusoidally rate-modulated Poisson arrivals (a day/night cycle).

    The instantaneous arrival rate at time *t* is
    ``(1 + amplitude * sin(2π t / period_ms)) / base_mean_ms``; each gap
    is exponential with the reciprocal mean.  ``amplitude`` in [0, 1):
    0 degenerates to :class:`PoissonProfile`, values near 1 swing between
    near-idle troughs and ``1/(1 - amplitude)``-times-base peaks.
    """

    base_mean_ms: float
    amplitude: float
    period_ms: float
    kind = "diurnal"

    def __post_init__(self) -> None:
        if self.base_mean_ms <= 0:
            raise ValueError("base_mean_ms must be positive")
        if not (0.0 <= self.amplitude < 1.0):
            raise ValueError("amplitude must be in [0, 1)")
        if self.period_ms <= 0:
            raise ValueError("period_ms must be positive")

    def gap_ms(self, index: int, now_ms: float, rng: np.random.Generator) -> float:
        rate_factor = 1.0 + self.amplitude * math.sin(
            2.0 * math.pi * now_ms / self.period_ms
        )
        return float(rng.exponential(self.base_mean_ms / rate_factor))

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "base_mean_ms": self.base_mean_ms,
            "amplitude": self.amplitude,
            "period_ms": self.period_ms,
        }


# ----------------------------------------------------------------------
# sources
# ----------------------------------------------------------------------
class GeneratorSource(ArrivalSource):
    """A lazy source: DFGs built on demand, gaps drawn from a profile.

    Parameters
    ----------
    n_applications:
        How many applications the stream carries.
    application_factory:
        ``factory(index, rng) -> DFG`` builds each application when (and
        only when) the stream reaches it.
    profile:
        The :class:`RateProfile` producing inter-arrival gaps.
    seed:
        Seed of the single RNG threaded through factory and profile, in
        strict alternation (DFG ``i``, then gap ``i → i+1``).  It reaches
        ``numpy.random.default_rng`` as given, so a float seed raises
        ``TypeError`` when the stream is generated.

    The first application arrives at t = 0, so the system never idles on
    an empty queue at start.
    """

    def __init__(
        self,
        n_applications: int,
        application_factory: Callable[[int, np.random.Generator], DFG],
        profile: RateProfile,
        seed: int,
        name: str | None = None,
    ) -> None:
        if n_applications < 1:
            raise ValueError("need at least one application")
        self.n_applications = int(n_applications)
        self.application_factory = application_factory
        self.profile = profile
        self.seed = seed
        self.name = name or f"{profile.kind}_stream_n{n_applications}_s{seed}"

    def __len__(self) -> int:
        return self.n_applications

    def _generate(self) -> Iterator[ApplicationArrival]:
        rng = np.random.default_rng(self.seed)
        t = 0.0
        for i in range(self.n_applications):
            dfg = self.application_factory(i, rng)
            yield ApplicationArrival(dfg, t)
            t += float(self.profile.gap_ms(i, t, rng))


__all__ = [
    "ArrivalSource",
    "GeneratorSource",
    "RateProfile",
    "PoissonProfile",
    "BurstProfile",
    "DiurnalProfile",
]
